import numpy as np
import pytest

from varq.grid import (
    GridMismatchError,
    GridSpec,
    RealField,
    integrate_values,
)
from varq.fields import (
    DENSITY_FLOOR,
    Free,
    Harmonic,
    MadelungState,
    PhysicalParams,
)
from varq.action import (
    bohm_potential,
    information_density,
    information_metric,
    kinetic_density,
    low_density_mask,
    numeric_functional_gradient,
)
from varq.constraints import (
    EnsembleHamiltonian,
    functional_derivative,
    stationarity_residuals,
)

from conftest import harmonic_ground_state, random_smooth_state


def gaussian_state(grid, sigma=1.0, hbar=1.0, momentum=0.0):
    x = grid.coordinates()[0]
    rho = np.exp(-x**2 / (2.0 * sigma**2))
    rho /= np.sum(rho * grid.node_volumes())
    return MadelungState(RealField(grid, rho), RealField(grid, momentum * x),
                         hbar)


# -- information metric ------------------------------------------------------

def test_information_metric_gaussian_sigma1():
    # (hbar/4m) * Fisher information of a Gaussian = hbar/(4 m sigma^2)
    g = GridSpec.line(1024, -10.0, 10.0)
    st = gaussian_state(g, sigma=1.0)
    val = information_metric(st.density, PhysicalParams())
    assert val == pytest.approx(0.25, rel=1e-8)


def test_information_metric_gaussian_sigma2():
    g = GridSpec.line(1024, -16.0, 16.0)
    st = gaussian_state(g, sigma=2.0)
    val = information_metric(st.density, PhysicalParams())
    assert val == pytest.approx(0.0625, rel=1e-8)


def test_information_metric_scales_with_hbar_over_mass():
    g = GridSpec.line(1024, -10.0, 10.0)
    st = gaussian_state(g, sigma=1.0)
    val = information_metric(st.density, PhysicalParams(hbar=2.0, mass=4.0))
    assert val == pytest.approx(2.0 / 4.0 * 0.25, rel=1e-8)


def test_information_metric_nonnegative_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        st = random_smooth_state(rng, n=256)
        assert information_metric(st.density, PhysicalParams()) >= 0.0


def test_information_density_floors_dead_nodes():
    g = GridSpec.line(256, -1.0, 1.0)
    x = g.coordinates()[0]
    rho = np.where(np.abs(x) < 0.5, np.cos(np.pi * x) ** 2, 0.0)
    rho /= np.sum(rho * g.node_volumes())
    f = information_density(rho, g, PhysicalParams())
    dead = low_density_mask(rho, g)
    assert np.all(f[dead] == 0.0)
    assert np.all(np.isfinite(f))


@pytest.mark.parametrize("grid", [GridSpec.line(256, -1.0, 1.0),
                                  GridSpec.square(32, -1.0, 1.0)])
def test_each_density_of_a_stack_keeps_its_own_floor(grid):
    # peaks 1e-12 apart: against the stack's one peak, the small density
    # would be dead everywhere
    r2 = sum(x**2 for x in grid.meshes())
    rho = np.where(r2 < 0.25, np.cos(np.pi * np.sqrt(r2)) ** 2, 0.0) + 1e-30
    stack = np.stack([rho, 1e-12 * rho, 1e6 * np.roll(rho, 3)])
    dead = low_density_mask(stack, grid)
    assert (dead != (stack < DENSITY_FLOOR * stack.max())).any()
    p = PhysicalParams()
    info = information_density(stack, grid, p)
    for member, member_dead, member_info in zip(stack, dead, info):
        assert np.array_equal(member_dead, low_density_mask(member, grid))
        assert 0 < member_dead.sum() < member_dead.size
        alone = information_density(member, grid, p)
        assert member_info.tobytes() == alone.tobytes()
        assert np.all(member_info[member_dead] == 0.0)


# -- Bohm potential ----------------------------------------------------------

def test_bohm_potential_gaussian_formula():
    # Q(x) = hbar^2/(4 m s^2) - hbar^2 x^2/(8 m s^4)
    g = GridSpec.line(2048, -10.0, 10.0)
    st = gaussian_state(g, sigma=1.0)
    q = bohm_potential(st.density, PhysicalParams(), order=4)
    x = g.coordinates()[0]
    expected = 0.25 - x**2 / 8.0
    keep = ~low_density_mask(st.density.values, g)
    err = np.max(np.abs(q.values[keep] - expected[keep]))
    assert err <= 1e-6 * np.max(np.abs(expected[keep]))


def test_bohm_potential_zero_at_dead_nodes():
    g = GridSpec.line(512, -30.0, 30.0)
    st = gaussian_state(g, sigma=1.0)
    q = bohm_potential(st.density, PhysicalParams())
    dead = low_density_mask(st.density.values, g)
    assert np.any(dead)
    assert np.all(q.values[dead] == 0.0)


def test_bohm_potential_mass_scaling():
    g = GridSpec.line(1024, -10.0, 10.0)
    st = gaussian_state(g)
    q1 = bohm_potential(st.density, PhysicalParams(mass=1.0))
    q2 = bohm_potential(st.density, PhysicalParams(mass=2.0))
    assert np.allclose(q1.values, 2.0 * q2.values, atol=1e-12)


def test_mean_bohm_equals_half_hbar_information_metric():
    # integral rho Q dx = (hbar/2) * information metric, any smooth density
    rng = np.random.default_rng(3)
    p = PhysicalParams()
    for _ in range(5):
        st = random_smooth_state(rng, n=1024)
        q = bohm_potential(st.density, p)
        lhs = integrate_values(st.density.values * q.values, st.grid)
        rhs = 0.5 * p.hbar * information_metric(st.density, p)
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)


def test_bohm_potential_2d_axis_split():
    g = GridSpec.square(128, -6.0, 6.0)
    a, b = g.meshes()
    rho = np.exp(-(a**2 + b**2))
    rho /= np.sum(rho * g.node_volumes())
    p = PhysicalParams(mass=(1.0, 2.0))
    qa = bohm_potential(RealField(g, rho), p, axis=0)
    qb = bohm_potential(RealField(g, rho), p, axis=1)
    qtot = bohm_potential(RealField(g, rho), p)
    assert np.allclose(qa.values + qb.values, qtot.values, atol=1e-12)


# -- variation of the information term reproduces Q --------------------------

def test_information_variation_equals_bohm_potential():
    rng = np.random.default_rng(5)
    p = PhysicalParams()
    st = random_smooth_state(rng, n=512)

    def half_hbar_info(rho):
        return 0.5 * p.hbar * information_density(rho, st.grid, p)

    num = numeric_functional_gradient(half_hbar_info, st, "density")
    q = bohm_potential(st.density, p)
    scale = np.max(np.abs(q.values))
    assert np.max(np.abs(num.values - q.values)) <= 1e-6 * max(scale, 1.0)


# -- classical density and kinetic term --------------------------------------

def test_kinetic_density_plane_phase():
    g = GridSpec.line(512, -8.0, 8.0)
    st = gaussian_state(g, momentum=1.5)
    kin = kinetic_density(st.action.values, g, PhysicalParams(mass=2.0))
    assert np.allclose(kin, 1.5**2 / 4.0, atol=1e-8)


# -- the residuals' time derivative --------------------------------------------

def test_stationarity_residuals_difference_the_middle_slice():
    # rho and S quadratic in t: the central difference at the middle slice
    # is exact, and it is the one time derivative the residuals read
    g = GridSpec.line(64, -1.0, 1.0)
    p = PhysicalParams()
    base = gaussian_state(g, sigma=0.3, momentum=0.5)
    dt = 0.1
    ts = np.arange(5) * dt
    states = [MadelungState(
        RealField(g, base.density.values * (1.0 + t + t * t)),
        RealField(g, base.action.values + 2.0 + 3.0 * t - 1.5 * t**2))
        for t in ts]
    rep = stationarity_residuals(states, dt, p)
    h = EnsembleHamiltonian(p)
    mid = states[2]
    ds_dt = rep.density_residual.values - h.gradient_density(mid).values
    drho_dt = h.gradient_action(mid).values - rep.action_residual.values
    assert np.allclose(ds_dt, 3.0 - 3.0 * ts[2], rtol=0.0, atol=1e-10)
    assert np.allclose(drho_dt, base.density.values * (1.0 + 2.0 * ts[2]),
                       rtol=0.0, atol=1e-10)


def test_stationarity_residuals_need_three_slices_and_a_positive_step():
    g = GridSpec.line(64, -1.0, 1.0)
    st = gaussian_state(g, sigma=0.3)
    with pytest.raises(ValueError, match="three time slices"):
        stationarity_residuals([st] * 2, 0.1, PhysicalParams())
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError, match="dt must be positive"):
            stationarity_residuals([st] * 3, dt, PhysicalParams())


# -- functional gradients ----------------------------------------------------

def slice_action(state, params, ds_dt, component):
    """Total-action integrand of one frozen slice, rho dS/dt plus the
    ensemble Hamiltonian's, as a function of the component's values."""
    h = EnsembleHamiltonian(params)
    rho, s, grid = state.density.values, state.action.values, state.grid
    if component == "density":
        return lambda r: r * ds_dt + h.integrand_values(r, s, grid)
    return lambda a: rho * ds_dt + h.integrand_values(rho, a, grid)


def test_hamilton_jacobi_residual_on_ground_state():
    # dS/dt + kinetic + V + Q vanishes on the stationary ground state
    g = GridSpec.line(1024, -8.0, 8.0)
    st = harmonic_ground_state(g)
    p = PhysicalParams(potential=Harmonic())
    res = -0.5 + EnsembleHamiltonian(p).gradient_density(st).values
    keep = ~low_density_mask(st.density.values, g, floor=1e-6)
    assert np.max(np.abs(res[keep])) <= 1e-5


def test_continuity_residual_stationary_state():
    # d rho/dt + div(rho grad S / m) = d rho/dt - dH/dS, with d rho/dt = 0
    g = GridSpec.line(1024, -8.0, 8.0)
    st = harmonic_ground_state(g)
    p = PhysicalParams(potential=Harmonic())
    res = -EnsembleHamiltonian(p).gradient_action(st).values
    assert np.max(np.abs(res)) <= 1e-12


def test_numeric_gradient_matches_analytic_density_component():
    rng = np.random.default_rng(17)
    p = PhysicalParams(potential=Harmonic())
    st = random_smooth_state(rng, n=512)
    ds_dt = np.full(st.grid.shape, -0.3)
    num = numeric_functional_gradient(
        slice_action(st, p, ds_dt, "density"), st, "density")
    ana = ds_dt + EnsembleHamiltonian(p).gradient_density(st).values
    scale = np.max(np.abs(ana))
    assert np.max(np.abs(num.values - ana)) <= 1e-5 * scale


def test_numeric_gradient_matches_analytic_action_component():
    # with d rho/dt = 0 the action gradient is dH/dS = -div(rho grad S / m)
    rng = np.random.default_rng(19)
    p = PhysicalParams(potential=Harmonic())
    st = random_smooth_state(rng, n=512)
    ds_dt = np.zeros(st.grid.shape)
    num = numeric_functional_gradient(
        slice_action(st, p, ds_dt, "action"), st, "action")
    ana = EnsembleHamiltonian(p).gradient_action(st).values
    scale = max(np.max(np.abs(ana)), 1e-3)
    assert np.max(np.abs(num.values - ana)) <= 1e-5 * scale


def test_functional_gradient_validation():
    g = GridSpec.line(64, -1.0, 1.0)
    st = gaussian_state(g, sigma=0.3)
    h = EnsembleHamiltonian(PhysicalParams())
    with pytest.raises(ValueError):
        functional_derivative(h, st, "phase")
    with pytest.raises(ValueError):
        functional_derivative(h, st, "density", backend="symbolic")
    with pytest.raises(ValueError):
        numeric_functional_gradient(np.zeros_like, st, "phase")


def test_grid_mismatch_in_residuals():
    # a trajectory whose slices disagree about the grid has no dS/dt, also
    # when the slices have one shape and would difference silently
    g = GridSpec.line(64, -1.0, 1.0)
    for other in (GridSpec.line(65, -1.0, 1.0), GridSpec.line(64, -2.0, 2.0)):
        states = [gaussian_state(grid, sigma=0.3) for grid in (g, g, other)]
        with pytest.raises(GridMismatchError):
            stationarity_residuals(states, 0.1, PhysicalParams())
