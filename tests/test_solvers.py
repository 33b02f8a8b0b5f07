"""Eigensolver and propagator checks against closed-form references.

Reference values: harmonic-trap levels are (n + 1/2) hbar omega, the
hard-wall box has E_n = n^2 pi^2 hbar^2 / (2 m L^2), and a displaced
ground-state Gaussian in a harmonic trap evolves rigidly with center
cos(t), uniform velocity field -sin(t), and phase
S = -x sin(t) + sin(2t)/4 - t/2 (unit parameters, unit displacement).
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varq import cli, solvers
from varq.bipartite import BipartiteParams, three_route_comparison
from varq.constraints import StationarityReport, stationarity_residuals
from varq.fields import (
    Free,
    Harmonic,
    MadelungState,
    PhysicalParams,
    Polynomial,
    potential_values,
)
from varq.grid import (
    DEFAULT_ORDER,
    DIRICHLET,
    PERIODIC,
    Axis,
    ComplexField,
    GridSpec,
    RealField,
    box_reduce,
    diff_values,
    integrate_values,
    stencil_operator,
    stencil_reach,
)
from varq.solvers import (
    DensityFloorError,
    apply_hamiltonian,
    eigensolve_1d,
    propagate_madelung,
    propagate_wavefunction,
    quantization_route_report,
    vanishing_momentum_scenario,
    wall_violation,
)

from conftest import observed_order

HARMONIC = PhysicalParams(hbar=1.0, mass=1.0, potential=Harmonic(k=1.0))


def harmonic_grid(n=1024, half=10.0):
    return GridSpec.line(n, -half, half, DIRICHLET)


def displaced_gaussian(grid, center=1.0):
    x = grid.coordinates()[0]
    rho = np.exp(-((x - center) ** 2))
    return rho / integrate_values(rho, grid)


class TestEigensolve:
    def test_harmonic_ladder(self):
        spec = eigensolve_1d(HARMONIC, harmonic_grid(), k=5)
        expected = np.arange(5) + 0.5
        assert np.max(np.abs(spec.eigenvalues - expected)) < 1e-3

    def test_richardson_refinement(self):
        spec = eigensolve_1d(HARMONIC, harmonic_grid(), k=5, richardson=True)
        expected = np.arange(5) + 0.5
        coarse = np.max(np.abs(spec.eigenvalues - expected))
        refined = np.max(np.abs(spec.refined_eigenvalues - expected))
        assert refined < 1e-7
        assert refined < coarse / 100.0

    def test_richardson_solves_the_fine_grid_for_eigenvalues_only(
            self, monkeypatch):
        # the doubled grid's eigenvectors would be discarded
        import scipy.linalg

        solve = scipy.linalg.eigh_tridiagonal
        calls = []

        def recording(d, e, **kwargs):
            calls.append((d.size, kwargs["eigvals_only"]))
            return solve(d, e, **kwargs)

        monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", recording)
        spec = eigensolve_1d(HARMONIC, harmonic_grid(), k=5, richardson=True)
        assert calls == [(1022, False), (2045, True)]
        assert spec.refined_eigenvalues.shape == (5,)

    def test_operator_residuals(self):
        spec = eigensolve_1d(HARMONIC, harmonic_grid(), k=5)
        assert np.max(spec.residuals) < 1e-9

    def test_orthonormality(self):
        grid = harmonic_grid(512)
        spec = eigensolve_1d(HARMONIC, grid, k=4)
        w = grid.node_volumes()
        for i in range(4):
            for j in range(4):
                ip = float(np.sum(spec.eigenfunctions[i].values
                                  * spec.eigenfunctions[j].values * w))
                assert ip == pytest.approx(1.0 if i == j else 0.0, abs=1e-10)

    def test_hard_wall_box(self):
        grid = GridSpec.line(801, 0.0, 1.0, DIRICHLET)
        params = PhysicalParams(hbar=1.0, mass=1.0, potential=Harmonic(k=0.0))
        spec = eigensolve_1d(params, grid, k=3)
        expected = (np.arange(1, 4) * np.pi) ** 2 / 2.0
        assert np.max(np.abs(spec.eigenvalues - expected) / expected) < 1e-4
        x = grid.coordinates()[0]
        exact = np.sqrt(2.0) * np.sin(np.pi * x)
        assert np.max(np.abs(spec.eigenfunctions[0].values - exact)) < 1e-3

    @pytest.mark.parametrize("potential", [Harmonic(k=0.0),
                                           Harmonic(k=100.0, center=0.6)],
                             ids=["box", "trap-near-wall"])
    def test_residuals_are_read_on_the_unknowns(self, potential):
        # a free box, and a trap of width 0.32 centred 0.4 from the wall:
        # read on the one-sided wall rows of d2/dx2, which are no
        # equations of H, the box's residuals were 4.41, 8.80 and 13.17
        grid = GridSpec.line(64, -1.0, 1.0, DIRICHLET)
        params = PhysicalParams(hbar=1.0, mass=1.0, potential=potential)
        spec = eigensolve_1d(params, grid, k=3)
        assert np.all(spec.residuals <= 1e-10)

    def test_hamiltonian_is_the_interior_block(self):
        # -(hbar^2 / 2m dx^2)(1, -2, 1) + V on the six interior nodes of
        # eight: the wall nodes have neither a row nor a column
        grid = GridSpec((Axis(8, 0.0, 7.0),))
        params = PhysicalParams(hbar=2.0, mass=0.5,
                                potential=Harmonic(k=1.0, center=3.5))
        diag, off, wrap = solvers._hamiltonian_bands(params, grid)
        h = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        assert wrap == 0.0
        x = grid.coordinates()[0][1:-1]
        second = (np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
                  - 2.0 * np.eye(6))
        assert np.array_equal(h, -4.0 * second + np.diag((x - 3.5)**2 / 2.0))

    def test_sign_convention(self):
        grid = harmonic_grid(512)
        spec = eigensolve_1d(HARMONIC, grid, k=2)
        assert integrate_values(spec.eigenfunctions[0].values, grid) > 0
        psi1 = spec.eigenfunctions[1].values
        lobe = np.nonzero(np.abs(psi1) > 0.01 * np.abs(psi1).max())[0][0]
        assert psi1[lobe] > 0

    def test_rejects_periodic_grid(self):
        grid = GridSpec.line(64, 0.0, 1.0, PERIODIC)
        with pytest.raises(ValueError, match="Dirichlet"):
            eigensolve_1d(HARMONIC, grid, k=1)

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError, match="k must"):
            eigensolve_1d(HARMONIC, harmonic_grid(64), k=63)

    def test_level_1_converges_at_order_2(self):
        # the order-2 eigenvalue error falls as dx^2; a stencil or
        # boundary-row slip shows as a lower observed order
        grids = [GridSpec.line(n, -8.0, 8.0, DIRICHLET)
                 for n in (256, 512, 1024)]
        errors = [abs(eigensolve_1d(HARMONIC, g, k=2).eigenvalues[1] - 1.5)
                  for g in grids]
        spacings = [g.axes[0].dx for g in grids]
        assert observed_order(spacings, errors) == pytest.approx(2.0, abs=0.25)

    def test_plane_wave_symbol(self):
        # on a periodic grid the stencil has an exact dispersion relation
        grid = GridSpec.line(128, 0.0, 4.0, PERIODIC)
        x = grid.coordinates()[0]
        k = 2.0 * np.pi * 3 / 4.0
        psi = np.exp(1j * k * x)
        params = PhysicalParams(hbar=1.0, mass=1.0, potential=Harmonic(k=0.0))
        hpsi = apply_hamiltonian(psi, grid, params)
        dx = grid.axes[0].dx
        e_fd = (1.0 - np.cos(k * dx)) / dx**2
        assert np.max(np.abs(hpsi - e_fd * psi)) < 1e-11


class TestWavefunctionPropagation:
    def test_rejects_state_on_the_wall(self):
        grid = harmonic_grid(128, 3.0)
        x = grid.coordinates()[0]
        psi0 = ComplexField(grid, np.exp(-x * x / 4.0).astype(complex))
        assert wall_violation(psi0.values, grid) is not None
        with pytest.raises(ValueError, match="vanish on the hard wall"):
            propagate_wavefunction(psi0, HARMONIC, dt=1e-3, steps=1)
        periodic = GridSpec.line(128, -3.0, 3.0, PERIODIC)
        assert wall_violation(psi0.values, periodic) is None

    def test_eigenstate_is_stationary(self):
        grid = harmonic_grid(512, 8.0)
        spec = eigensolve_1d(HARMONIC, grid, k=1)
        psi0 = ComplexField(grid, spec.eigenfunctions[0].values.astype(complex))
        traj = propagate_wavefunction(psi0, HARMONIC, dt=1e-3, steps=500,
                                      store_every=500)
        rho0 = np.abs(traj.states[0].values) ** 2
        rho1 = np.abs(traj.states[-1].values) ** 2
        assert np.max(np.abs(rho1 - rho0)) < 1e-12

    def test_norm_preserved(self):
        grid = harmonic_grid(512, 6.0)
        rho = displaced_gaussian(grid)
        psi0 = ComplexField(grid, np.sqrt(rho).astype(complex))
        traj = propagate_wavefunction(psi0, HARMONIC, dt=1e-3, steps=1000,
                                      store_every=100)
        assert traj.norm_drift < 1e-12

    def test_coherent_center_oscillates(self):
        grid = harmonic_grid(512, 6.0)
        x = grid.coordinates()[0]
        rho = displaced_gaussian(grid)
        psi0 = ComplexField(grid, np.sqrt(rho).astype(complex))
        traj = propagate_wavefunction(psi0, HARMONIC, dt=1e-3, steps=1000,
                                      store_every=1000)
        rho1 = np.abs(traj.states[-1].values) ** 2
        center = integrate_values(rho1 * x, grid)
        assert center == pytest.approx(np.cos(1.0), abs=5e-4)

    def test_periodic_plane_wave_density_static(self):
        grid = GridSpec.line(128, 0.0, 4.0, PERIODIC)
        x = grid.coordinates()[0]
        k = 2.0 * np.pi * 3 / 4.0
        psi0 = ComplexField(grid, np.exp(1j * k * x) / 2.0)
        params = PhysicalParams(hbar=1.0, mass=1.0, potential=Harmonic(k=0.0))
        traj = propagate_wavefunction(psi0, params, dt=1e-3, steps=100,
                                      store_every=100)
        rho1 = np.abs(traj.states[-1].values) ** 2
        assert np.max(np.abs(rho1 - 0.25)) < 1e-12
        assert traj.norm_drift < 1e-12

    def test_rejects_wall_support(self):
        grid = GridSpec.line(256, -2.0, 2.0, DIRICHLET)
        x = grid.coordinates()[0]
        psi0 = ComplexField(grid, np.exp(-((x - 1.5) ** 2)).astype(complex))
        with pytest.raises(ValueError, match="hard wall"):
            propagate_wavefunction(psi0, HARMONIC, dt=1e-3, steps=1)

    def test_rejects_bad_step(self):
        grid = harmonic_grid(128, 4.0)
        rho = displaced_gaussian(grid, 0.0)
        psi0 = ComplexField(grid, np.sqrt(rho).astype(complex))
        with pytest.raises(ValueError, match="positive dt"):
            propagate_wavefunction(psi0, HARMONIC, dt=0.0, steps=5)

    @pytest.mark.parametrize("store_every", [0, -1])
    def test_rejects_bad_store_every(self, store_every):
        grid = harmonic_grid(128, 4.0)
        rho = displaced_gaussian(grid, 0.0)
        psi0 = ComplexField(grid, np.sqrt(rho).astype(complex))
        with pytest.raises(ValueError, match="store_every must be at least 1"):
            propagate_wavefunction(psi0, HARMONIC, dt=1e-3, steps=3,
                                   store_every=store_every)


class TestMadelungPropagation:
    def test_ground_state_is_stationary(self):
        grid = GridSpec.line(256, -4.0, 4.0, DIRICHLET)
        x = grid.coordinates()[0]
        rho = displaced_gaussian(grid, 0.0)
        state = MadelungState(RealField(grid, rho),
                              RealField(grid, np.zeros_like(x)))
        traj = propagate_madelung(state, HARMONIC, dt=1e-3, steps=200,
                                  store_every=200)
        drift = np.abs(traj.states[-1].density.values - rho)
        assert np.max(drift) < 1e-12
        # the action accumulates at minus the ground energy everywhere
        s_end = traj.states[-1].action.values
        assert np.max(np.abs(s_end + 0.5 * 0.2)) < 1e-8
        assert abs(traj.mass_drift[-1]) < 1e-12

    def test_coherent_state_matches_closed_form(self):
        grid = harmonic_grid(256, 6.0)
        x = grid.coordinates()[0]
        rho0 = np.exp(-((x - 1.0) ** 2))
        z = integrate_values(rho0, grid)
        state = MadelungState(RealField(grid, rho0 / z),
                              RealField(grid, np.zeros_like(x)))
        traj = propagate_madelung(state, HARMONIC, dt=1e-3, steps=500,
                                  store_every=500)
        t = 0.5
        rho_exact = np.exp(-((x - np.cos(t)) ** 2)) / z
        s_exact = -x * np.sin(t) + 0.25 * np.sin(2.0 * t) - 0.5 * t
        assert np.max(np.abs(traj.states[-1].density.values - rho_exact)) < 1e-12
        assert np.max(np.abs(traj.states[-1].action.values - s_exact)) < 1e-5

    def test_cross_validates_against_unitary_solver(self):
        grid = harmonic_grid(512, 6.0)
        rho0 = displaced_gaussian(grid)
        x = grid.coordinates()[0]
        state = MadelungState(RealField(grid, rho0),
                              RealField(grid, np.zeros_like(x)))
        traj_m = propagate_madelung(state, HARMONIC, dt=1e-3, steps=500,
                                    store_every=500)
        psi0 = ComplexField(grid, np.sqrt(rho0).astype(complex))
        traj_c = propagate_wavefunction(psi0, HARMONIC, dt=1e-3, steps=500,
                                        store_every=500)
        rho_m = traj_m.states[-1].density.values
        rho_c = np.abs(traj_c.states[-1].values) ** 2
        l2 = np.sqrt(integrate_values((rho_m - rho_c) ** 2, grid))
        assert l2 < 1e-4

    def test_cross_validates_anharmonic(self):
        # quartic correction: no longer exactly representable in log space,
        # so both routes carry genuine discretization error
        grid = GridSpec.line(512, -5.0, 5.0, DIRICHLET)
        x = grid.coordinates()[0]
        params = PhysicalParams(
            hbar=1.0, mass=1.0, potential=Polynomial((0, 0, 0.5, 0, 0.02)))
        rho0 = np.exp(-((x - 0.5) ** 2))
        rho0 /= integrate_values(rho0, grid)
        state = MadelungState(RealField(grid, rho0),
                              RealField(grid, np.zeros_like(x)))
        traj_m = propagate_madelung(state, params, dt=1e-3, steps=300,
                                    store_every=300)
        psi0 = ComplexField(grid, np.sqrt(rho0).astype(complex))
        traj_c = propagate_wavefunction(psi0, params, dt=1e-3, steps=300,
                                        store_every=300)
        rho_m = traj_m.states[-1].density.values
        rho_c = np.abs(traj_c.states[-1].values) ** 2
        l2 = np.sqrt(integrate_values((rho_m - rho_c) ** 2, grid))
        assert l2 < 1e-4

    def test_uniform_periodic_state_static(self):
        grid = GridSpec.line(128, 0.0, 5.0, PERIODIC)
        state = MadelungState(RealField(grid, np.full(128, 0.2)),
                              RealField(grid, np.zeros(128)))
        params = PhysicalParams(hbar=1.0, mass=1.0, potential=Harmonic(k=0.0))
        traj = propagate_madelung(state, params, dt=1e-2, steps=50,
                                  store_every=50)
        assert np.max(np.abs(traj.states[-1].density.values - 0.2)) == 0.0
        assert np.max(np.abs(traj.states[-1].action.values)) < 1e-12

    def test_node_formation_aborts(self):
        # 90/10 mix of the two lowest levels in quadrature develops a real
        # zero near t = pi/2; the run must stop with diagnostics, not NaNs
        grid = harmonic_grid(512, 6.0)
        x = grid.coordinates()[0]
        psi0 = np.exp(-x * x / 2.0) / np.pi**0.25
        psi1 = np.sqrt(2.0) * x * psi0
        rho = 0.9 * psi0**2 + 0.1 * psi1**2
        rho /= integrate_values(rho, grid)
        s = np.arctan2(np.sqrt(0.1) * psi1, np.sqrt(0.9) * psi0)
        state = MadelungState(RealField(grid, rho), RealField(grid, s))
        with pytest.raises(DensityFloorError) as err:
            propagate_madelung(state, HARMONIC, dt=0.01, steps=300)
        assert 1.0 < err.value.time < 2.0

    def test_rejects_zero_density(self):
        grid = GridSpec.line(128, -4.0, 4.0, DIRICHLET)
        x = grid.coordinates()[0]
        rho = np.maximum(np.exp(-x * x) - 1e-4, 0.0)
        state = MadelungState(RealField(grid, rho),
                              RealField(grid, np.zeros_like(x)))
        with pytest.raises(ValueError, match="touches zero"):
            propagate_madelung(state, HARMONIC, dt=1e-3, steps=1)

    def test_rejects_bad_step(self):
        grid = GridSpec.line(128, -4.0, 4.0, DIRICHLET)
        rho = displaced_gaussian(grid, 0.0)
        state = MadelungState(RealField(grid, rho),
                              RealField(grid, np.zeros(128)))
        with pytest.raises(ValueError, match="positive dt"):
            propagate_madelung(state, HARMONIC, dt=1e-3, steps=0)

    @pytest.mark.parametrize("store_every", [0, -1])
    def test_rejects_bad_store_every(self, store_every):
        grid = GridSpec.line(128, -4.0, 4.0, DIRICHLET)
        rho = displaced_gaussian(grid, 0.0)
        state = MadelungState(RealField(grid, rho),
                              RealField(grid, np.zeros(128)))
        with pytest.raises(ValueError, match="store_every must be at least 1"):
            propagate_madelung(state, HARMONIC, dt=1e-3, steps=3,
                               store_every=store_every)

    def test_substep_override(self):
        grid = GridSpec.line(128, -4.0, 4.0, DIRICHLET)
        rho = displaced_gaussian(grid, 0.0)
        state = MadelungState(RealField(grid, rho),
                              RealField(grid, np.zeros(128)))
        traj = propagate_madelung(state, HARMONIC, dt=1e-4, steps=5,
                                  substeps=7)
        assert traj.substeps_per_step == 7

    def test_2d_separable_state_is_the_sum_of_two_1d_runs(self):
        # ln rho = a(x) + b(y) and S = c(x) + d(y) in V = (x^2 + y^2)/2:
        # every RHS term is a sum over axes, so each RK4 stage splits too
        grid = GridSpec.square(96, -4.0, 4.0, PERIODIC)
        line = GridSpec((grid.axes[0],))
        x = line.coordinates()[0]
        k = np.pi / 4.0
        a, c = 1.5 * np.cos(k * x), 0.3 * np.sin(k * x)
        b = 0.8 * np.sin(k * x) + 0.4 * np.cos(2.0 * k * x)
        d = 0.2 * np.cos(k * x)

        def run(g, log_rho, s):
            state = MadelungState(RealField(g, np.exp(log_rho)),
                                  RealField(g, s))
            end = propagate_madelung(state, HARMONIC, dt=1e-2, steps=10,
                                     store_every=10, substeps=8).states[-1]
            return np.log(end.density.values), end.action.values

        lr2, s2 = run(grid, a[:, None] + b[None, :], c[:, None] + d[None, :])
        (lra, sa), (lrb, sb) = run(line, a, c), run(line, b, d)
        assert np.max(np.abs(lr2 - (lra[:, None] + lrb[None, :]))) < 1e-12
        assert np.max(np.abs(s2 - (sa[:, None] + sb[None, :]))) < 1e-12

    def test_wall_tail_abort_names_the_wall_and_a_nonzero_depth(self):
        # the squeezed packet's far-wall tail starts so far down that its
        # dip underflows exp; the message reads the depth from ln rho
        grid = harmonic_grid(512, 6.0)
        x = grid.coordinates()[0]
        params = PhysicalParams(potential=Harmonic(k=1.5))
        rho = np.exp(-((x - 1.0) ** 2) / (2.0 * 0.64 * 0.5 / np.sqrt(1.5)))
        rho /= integrate_values(rho, grid)
        state = MadelungState(RealField(grid, rho),
                              RealField(grid, np.zeros_like(x)))
        with pytest.raises(DensityFloorError) as err:
            propagate_madelung(state, params, dt=1e-3, steps=100)
        message = str(err.value)
        reach = stencil_reach(grid.axes[0], 4)
        assert min(err.value.node, 511 - err.value.node) <= reach
        assert "a wall tail broke up" in message
        assert "density dipped to 10^-" in message
        assert "0.000e+00" not in message


def rhs_from_two_products(u, grid, params, v):
    """The fields route's RHS with each derivative from its own
    Stencil.apply, over its own divisor: the unfolded formula, summed in
    the order _madelung_rhs adds the terms."""
    out = -1j * (v / params.hbar)
    for ax, axis in enumerate(grid.axes):
        d1 = stencil_operator(axis, 4, 1).apply(u, ax)
        out = out + (0.5j * params.hbar / params.mass_along(ax)) * (
            stencil_operator(axis, 4, 2).apply(u, ax) + d1 * d1)
    return out


def numerator_product(numerators, u, ax):
    """numerators times u along axis ax, as Stencil.apply takes it but
    with complex data built from the operator's own arrays (so each row
    sums in its stored order) and no divisor."""
    from scipy import sparse

    op = sparse.csr_array((numerators.data.astype(complex),
                           numerators.indices, numerators.indptr),
                          shape=numerators.shape)
    front = u.swapaxes(0, ax)
    out = op @ front.reshape(len(front), -1)
    return out.reshape(front.shape).swapaxes(0, ax)


def folded_rhs(u, grid, params, v):
    """The fields route's RHS folded to one scale per axis, from the
    stencils' own numerators: kappa ((N1 u)^2 + d N2 u) with
    kappa = (i hbar / 2m) / (d dx) / (d dx), added to -i V/hbar in axis
    order."""
    out = -1j * (v / params.hbar)
    for ax, axis in enumerate(grid.axes):
        first, second = (stencil_operator(axis, DEFAULT_ORDER, d)
                         for d in (1, 2))
        p = numerator_product(first.numerators, u, ax)
        q = numerator_product(second.denominator * second.numerators, u, ax)
        kappa = (0.5j * params.hbar / params.mass_along(ax) / first.divisor
                 / first.divisor)
        out = out + kappa * (q + p * p)
    return out


def madelung_rhs(u, grid, params, v):
    return solvers._madelung_rhs(u, solvers._rhs_operators(grid), params,
                                 -1j * (v / params.hbar),
                                 out=np.empty(grid.shape, complex))


@pytest.mark.parametrize("grid, mass", [
    (GridSpec.line(40, -3.0, 2.0, DIRICHLET), 0.7),
    (GridSpec.line(33, 0.0, 5.0, PERIODIC), 1.3),
    (GridSpec((Axis(20, -2.0, 2.0, DIRICHLET),
               Axis(27, 0.0, 3.0, PERIODIC))), (0.6, 2.1)),
], ids=["1d-dirichlet", "1d-periodic", "2d"])
def test_stacked_rhs_is_bit_identical_to_two_stencil_products(grid, mass):
    rng = np.random.default_rng(7)
    params = PhysicalParams(hbar=0.9, mass=mass)
    u = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    v = rng.normal(size=grid.shape)
    assert np.array_equal(madelung_rhs(u, grid, params, v),
                          folded_rhs(u, grid, params, v))


@st.composite
def fold_cases(draw):
    """A 1D or 2D grid of 8-40 points per axis (each axis its own span
    and boundary), a drawn hbar and masses, and a seed for the fields."""
    axes = tuple(
        Axis(draw(st.integers(8, 40)), -draw(st.floats(0.1, 20.0)),
             draw(st.floats(0.1, 20.0)),
             draw(st.sampled_from([PERIODIC, DIRICHLET])))
        for _ in range(draw(st.integers(1, 2))))
    masses = tuple(draw(st.floats(0.1, 10.0)) for _ in axes)
    params = PhysicalParams(hbar=draw(st.floats(0.1, 10.0)),
                            mass=masses if len(axes) == 2 else masses[0])
    return GridSpec(axes), params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(fold_cases())
def test_folded_rhs_matches_the_unfolded_formula_to_roundoff(case):
    # Per axis both formulas round each of at most w = DEFAULT_ORDER + 2
    # products of a row and its w - 1 additions (gamma_w of the row's
    # absolute sum A = |N1| |u| or B = |N2| |u|); the square doubles that
    # relative error and adds two roundings. The unfolded formula divides
    # each half (two roundings each), adds, and rounds c = i hbar / 2m
    # once and c times the sum once: 2(w + 2) + 2 + 1 + 2 = 2w + 9. The
    # folded one adds, rounds kappa thrice and kappa times the sum once:
    # 2w + 2 + 1 + 3 + 1 = 2w + 7. Both add the axes' terms to the
    # drive, one rounding each. So they differ by at most
    # (4w + 16 + 2 dim) eps/2 of M = |V|/hbar + sum over axes of
    # |c| (B / (d dx^2) + (A / (d dx))^2).
    grid, params, seed = case
    rng = np.random.default_rng(seed)
    u = rng.normal(0.0, 3.0, grid.shape) + 1j * rng.normal(0.0, 3.0,
                                                          grid.shape)
    v = rng.normal(0.0, 3.0, grid.shape)
    got = madelung_rhs(u, grid, params, v)
    scale = np.abs(v) / params.hbar
    for ax, axis in enumerate(grid.axes):
        first, second = (stencil_operator(axis, DEFAULT_ORDER, d)
                         for d in (1, 2))
        # abs() sorts a matrix's indices in place, so it takes a copy: the
        # cached stencils are read-only
        a, b = (numerator_product(abs(op.numerators.copy()), np.abs(u),
                                  ax).real / op.divisor
                for op in (first, second))
        scale = scale + 0.5 * params.hbar / params.mass_along(ax) * (
            b + a * a)
    rounds = 4 * (DEFAULT_ORDER + 2) + 16 + 2 * grid.dimension
    bound = rounds * np.finfo(float).eps / 2 * (1.0 + 1e-9) * scale
    diff = got - rhs_from_two_products(u, grid, params, v)
    assert np.all(np.abs(diff.real) <= bound)
    assert np.all(np.abs(diff.imag) <= bound)


@pytest.mark.parametrize("bad", [
    np.inf, -np.inf, np.nan, complex(np.inf, 2.0), complex(2.0, np.inf),
    complex(2.0, -np.inf), complex(np.nan, 0.0), complex(0.0, np.nan)],
    ids=["inf", "-inf", "nan", "inf+2j", "2+infj", "2-infj", "nan+0j",
         "0+nanj"])
@pytest.mark.parametrize("grid, mass", [
    (GridSpec.line(40, -3.0, 2.0, DIRICHLET), 0.7),
    (GridSpec((Axis(20, -2.0, 2.0, DIRICHLET),
               Axis(27, 0.0, 3.0, PERIODIC))), (0.6, 2.1)),
], ids=["1d-dirichlet", "2d"])
def test_non_finite_u_gives_a_non_finite_rhs_at_its_node(grid, mass, bad):
    # the stacked product meets no division: one complex scale kappa
    # multiplies (N1 u)^2 + d N2 u, and a complex multiply can leave one
    # part of a non-finite entry finite (inf + 2j does); the real part
    # must still go non-finite at the node, or the isfinite check of
    # propagate_madelung's ln rho would not fire
    params = PhysicalParams(hbar=0.9, mass=mass)
    ops = solvers._rhs_operators(grid)
    for node in (0, 5, grid.n_nodes - 1):
        u = np.full(grid.shape, 0.1 + 0.2j)
        u.flat[node] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            got = solvers._madelung_rhs(u, ops, params,
                                        np.zeros(grid.shape, complex),
                                        out=np.empty(grid.shape, complex))
        assert not np.isfinite(got.flat[node].real)


RHS_GRIDS = [
    (GridSpec.line(40, -3.0, 2.0, DIRICHLET), 0.7),
    (GridSpec.line(33, 0.0, 5.0, PERIODIC), 1.3),
    (GridSpec((Axis(20, -2.0, 2.0, DIRICHLET),
               Axis(27, 0.0, 3.0, PERIODIC))), (0.6, 2.1)),
]
RHS_IDS = ["1d-dirichlet", "1d-periodic", "2d"]


def same_bits(a, b):
    return np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("grid, mass", RHS_GRIDS, ids=RHS_IDS)
def test_stacked_operator_keeps_the_stencils_entry_order(grid, mass):
    # a sorted copy (what astype makes) sums each row in another order
    from scipy import sparse

    for ax, (stacked, *_) in enumerate(solvers._rhs_operators(grid)):
        first, second = (stencil_operator(grid.axes[ax], DEFAULT_ORDER, d)
                         for d in (1, 2))
        ref = sparse.vstack(
            [first.numerators, second.denominator * second.numerators],
            format="csr")
        assert stacked.dtype == complex
        assert np.array_equal(stacked.indices, ref.indices)
        assert np.array_equal(stacked.indptr, ref.indptr)
        assert np.array_equal(stacked.data, ref.data)


@pytest.mark.parametrize("bad", [
    np.inf, -np.inf, np.nan, complex(np.inf, 2.0), complex(2.0, np.inf),
    complex(2.0, -np.inf), complex(np.nan, 0.0), complex(0.0, np.nan)],
    ids=["inf", "-inf", "nan", "inf+2j", "2+infj", "2-infj", "nan+0j",
         "0+nanj"])
@pytest.mark.parametrize("grid, mass", [RHS_GRIDS[0], RHS_GRIDS[2]],
                         ids=["1d-dirichlet", "2d"])
def test_non_finite_u_written_into_out_is_non_finite_at_its_node(grid, mass,
                                                                 bad):
    # the RK4 loop reuses its slope arrays, so what a call left in out,
    # non-finite values included, must never reach the next call's bits
    params = PhysicalParams(hbar=0.9, mass=mass)
    ops = solvers._rhs_operators(grid)
    drive = np.zeros(grid.shape, complex)
    buf = np.empty(grid.shape, complex)
    for node in (0, 5, grid.n_nodes - 1):
        u = np.full(grid.shape, 0.1 + 0.2j)
        u.flat[node] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            solvers._madelung_rhs(u, ops, params, drive, out=buf)
            fresh = solvers._madelung_rhs(u, ops, params, drive,
                                          out=np.zeros(grid.shape, complex))
        assert not np.isfinite(buf.flat[node].real)
        assert same_bits(buf, fresh)


def smooth_start(grid):
    """A positive density with a moving, curved phase on any 1D or 2D
    grid: a Gaussian in each hard-wall coordinate, a cosine bump in each
    periodic one."""
    log_rho = np.zeros(grid.shape)
    s = np.zeros(grid.shape)
    for x, axis in zip(grid.meshes(), grid.axes):
        if axis.boundary == PERIODIC:
            phase = 2.0 * np.pi * (x - axis.x_min) / axis.span
            log_rho = log_rho + 0.3 * np.cos(phase)
            s = s + 0.2 * np.sin(phase)
        else:
            log_rho = log_rho - (x - 0.2) ** 2
            s = s + 0.4 * x - 0.1 * x * x
    return MadelungState(RealField(grid, np.exp(log_rho)), RealField(grid, s))


@pytest.mark.parametrize("grid, mass", RHS_GRIDS, ids=RHS_IDS)
def test_in_place_rk4_matches_a_textbook_loop_bit_for_bit(grid, mass):
    # every stored state is compared, so none may alias the advancing u
    params = PhysicalParams(hbar=0.9, mass=mass, potential=Harmonic(k=0.8))
    state = smooth_start(grid)
    dt, steps, substeps = 2e-3, 12, 3
    traj = propagate_madelung(state, params, dt=dt, steps=steps,
                              store_every=1, substeps=substeps)
    v = potential_values(params.potential, grid)

    def rhs(z):
        return folded_rhs(z, grid, params, v)

    h = dt / substeps
    u = (0.5 * np.log(state.density.values)
         + 1j * (state.action.values / params.hbar))
    expected = [(state.density.values, state.action.values)]
    for _ in range(steps):
        for _ in range(substeps):
            k1 = rhs(u)
            k2 = rhs(u + 0.5 * h * k1)
            k3 = rhs(u + 0.5 * h * k2)
            k4 = rhs(u + h * k3)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expected.append((np.exp(2.0 * u.real), params.hbar * u.imag))
    assert len(traj.states) == len(expected) == steps + 1
    for got, (rho, s) in zip(traj.states, expected):
        assert same_bits(got.density.values, rho)
        assert same_bits(got.action.values, s)


@pytest.mark.parametrize("substeps", [None, 3])
def test_each_rk4_stage_counts_one_rhs_evaluation(monkeypatch, substeps):
    # the benchmark tracer's solvers.rhs_evals reads this module-level name
    calls = []
    rhs = solvers._madelung_rhs

    def counted(*args, **kwargs):
        calls.append(1)
        return rhs(*args, **kwargs)

    monkeypatch.setattr(solvers, "_madelung_rhs", counted)
    grid = harmonic_grid(128, 6.0)
    traj = propagate_madelung(smooth_start(grid), HARMONIC, dt=1e-3, steps=5,
                              store_every=2, substeps=substeps)
    assert traj.substeps_per_step >= 1
    assert len(calls) == 4 * traj.substeps_per_step * 5


@st.composite
def rk4_runs(draw):
    """A 1D or 2D grid of 8-48 points per axis (each axis its own span
    and boundary), a trap with its own hbar and masses, and 1-4
    substeps."""
    axes = tuple(
        Axis(draw(st.integers(8, 48)), -draw(st.floats(1.5, 3.0)),
             draw(st.floats(1.5, 3.0)),
             draw(st.sampled_from([PERIODIC, DIRICHLET])))
        for _ in range(draw(st.integers(1, 2))))
    masses = tuple(draw(st.floats(0.3, 3.0)) for _ in axes)
    params = PhysicalParams(hbar=draw(st.floats(0.3, 3.0)),
                            mass=masses if len(axes) == 2 else masses[0],
                            potential=Harmonic(k=draw(st.floats(0.0, 2.0))))
    return GridSpec(axes), params, draw(st.integers(1, 4))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(rk4_runs())
def test_rk4_loop_matches_the_textbook_formula_on_drawn_runs(run):
    # the substep loop inlines its stage inputs and slope sum and holds
    # its step constants as 0-d complex arrays; every stored state must
    # keep the textbook formula's bits
    grid, params, substeps = run
    state = smooth_start(grid)
    steps = 4
    # half the RK4 stability limit per substep, so no run blows up
    dt = 1.4 * substeps / solvers._stiffest_rate(state, params)
    traj = propagate_madelung(state, params, dt=dt, steps=steps,
                              store_every=1, substeps=substeps)
    v = potential_values(params.potential, grid)
    h = dt / substeps
    u = (0.5 * np.log(state.density.values)
         + 1j * (state.action.values / params.hbar))
    expected = [(state.density.values, state.action.values)]
    for _ in range(steps):
        for _ in range(substeps):
            k1 = folded_rhs(u, grid, params, v)
            k2 = folded_rhs(u + 0.5 * h * k1, grid, params, v)
            k3 = folded_rhs(u + 0.5 * h * k2, grid, params, v)
            k4 = folded_rhs(u + h * k3, grid, params, v)
            u = u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        expected.append((np.exp(2.0 * u.real), params.hbar * u.imag))
    assert len(traj.states) == len(expected)
    for got, (rho, s) in zip(traj.states, expected):
        assert same_bits(got.density.values, rho)
        assert same_bits(got.action.values, s)


def test_rhs_operators_are_built_once_per_grid(monkeypatch):
    from scipy import sparse

    builds = []
    vstack = sparse.vstack

    def counted(blocks, **kwargs):
        builds.append(1)
        return vstack(blocks, **kwargs)

    monkeypatch.setattr(sparse, "vstack", counted)
    solvers._rhs_operators.cache_clear()
    (line, _), _, (pair, _) = RHS_GRIDS
    # one stacked operator per axis, on the first run on each grid only
    for grid, built in [(line, 1), (line, 0), (pair, 2)]:
        builds.clear()
        propagate_madelung(smooth_start(grid), HARMONIC, dt=1e-4, steps=2,
                           substeps=1)
        assert len(builds) == built
    for grid in (line, pair):
        for stacked, *_ in solvers._rhs_operators(grid):
            for array in (stacked.data, stacked.indices, stacked.indptr):
                assert not array.flags.writeable


def rk4_factor(z):
    return 1.0 + z + z * z / 2.0 + z**3 / 6.0 + z**4 / 24.0


@pytest.mark.parametrize("k, factor, center", [
    (1.0, 1.0, 1.0), (1.25, 0.9, 1.25), (1.25, 0.9, -1.25)])
def test_stability_rate_bounds_the_measured_spectrum(k, factor, center):
    # the dense Jacobian of the RHS, i (hbar/2m)(D2 + 2 diag(D1 u) D1)
    # with the one-sided wall rows, on the criterion-8 packet and the
    # corners of the propagate benchmark's box
    grid = harmonic_grid(512, 6.0)
    axis = grid.axes[0]
    x = grid.coordinates()[0]
    params = PhysicalParams(potential=Harmonic(k=k))
    rho = np.exp(-((x - center) ** 2)
                 / (2.0 * factor**2 * 0.5 / np.sqrt(k)))
    state = MadelungState(RealField(grid, rho / integrate_values(rho, grid)),
                          RealField(grid, np.zeros_like(x)))
    first, second = (stencil_operator(axis, 4, d) for d in (1, 2))
    d1 = first.numerators.toarray() / first.divisor
    d2 = second.numerators.toarray() / second.divisor
    u = 0.5 * np.log(state.density.values)
    jac = 0.5j * (d2 + 2.0 * (d1 @ u)[:, None] * d1)
    lam = np.linalg.eigvals(jac)
    radius = float(np.max(np.abs(lam)))
    dt = 1e-3
    count = solvers.stability_substeps(state, params, dt)
    assert solvers._stiffest_rate(state, params) >= radius
    assert dt / count * radius <= solvers._CFL_MARGIN < 2.0 * np.sqrt(2.0)

    def per_step(substeps):
        return np.max(np.abs(rk4_factor(dt / substeps * lam))) ** substeps

    assert per_step(count) <= per_step(count + 1)


@pytest.fixture(scope="module")
def result():
    return vanishing_momentum_scenario(HARMONIC, harmonic_grid(512, 8.0),
                                       k=3, steps=50)


class TestVanishingMomentumScenario:
    def test_energies(self, result):
        expected = np.arange(3) + 0.5
        energies = [r.energy for r in result.reports]
        assert np.max(np.abs(energies - expected)) < 1e-3

    def test_stationarity_identity(self, result):
        # V + Q - E vanishes at the stencil level away from walls and nodes
        for rep in result.reports:
            assert rep.hj_residual_max < 1e-8

    def test_density_static_under_unitary_flow(self, result):
        for rep in result.reports:
            assert rep.density_rate_max < 1e-9

    def test_momentum_field_flat(self, result):
        for rep in result.reports:
            assert rep.momentum_gradient_max == 0.0
            assert rep.multiplier == 0.0

    def test_branch_classification(self, result):
        for rep in result.reports:
            assert rep.branch == "nontrivial"
            assert rep.density_gradient_scale > 1.0

    def test_uniform_branch(self, result):
        triv = result.trivial
        assert triv.branch == "trivial"
        assert triv.hj_residual_max == 0.0
        assert triv.continuity_residual_max == 0.0
        assert triv.density_rate_max == 0.0
        assert triv.density_gradient_scale < 1e-12

    def test_route_comparison(self, result):
        report = quantization_route_report(result)
        ground = report.rows[0]
        # |p psi| = sqrt(2 m <K>) = sqrt(1/2) for the ground state
        assert ground.momentum_norm == pytest.approx(np.sqrt(0.5), abs=1e-3)
        assert ground.amplitude_momentum_norm == pytest.approx(
            ground.momentum_norm, abs=1e-9)
        for row in report.rows:
            assert row.momentum_norm > 0.1
            assert row.classical_momentum_norm == 0.0
            assert row.nonlinear_residual_max == 0.0
            assert row.energy_gap < 1e-9
        assert report.nonlinear_ok
        assert report.trivial_momentum_norm == 0.0

    def test_zero_columns_are_computed_from_the_state(self, monkeypatch):
        # a derivative that is off by one everywhere must show in every
        # column that reads 0 on (psi, S = 0): none of them is typed in
        from varq import action

        def shifted(values, *args, **kwargs):
            return diff_values(values, *args, **kwargs) + 1.0

        monkeypatch.setattr(solvers, "diff_values", shifted)
        monkeypatch.setattr(action, "diff_values", shifted)
        off = vanishing_momentum_scenario(HARMONIC, harmonic_grid(128, 8.0),
                                          k=1, steps=2)
        routes = quantization_route_report(off)
        assert off.trivial.continuity_residual_max == pytest.approx(1.0)
        assert off.trivial.momentum_gradient_max == pytest.approx(1.0)
        # hbar |1| over the flat line of length 10
        assert routes.trivial_momentum_norm == pytest.approx(np.sqrt(10.0))
        ground = routes.rows[0]
        # sqrt(integral rho * 1^2) of a normalized density
        assert ground.classical_momentum_norm == pytest.approx(1.0)
        assert ground.nonlinear_residual_max == pytest.approx(2.0)


@pytest.mark.parametrize("points, half, k, potential", [
    (1024, 10.0, 5, Harmonic(k=1.3, center=0.7)),
    (512, 8.0, 3, Harmonic(k=0.6, center=-0.9)),
    (257, 6.0, 8, Harmonic()),
    (64, 5.0, 4, Harmonic()),
])
def test_block_run_is_bit_identical_to_single_state_runs(points, half, k,
                                                          potential):
    # the scenario advances every eigenstate as a column of one block;
    # each column, and the density rate read off it, must carry the
    # floats of that eigenstate's own propagate_wavefunction run
    params = PhysicalParams(hbar=1.0, mass=1.0, potential=potential)
    grid = harmonic_grid(points, half)
    dt, steps = 1e-3, 200
    spec = eigensolve_1d(params, grid, k)
    block = np.stack([psi.values for psi in spec.eigenfunctions],
                     axis=1).astype(complex)
    *_, (last, end) = solvers._crank_nicolson(block, grid, params, dt,
                                              steps, steps)
    assert last == steps and end.shape == (points - 2, k)
    reports = vanishing_momentum_scenario(params, grid, k, dt, steps).reports
    for j, psi in enumerate(spec.eigenfunctions):
        single = propagate_wavefunction(ComplexField(grid, block[:, j]),
                                        params, dt, steps, store_every=steps)
        final = single.states[-1].values
        assert np.array_equal(end[:, j], final[1:-1])
        rate = float(np.max(np.abs(np.abs(final) ** 2 - psi.values**2))
                     / (steps * dt))
        assert reports[j].density_rate_max == rate


# unit roundoff of a float64
UNIT_ROUNDOFF = np.finfo(float).eps / 2.0


def unknowns_hamiltonian(params, grid):
    """Dense H on a 1D solver's unknowns, one column per unit vector
    through apply_hamiltonian, the apply independent of the bands."""
    inner = (slice(None) if grid.axes[0].boundary == PERIODIC
             else slice(1, -1))
    return np.stack([apply_hamiltonian(e, grid, params)[inner]
                     for e in np.eye(grid.shape[0])[inner]], axis=1)


def crank_nicolson_roundoff(params, grid, dt, steps):
    """Bound on what roundoff may move a Crank-Nicolson run, per unit of
    the starting norm, after each step: A = I + i dt H / 2 hbar has
    singular values between 1 and sqrt(1 + (dt |H| / 2 hbar)^2), with |H|
    at most max|V| + 2 hbar^2 / (m dx^2) by Gershgorin. A backward-stable
    tridiagonal solve moves its solution by at most cond(A) times about
    n u; a step doubles it and subtracts, and the errors of the steps
    add, with a factor 4 for the slack in "about"."""
    dx = grid.axes[0].dx
    h_norm = (np.max(np.abs(potential_values(params.potential, grid)))
              + 2.0 * params.hbar**2 / (params.mass_along(0) * dx * dx))
    cond = np.sqrt(1.0 + (dt * h_norm / (2.0 * params.hbar))**2)
    n = grid.shape[0]
    return (4.0 * 2.0 * n * UNIT_ROUNDOFF * cond * np.arange(steps + 1),
            h_norm)


@st.composite
def cyclic_runs(draw):
    """A random state on a periodic line of 8-64 points with a trap and
    a few steps."""
    length = draw(st.floats(0.5, 20.0))
    params = PhysicalParams(
        hbar=draw(st.floats(0.3, 3.0)), mass=draw(st.floats(0.3, 3.0)),
        potential=Harmonic(k=draw(st.floats(0.0, 10.0)),
                           center=draw(st.floats(0.0, length))))
    grid = GridSpec.line(draw(st.integers(8, 64)), 0.0, length, PERIODIC)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = (rng.standard_normal(grid.shape)
           + 1j * rng.standard_normal(grid.shape))
    return (params, ComplexField(grid, psi),
            draw(st.floats(1e-4, 1.0)), draw(st.integers(1, 6)))


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(cyclic_runs())
def test_periodic_steps_match_a_dense_crank_nicolson(run):
    # the tridiagonal solve plus the Sherman-Morrison correction for the
    # corner against np.linalg.solve on the full cyclic matrix
    params, psi0, dt, steps = run
    grid = psi0.grid
    h = unknowns_hamiltonian(params, grid)
    z = 0.5j * dt / params.hbar
    eye = np.eye(grid.shape[0])
    traj = propagate_wavefunction(psi0, params, dt, steps)
    bound, _ = crank_nicolson_roundoff(params, grid, dt, steps)
    scale = np.linalg.norm(psi0.values)
    ref = psi0.values
    for step in range(1, steps + 1):
        ref = np.linalg.solve(eye + z * h, (eye - z * h) @ ref)
        gap = np.linalg.norm(traj.states[step].values - ref)
        assert gap <= bound[step] * scale


@pytest.mark.parametrize("boundary", [DIRICHLET, PERIODIC])
def test_crank_nicolson_conserves_norm_and_energy(boundary):
    # the implicit midpoint rule keeps every quadratic invariant of a
    # Hermitian H: the norm and <psi, H psi> move by roundoff alone
    grid = GridSpec.line(256, -6.0, 6.0, boundary)
    x = grid.coordinates()[0]
    params = PhysicalParams(hbar=1.0, mass=1.0,
                            potential=Harmonic(k=1.0, center=0.3))
    # a moving packet, so that the density does change
    psi0 = ComplexField(grid, np.exp(-(x - 1.0)**2 + 2j * x))
    dt, steps = 1e-2, 400
    bound, h_norm = crank_nicolson_roundoff(params, grid, dt, steps)
    traj = propagate_wavefunction(psi0, params, dt, steps)
    inner = solvers._unknowns(grid)
    h = unknowns_hamiltonian(params, grid)
    states = np.array([s.values[inner] for s in traj.states])
    norms = np.einsum("sj,sj->s", states.conj(), states).real
    energies = np.einsum("sj,jk,sk->s", states.conj(), h, states).real
    start = norms[0]
    # |psi|^2 moves by at most twice the state's move, <psi, H psi> by
    # twice that times |H|
    assert np.all(np.abs(norms - norms[0]) <= 2.0 * bound * start)
    assert np.all(np.abs(energies - energies[0])
                  <= 2.0 * h_norm * bound * start)
    moved = np.abs(states[-1])**2 - np.abs(states[0])**2
    assert np.max(np.abs(moved)) > 0.1 * np.max(np.abs(states[0])**2)


@pytest.mark.parametrize("k", [1, 5])
def test_vanishing_momentum_factors_crank_nicolson_once(monkeypatch, k):
    # _crank_nicolson imports zgttrf inside the function, so the patch holds
    from scipy.linalg import lapack

    calls = []
    zgttrf = lapack.zgttrf

    def counted(*args, **kwargs):
        calls.append(1)
        return zgttrf(*args, **kwargs)

    monkeypatch.setattr(lapack, "zgttrf", counted)
    vanishing_momentum_scenario(HARMONIC, harmonic_grid(128, 8.0), k=k,
                                steps=2)
    assert len(calls) == 1


def test_block_run_checks_every_column_on_the_wall():
    grid = harmonic_grid(128, 3.0)
    x = grid.coordinates()[0]
    good = np.exp(-4.0 * x * x)
    block = np.stack([good, np.exp(-x * x / 4.0)], axis=1).astype(complex)
    with pytest.raises(ValueError, match="vanish on the hard wall"):
        next(solvers._crank_nicolson(block, grid, HARMONIC, 1e-3, 1, 1))


def test_every_state_at_rest_is_read_by_one_residual_reader(monkeypatch,
                                                            tmp_path):
    # vanishing-momentum, constraint-check and three-route all check a
    # state at rest through solvers' one binding of stationarity_residuals:
    # a density residual off by one there shows in each of their reports
    def shifted(*args, **kwargs):
        rep = stationarity_residuals(*args, **kwargs)
        dens = rep.density_residual
        return StationarityReport(RealField(dens.grid, dens.values + 1.0),
                                  rep.action_residual)

    # raising=False: without the one binding, nothing below moves
    monkeypatch.setattr(solvers, "stationarity_residuals", shifted,
                        raising=False)
    res = vanishing_momentum_scenario(HARMONIC, harmonic_grid(128, 8.0),
                                      k=2, steps=2)
    assert [r.hj_residual_max for r in res.reports + [res.trivial]] == (
        pytest.approx([1.0, 1.0, 1.0]))
    cfg = tmp_path / "constraint.json"
    cfg.write_text(json.dumps({
        "grid": {"points": 128, "min": -8.0, "max": 8.0,
                 "boundary": "dirichlet"},
        "system": {"hbar": 1.0, "mass": 1.0,
                   "potential": {"kind": "harmonic", "strength": 1.0,
                                 "center": 0.0}},
        "level": 1}))
    assert cli.main(["constraint-check", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
    report = json.loads(
        (tmp_path / "constraint-check_report.json").read_text())
    assert report["results"]["density_residual_max"] == pytest.approx(1.0)
    pair = BipartiteParams(mass_a=1.0, mass_b=2.0,
                           interaction=Harmonic(k=1.0))
    assert three_route_comparison(pair, 48, 12.0, k=1).hj_residual_max == (
        pytest.approx(1.0))


# -- the complex right-hand side against the per-field equations ------------

def reference_rhs_terms(log_rho, s, grid, params, v, order):
    """The terms of d(ln rho)/dt and of dS/dt, one array each, from one
    diff_values call per field, axis and derivative."""
    log_terms, s_terms = [], [-v]
    for ax in range(grid.dimension):
        m = params.mass_along(ax)
        dl1 = diff_values(log_rho, grid, axis=ax, order=order, deriv=1)
        ds1 = diff_values(s, grid, axis=ax, order=order, deriv=1)
        dl2 = diff_values(log_rho, grid, axis=ax, order=order, deriv=2)
        ds2 = diff_values(s, grid, axis=ax, order=order, deriv=2)
        log_terms += [-dl1 * ds1 / m, -ds2 / m]
        s_terms += [-ds1**2 / (2.0 * m),
                    params.hbar**2 * dl2 / (4.0 * m),
                    params.hbar**2 * dl1**2 / (8.0 * m)]
    return log_terms, s_terms


@st.composite
def rhs_cases(draw):
    """A 1D or 2D grid (each axis its own size, span and boundary),
    parameters, and a seed for the random fields."""
    axes = tuple(
        Axis(draw(st.integers(8, 24)), 0.0,
             draw(st.floats(0.5, 20.0, allow_nan=False)),
             draw(st.sampled_from([PERIODIC, DIRICHLET])))
        for _ in range(draw(st.integers(1, 2))))
    masses = tuple(draw(st.floats(0.1, 10.0)) for _ in axes)
    params = PhysicalParams(hbar=draw(st.floats(0.1, 10.0)),
                            mass=masses if len(axes) == 2 else masses[0])
    return GridSpec(axes), params, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rhs_cases())
def test_complex_rhs_matches_the_per_field_equations(case):
    # u = ln(rho)/2 + i S/hbar, so 2 Re u_t = d(ln rho)/dt and
    # hbar Im u_t = dS/dt, each to roundoff of its largest terms; the
    # fields route has DEFAULT_ORDER stencils only
    grid, params, seed = case
    rng = np.random.default_rng(seed)
    log_rho, s, v = (rng.normal(0.0, 3.0, grid.shape) for _ in range(3))
    assert_rhs_matches_the_per_field_equations(log_rho, s, grid, params, v)


def assert_rhs_matches_the_per_field_equations(log_rho, s, grid, params, v):
    got = madelung_rhs(0.5 * log_rho + 1j * (s / params.hbar), grid, params,
                       v)
    log_terms, s_terms = reference_rhs_terms(log_rho, s, grid, params, v,
                                             DEFAULT_ORDER)
    for value, terms in ((2.0 * got.real, log_terms),
                         (params.hbar * got.imag, s_terms)):
        scale = sum(np.abs(t) for t in terms)
        assert np.all(np.abs(value - sum(terms)) <= 1e-13 * scale)


def test_rhs_scale_survives_a_spacing_whose_squared_divisor_overflows():
    # kappa = (i hbar / 2m) / (d dx) / (d dx) is a normal float here, but
    # (d dx)^2 is not, while the d2/dx2 divisor d dx^2 is
    grid = GridSpec.line(16, -1.2e154, 1.2e154)
    params = PhysicalParams(hbar=1e153, mass=1.0, potential=Free())
    divisor = stencil_operator(grid.axes[0], DEFAULT_ORDER, 1).divisor
    assert np.isinf(divisor * divisor)
    assert np.isfinite(stencil_operator(grid.axes[0], DEFAULT_ORDER,
                                        2).divisor)
    rng = np.random.default_rng(3)
    log_rho, phase = (rng.normal(0.0, 3.0, grid.shape) for _ in range(2))
    assert_rhs_matches_the_per_field_equations(
        log_rho, params.hbar * phase, grid, params,
        potential_values(params.potential, grid))


@st.composite
def dip_fields(draw):
    """A 1D or 2D grid and a log density whose steps put the dip screen's
    bound near the floor: a sum of random walks, a vee whose tip lies a
    half-window of steps below its rim, or a ramp whose one large step is
    the wrap pair."""
    grid = GridSpec(tuple(
        Axis(draw(st.integers(8, 30)), 0.0, 1.0,
             draw(st.sampled_from([PERIODIC, DIRICHLET])))
        for _ in range(draw(st.integers(1, 2)))))
    kind = draw(st.sampled_from(["walk", "vee", "ramp"]))
    reach = solvers._DIP_WINDOW // 2
    total = -np.log(solvers.ABORT_FLOOR) / reach * draw(st.floats(0.8, 1.2))
    share = draw(st.floats(0.05, 0.95)) if grid.dimension == 2 else 1.0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = np.full(grid.shape, draw(st.floats(-50.0, 50.0)))
    for ax, n in enumerate(grid.shape):
        step = total * (share if ax == 0 else 1.0 - share)
        k = np.arange(n)
        if kind == "walk":
            profile = np.cumsum(rng.uniform(-step, step, n))
        elif kind == "vee":
            profile = -step * np.abs(k - rng.integers(n))
        else:
            profile = step * k
        field += profile.reshape([-1 if a == ax else 1
                                  for a in range(grid.dimension)])
    return grid, field


def neighborhood_max(field, grid):
    """The maximum over the propagator's dip window around every node."""
    return box_reduce(field, grid, [solvers._DIP_WINDOW // 2] * grid.dimension,
                      np.maximum)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dip_fields())
def test_dip_screen_never_clears_a_dip(case):
    # whenever the screen skips the box maximum, the box maximum would
    # have found every node within the abort floor of its neighborhood
    grid, field = case
    log_floor = np.log(solvers.ABORT_FLOOR)
    if solvers._cannot_dip(field, grid, log_floor):
        depth = field - neighborhood_max(field, grid)
        assert float(np.min(depth)) >= log_floor


def test_dip_screen_clears_smooth_fields_only():
    grid = harmonic_grid(512, 6.0)
    log_floor = np.log(solvers.ABORT_FLOOR)
    smooth = np.log(displaced_gaussian(grid))
    assert solvers._cannot_dip(smooth, grid, log_floor)
    for bad in (np.nan, np.inf, -np.inf):
        field = smooth.copy()
        field[100] = bad
        assert not solvers._cannot_dip(field, grid, log_floor)
    # a vee eight steps deep just past the floor must go to the box maximum
    vee = -(1.0 + 1e-6) * log_floor / 8.0 * np.abs(np.arange(512) - 256.0)
    assert not solvers._cannot_dip(vee, grid, log_floor)
    assert float(np.min(vee - neighborhood_max(vee, grid))) < log_floor
