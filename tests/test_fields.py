import numpy as np
import pytest

from varq.grid import ComplexField, GridSpec, RealField, integrate, l2_norm
from varq.fields import (
    Free,
    Harmonic,
    MadelungState,
    PairwiseRelative,
    PhaseUnwrapError,
    PhysicalParams,
    Sampled,
    from_wavefunction,
    gaussian_density,
    potential_values,
    to_wavefunction,
)


def unit_gaussian_state(grid, momentum=0.0, hbar=1.0):
    x = grid.coordinates()[0]
    rho = gaussian_density(grid, 0.0, 1.0)
    s = RealField(grid, momentum * x)
    return MadelungState(rho, s, hbar)


# -- potentials --------------------------------------------------------------

def test_free_potential_is_zero():
    g = GridSpec.line(64, -1.0, 1.0)
    assert np.all(potential_values(Free(), g) == 0.0)


def test_harmonic_potential_values():
    g = GridSpec.line(65, -2.0, 2.0)
    x = g.coordinates()[0]
    v = potential_values(Harmonic(k=2.0, center=0.5), g)
    assert np.allclose(v, (x - 0.5) ** 2)


def test_harmonic_potential_2d_adds_per_axis():
    g = GridSpec.square(32, -1.0, 1.0)
    a, b = g.meshes()
    v = potential_values(Harmonic(k=1.0), g)
    assert np.allclose(v, 0.5 * (a**2 + b**2))


def test_sampled_potential_grid_check():
    g = GridSpec.line(64, 0.0, 1.0)
    other = GridSpec.line(65, 0.0, 1.0)
    v = RealField.full(other, 1.0)
    with pytest.raises(ValueError):
        potential_values(Sampled(v), g)


def test_pairwise_relative_depends_on_difference_only():
    g = GridSpec.square(49, -1.0, 1.0)
    v = potential_values(PairwiseRelative(Harmonic(k=4.0)), g)
    a, b = g.meshes()
    assert np.allclose(v, 2.0 * (a - b) ** 2)
    with pytest.raises(ValueError):
        potential_values(PairwiseRelative(Harmonic()), GridSpec.line(48, 0, 1))


def test_pairwise_relative_minimum_image_on_torus():
    g = GridSpec.square(48, 0.0, 2.0, "periodic")
    v = potential_values(PairwiseRelative(Harmonic(k=4.0)), g)
    a, b = g.meshes()
    w = np.mod(a - b + 1.0, 2.0) - 1.0
    assert np.allclose(v, 2.0 * w**2)
    # values depend on the index difference only, wrap included
    assert v[0, 47] == pytest.approx(v[1, 0], abs=1e-12)


# -- params ------------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(hbar=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(mass=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(mass=(1.0, -2.0))


def test_params_per_axis_mass():
    p = PhysicalParams(mass=(1.0, 2.0))
    assert p.mass_along(0) == 1.0
    assert p.mass_along(1) == 2.0
    p1 = PhysicalParams(mass=3.0)
    assert p1.mass_along(0) == 3.0


# -- Madelung state and conversions ------------------------------------------

def test_state_rejects_negative_density():
    g = GridSpec.line(32, -1.0, 1.0)
    with pytest.raises(ValueError):
        MadelungState(RealField(g, -np.ones(32)),
                      RealField(g, np.zeros(32)))


def test_state_grid_mismatch():
    g1 = GridSpec.line(32, -1.0, 1.0)
    g2 = GridSpec.line(33, -1.0, 1.0)
    with pytest.raises(ValueError):
        MadelungState(RealField.full(g1, 1.0), RealField.full(g2, 0.0))


def test_to_wavefunction_norm_and_phase():
    g = GridSpec.line(512, -8.0, 8.0)
    st = unit_gaussian_state(g, momentum=1.3)
    psi = to_wavefunction(st)
    assert l2_norm(psi) == pytest.approx(1.0, abs=1e-8)
    assert np.allclose(np.abs(psi.values) ** 2, st.density.values)


def test_to_wavefunction_requires_normalized_state():
    g = GridSpec.line(64, -4.0, 4.0)
    st = MadelungState(RealField(g, np.full(64, 5.0)),
                       RealField(g, np.zeros(64)))
    with pytest.raises(ValueError):
        to_wavefunction(st)


def test_roundtrip_plane_phase():
    g = GridSpec.line(512, -8.0, 8.0)
    st = unit_gaussian_state(g, momentum=0.8)
    back = from_wavefunction(to_wavefunction(st), hbar=st.hbar)
    assert np.allclose(back.density.values, st.density.values, atol=1e-14)
    # recovered action may differ by a constant; anchor removes it here
    keep = st.density.values > 1e-12 * np.max(st.density.values)
    diff = back.action.values[keep] - st.action.values[keep]
    assert np.max(diff) - np.min(diff) <= 1e-10


@pytest.mark.parametrize("hbar", [1.0, 0.5])
def test_roundtrip_scales_with_hbar(hbar):
    g = GridSpec.line(512, -8.0, 8.0)
    st = unit_gaussian_state(g, momentum=0.4, hbar=hbar)
    back = from_wavefunction(to_wavefunction(st), hbar=hbar)
    keep = st.density.values > 1e-10 * np.max(st.density.values)
    diff = back.action.values[keep] - st.action.values[keep]
    assert np.max(np.abs(diff - diff[0])) <= 1e-9


def test_global_phase_has_no_effect_on_recovered_state():
    g = GridSpec.line(256, -8.0, 8.0)
    st = unit_gaussian_state(g, momentum=0.5)
    psi = to_wavefunction(st)
    rotated = ComplexField(g, psi.values * np.exp(0.7j))
    a = from_wavefunction(psi)
    b = from_wavefunction(rotated)
    assert np.allclose(a.action.values, b.action.values, atol=1e-12)


def test_anchor_at_density_peak():
    g = GridSpec.line(256, -8.0, 8.0)
    st = unit_gaussian_state(g, momentum=1.1)
    back = from_wavefunction(to_wavefunction(st))
    peak = int(np.argmax(back.density.values))
    assert back.action.values[peak] == 0.0


def test_low_density_nodes_flagged_and_extended():
    g = GridSpec.line(2048, -12.0, 12.0)
    st = unit_gaussian_state(g, momentum=0.3)
    back = from_wavefunction(to_wavefunction(st))
    assert back.low_density_mask is not None
    assert np.any(back.low_density_mask)
    # extended action values equal their nearest valid neighbor, hence finite
    assert np.all(np.isfinite(back.action.values))


def test_unwrap_failure_on_sign_changing_state():
    # first excited hard-wall state: psi changes sign mid-box
    g = GridSpec.line(513, 0.0, 1.0)
    x = g.coordinates()[0]
    psi_vals = np.sqrt(2.0) * np.sin(2.0 * np.pi * x)
    psi = ComplexField(g, psi_vals.astype(complex))
    with pytest.raises(PhaseUnwrapError):
        from_wavefunction(psi)


def test_zero_norm_raises():
    g = GridSpec.line(64, 0.0, 1.0)
    with pytest.raises(ValueError):
        from_wavefunction(ComplexField(g, np.zeros(64, dtype=complex)))


def test_roundtrip_2d():
    g = GridSpec.square(128, -6.0, 6.0)
    a, b = g.meshes()
    rho = np.exp(-(a**2 + b**2))
    rho /= np.sum(rho * g.node_volumes())
    s = 0.3 * a - 0.2 * b
    st = MadelungState(RealField(g, rho), RealField(g, s))
    back = from_wavefunction(to_wavefunction(st))
    keep = rho > 1e-10 * np.max(rho)
    diff = back.action.values[keep] - s[keep]
    assert np.max(np.abs(diff - diff[0])) <= 1e-9

