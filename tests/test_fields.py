import numpy as np
import pytest

from varq.grid import GridSpec, RealField
from varq.fields import (
    Free,
    Harmonic,
    MadelungState,
    PairwiseRelative,
    PhysicalParams,
    Polynomial,
    potential_values,
)


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


def test_polynomial_potential_is_evaluated_on_every_grid():
    # coefficients lowest power first, evaluated afresh on each grid
    spec = Polynomial((1.0, -2.0, 0.0, 0.5))
    for points in (64, 127):
        g = GridSpec.line(points, -1.5, 1.5)
        x = g.coordinates()[0]
        v = potential_values(spec, g)
        assert np.allclose(v, 1.0 - 2.0 * x + 0.5 * x**3, rtol=0, atol=1e-14)
    g = GridSpec.square(32, -1.0, 1.0)
    a, b = g.meshes()
    v = potential_values(Polynomial((0.0, 0.0, 0.5)), g)
    assert np.allclose(v, 0.5 * (a**2 + b**2), rtol=0, atol=1e-15)


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
    # a comparison with NaN is False, so `<= 0` alone lets these through
    for kwargs in ({"hbar": np.nan}, {"hbar": np.inf}, {"mass": np.nan},
                   {"mass": (1.0, np.nan)}, {"mass": (np.inf, 1.0)}):
        with pytest.raises(ValueError, match="positive and finite"):
            PhysicalParams(**kwargs)


def test_params_per_axis_mass():
    p = PhysicalParams(mass=(1.0, 2.0))
    assert p.mass_along(0) == 1.0
    assert p.mass_along(1) == 2.0
    p1 = PhysicalParams(mass=3.0)
    assert p1.mass_along(0) == 3.0


# -- Madelung state ----------------------------------------------------------

def test_state_rejects_negative_density():
    g = GridSpec.line(32, -1.0, 1.0)
    with pytest.raises(ValueError):
        MadelungState(RealField(g, -np.ones(32)),
                      RealField(g, np.zeros(32)))


@pytest.mark.parametrize("hbar", [0.0, -1.0, np.nan, np.inf])
def test_state_rejects_hbar_outside_the_params_rule(hbar):
    g = GridSpec.line(32, -1.0, 1.0)
    with pytest.raises(ValueError, match="positive and finite"):
        MadelungState(RealField.full(g, 1.0), RealField.full(g, 0.0), hbar)


def test_state_grid_mismatch():
    g1 = GridSpec.line(32, -1.0, 1.0)
    g2 = GridSpec.line(33, -1.0, 1.0)
    with pytest.raises(ValueError):
        MadelungState(RealField.full(g1, 1.0), RealField.full(g2, 0.0))
