"""Pair-on-a-ring checks.

Closed forms: two masses coupled by a spring V = k r^2 / 2 reduce to one
oscillator of mass mu = m_a m_b / (m_a + m_b), frequency sqrt(k / mu),
levels (n + 1/2) hbar sqrt(k / mu). The lift is exact by construction,
so route disagreements measure implementation drift, not grid error.
"""

import numpy as np
import pytest

from varq.bipartite import (
    BipartiteParams,
    lift_relative,
    pair_grid,
    relative_grid,
    three_route_comparison,
    translation_residual,
)
from varq.action import information_metric, low_density_mask
from varq.constraints import classical_consistency
from varq.fields import RESOLVED_FLOOR, Harmonic
from varq.solvers import (
    eigensolve_1d,
    node_exclusion_mask,
    resolved_energy,
)
from varq.grid import (
    DIRICHLET, PERIODIC, Axis, GridSpec, RealField, integrate_values)

from conftest import observed_order

SPRING = BipartiteParams(mass_a=1.0, mass_b=2.0, interaction=Harmonic(k=1.0))


@pytest.fixture(scope="module")
def report():
    return three_route_comparison(SPRING, n=96, length=12.0, k=3)


class TestGeometry:
    def test_reduced_mass(self):
        assert SPRING.reduced_mass == pytest.approx(2.0 / 3.0)

    def test_relative_grid_matches_pair_spacing(self):
        pair = pair_grid(96, 12.0)
        rel = relative_grid(pair)
        assert rel.axes[0].n_points == 97
        assert rel.axes[0].x_min == -6.0
        assert rel.axes[0].x_max == 6.0
        assert rel.axes[0].dx == pytest.approx(pair.axes[0].dx, abs=0.0)

    def test_rejects_odd_count(self):
        with pytest.raises(ValueError, match="even"):
            pair_grid(95, 12.0)

    @pytest.mark.parametrize("grid, complaint", [
        (GridSpec.line(64, 0.0, 8.0, PERIODIC), "two dimensional"),
        (GridSpec.square(64, 0.0, 8.0, DIRICHLET), "periodic on both axes"),
        (GridSpec((Axis(64, 0.0, 8.0, PERIODIC), Axis(64, 0.0, 9.0, PERIODIC))),
         "axes must match"),
        (GridSpec.square(9, 0.0, 8.0, PERIODIC), "even point count"),
    ], ids=["line", "dirichlet", "mismatched-axes", "odd-count"])
    def test_relative_grid_refuses(self, grid, complaint):
        with pytest.raises(ValueError, match=complaint):
            relative_grid(grid)

    def test_rejects_bad_masses(self):
        with pytest.raises(ValueError, match="masses"):
            BipartiteParams(mass_a=-1.0, mass_b=1.0,
                            interaction=Harmonic(k=1.0))

    @pytest.mark.parametrize("kwargs", [
        {"mass_a": np.nan}, {"mass_b": np.inf}, {"hbar": np.nan},
    ], ids=["mass_a_nan", "mass_b_inf", "hbar_nan"])
    def test_rejects_non_finite_params(self, kwargs):
        values = dict(mass_a=1.0, mass_b=2.0, interaction=Harmonic(k=1.0))
        with pytest.raises(ValueError, match="positive and finite"):
            BipartiteParams(**(values | kwargs))


class TestLift:
    def test_values_follow_wrapped_difference(self):
        pair = pair_grid(8, 4.0)
        rel = relative_grid(pair)
        r = rel.coordinates()[0]
        f = RealField(rel, np.cos(np.pi * r / 4.0))
        psi = lift_relative(f, pair)
        h = pair.axes[0].dx
        scale = 1.0 / np.sqrt(4.0)
        assert psi.values[3, 3] == pytest.approx(np.cos(0.0) * scale)
        assert psi.values[3, 2] == pytest.approx(np.cos(np.pi * h / 4.0) * scale)
        # wrapping: difference of 5 cells maps to -3 cells
        assert psi.values[5, 0] == psi.values[0, 3]

    def test_translation_invariance_exact(self):
        pair = pair_grid(64, 8.0)
        spec = eigensolve_1d(SPRING.reduced_physical(), relative_grid(pair),
                             k=2)
        for f in spec.eigenfunctions:
            psi = lift_relative(f, pair)
            assert translation_residual(psi.values, pair) == 0.0
            rolled = np.roll(np.roll(psi.values, 1, axis=0), 1, axis=1)
            assert np.array_equal(rolled, psi.values)

    def test_lift_is_normalized(self):
        pair = pair_grid(64, 8.0)
        spec = eigensolve_1d(SPRING.reduced_physical(), relative_grid(pair),
                             k=1)
        psi = lift_relative(spec.eigenfunctions[0], pair)
        assert integrate_values(psi.values**2, pair) == pytest.approx(
            1.0, abs=1e-12)

    def test_perturbed_lift_detected(self):
        pair = pair_grid(64, 8.0)
        spec = eigensolve_1d(SPRING.reduced_physical(), relative_grid(pair),
                             k=1)
        psi = lift_relative(spec.eigenfunctions[0], pair).values.copy()
        a = pair.meshes()[0]
        psi += 1e-3 * np.exp(-((a - 4.0) ** 2))
        assert translation_residual(psi, pair) > 1e-3

    @pytest.mark.parametrize("wrong", [
        GridSpec.line(64, -4.0, 4.0, DIRICHLET),
        GridSpec.line(17, -1.0, 1.0, DIRICHLET),
        GridSpec.line(17, -7.0, 7.0, PERIODIC),
    ], ids=["point_count", "span", "boundary"])
    def test_rejects_wrong_profile_grid(self, wrong):
        pair = pair_grid(16, 14.0)
        f = RealField(wrong, np.zeros(wrong.shape))
        with pytest.raises(ValueError, match="separation grid"):
            lift_relative(f, pair)


class TestThreeRoutes:
    def test_reduced_energies_near_continuum(self, report):
        omega = np.sqrt(1.0 / SPRING.reduced_mass)
        expected = (np.arange(3) + 0.5) * omega
        errs = np.abs([row.energy_reduced for row in report.rows] - expected)
        assert np.max(errs) < 1e-2

    def test_ground_energy_converges_at_order_2(self):
        # every route's ground energy inherits the order-2 stencils
        exact = 0.5 * np.sqrt(1.0 / SPRING.reduced_mass)
        counts = (48, 96, 192)
        rows = [three_route_comparison(SPRING, n, 12.0, k=1).rows[0]
                for n in counts]
        spacings = [12.0 / n for n in counts]
        for route in ("energy_reduced", "energy_operator", "energy_extremal"):
            errors = [abs(getattr(row, route) - exact) for row in rows]
            assert observed_order(spacings, errors) == pytest.approx(
                2.0, abs=0.25)

    def test_routes_agree_to_roundoff(self, report):
        assert report.max_gap() < 1e-10

    def test_translation_residual_zero(self, report):
        assert report.translation_residual_max == 0.0

    def test_stationarity_identity(self, report):
        assert report.hj_residual_max < 1e-10
        assert report.action_residual_max == 0.0

    def test_level_0_resolved_nodes_are_the_density_floor(self):
        # the criterion-7 pair: its ground state has no node to exclude,
        # so the residual maxima are read above the density floor alone
        pair_params = BipartiteParams(mass_a=1.0, mass_b=1.0,
                                      interaction=Harmonic(k=1.0))
        pair = pair_grid(256, 18.0)
        f = eigensolve_1d(pair_params.reduced_physical(), relative_grid(pair),
                          k=1).eigenfunctions[0]
        assert not node_exclusion_mask(f.values).any()
        psi = lift_relative(f, pair).values
        rho = RealField(pair, psi**2 / integrate_values(psi**2, pair))
        _, keep = resolved_energy(rho, pair_params.as_physical(),
                                  np.zeros(pair.shape, dtype=bool), 0)
        assert not keep.all()
        assert np.array_equal(
            keep, ~low_density_mask(rho.values, pair, RESOLVED_FLOOR))

    def test_symmetry_constraints_vanish(self, report):
        assert abs(report.total_momentum) < 1e-15
        assert abs(report.relative_density) < 1e-14

    def test_curvature_terms_scale_inversely_with_mass(self, report):
        # the lifted ground state depends on x_a - x_b alone, so each
        # particle's information term is the same integral over its mass
        ma_ia = SPRING.mass_a * report.information_a
        mb_ib = SPRING.mass_b * report.information_b
        assert ma_ia == pytest.approx(mb_ib, rel=1e-14)

    def test_classical_translation_force_cancels(self):
        check = classical_consistency(SPRING.as_physical(),
                                      pair_grid(96, 12.0))
        assert check.vanishes


class TestInformationSplit:
    def test_inverse_mass_ratio(self):
        pair = pair_grid(64, 8.0)
        spec = eigensolve_1d(SPRING.reduced_physical(), relative_grid(pair),
                             k=1)
        psi = lift_relative(spec.eigenfunctions[0], pair)
        rho = RealField(pair, psi.values**2)
        phys = SPRING.as_physical()
        ia, ib = (information_metric(rho, phys, order=2, axis=ax)
                  for ax in (0, 1))
        assert ia / ib == pytest.approx(SPRING.mass_b / SPRING.mass_a,
                                        rel=1e-12)
        assert ia > 0
        # the per-axis terms split the axis=None total
        total = information_metric(rho, phys, order=2)
        assert ia + ib == pytest.approx(total, rel=1e-14)

    def test_information_converges_at_order_2(self):
        # Fisher information of the Gaussian separation density along
        # axis a: (hbar / 4 m_a) 2 mu omega / hbar = mu omega / (2 m_a)
        exact = SPRING.reduced_mass * np.sqrt(1.0 / SPRING.reduced_mass) / (
            2.0 * SPRING.mass_a)
        counts = (96, 192, 384)
        errors = []
        for n in counts:
            pair = pair_grid(n, 12.0)
            f = eigensolve_1d(SPRING.reduced_physical(), relative_grid(pair),
                              k=1).eigenfunctions[0]
            rho = RealField(pair, lift_relative(f, pair).values ** 2)
            errors.append(abs(information_metric(
                rho, SPRING.as_physical(), order=2, axis=0) - exact))
        assert observed_order([12.0 / n for n in counts],
                              errors) == pytest.approx(2.0, abs=0.25)

    def test_rejects_1d_state(self):
        grid = GridSpec.line(64, -4.0, 4.0, DIRICHLET)
        x = grid.coordinates()[0]
        rho = RealField(grid, np.exp(-x * x))
        with pytest.raises(ValueError, match="out of range"):
            information_metric(rho, SPRING.as_physical(), axis=1)
