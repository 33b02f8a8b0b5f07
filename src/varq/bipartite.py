"""Two interacting particles on a ring, quantized three separate ways.

The pair lives on a periodic square grid (one axis per particle) with a
translation-invariant interaction of the separation only. Working in the
separation coordinate reduces the problem to one particle of reduced
mass; lifting a reduced profile back to the pair grid by index
difference keeps every translation identity exact at the stencil level,
so the three quantization routes (reduced 1D eigenproblem, operator
expectation on the pair grid, stationarity identity of the density/phase
form) can be compared without discretization noise drowning the physics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import bohm_potential
from .constraints import (
    SLICE_DT,
    RelativeDensity,
    StationarityReport,
    TotalMomentum,
    stationarity_residuals,
    stationary_trajectory,
)
from .fields import (
    PairwiseRelative,
    PhysicalParams,
    PotentialSpec,
)
from .grid import (
    DIRICHLET,
    PERIODIC,
    GridSpec,
    RealField,
    diff_values,
    integrate_values,
)
from .solvers import (
    SpectrumResult,
    apply_hamiltonian,
    eigensolve_1d,
    node_exclusion_mask,
    resolved_energy,
    rest_energy_density,
)


@dataclass(frozen=True)
class BipartiteParams:
    """Two masses coupled through a potential of their separation.

    The joint center of mass is taken at rest; the total-momentum
    constraint enforces that weakly rather than through a moving frame.
    """

    mass_a: float
    mass_b: float
    interaction: PotentialSpec
    hbar: float = 1.0

    def __post_init__(self):
        if self.mass_a <= 0 or self.mass_b <= 0:
            raise ValueError("particle masses must be positive")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    @property
    def reduced_mass(self) -> float:
        return self.mass_a * self.mass_b / (self.mass_a + self.mass_b)

    def as_physical(self) -> PhysicalParams:
        return PhysicalParams(hbar=self.hbar,
                              mass=(self.mass_a, self.mass_b),
                              potential=PairwiseRelative(self.interaction))

    def reduced_physical(self) -> PhysicalParams:
        return PhysicalParams(hbar=self.hbar, mass=self.reduced_mass,
                              potential=self.interaction)


def pair_grid(n: int, length: float) -> GridSpec:
    """Periodic square grid, one axis per particle; n must be even so the
    separation values land on a symmetric grid."""
    if n % 2:
        raise ValueError("pair grid needs an even point count")
    return GridSpec.square(n, 0.0, length, PERIODIC)


def relative_grid(pair: GridSpec) -> GridSpec:
    """Hard-wall grid over the separation range [-L/2, L/2].

    Its n+1 points reuse the pair spacing exactly, which is what makes
    lifted profiles stencil-exact on the pair grid.
    """
    _check_pair(pair)
    ax = pair.axes[0]
    n = ax.n_points
    half = 0.5 * ax.span
    return GridSpec.line(n + 1, -half, half, DIRICHLET)


def _check_pair(pair: GridSpec) -> None:
    if pair.dimension != 2:
        raise ValueError("pair grid must be two dimensional")
    a, b = pair.axes
    if a.boundary != PERIODIC or b.boundary != PERIODIC:
        raise ValueError("pair grid must be periodic on both axes")
    if a.n_points != b.n_points or a.span != b.span:
        raise ValueError("pair grid axes must match")
    if a.n_points % 2:
        raise ValueError("pair grid needs an even point count")


def _by_difference(values: np.ndarray, pair: GridSpec) -> np.ndarray:
    """Separation-grid values at every pair node (i, j), by the index
    difference d = i - j wrapped to the nearest image."""
    n = pair.axes[0].n_points
    d = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return values[np.where(d <= n // 2, d + n // 2, d - n // 2)]


def lift_relative(f: RealField, pair: GridSpec) -> RealField:
    """Spread a separation profile over the pair grid.

    psi(a_i, b_j) = f(r(i - j)) / sqrt(L) with the index difference
    wrapped to the nearest image, so translating both particles by one
    cell leaves the field exactly unchanged.
    """
    _check_pair(pair)
    n = pair.axes[0].n_points
    if f.grid.shape[0] != n + 1:
        raise ValueError("profile does not live on the matching "
                         "separation grid")
    length = pair.axes[0].span
    return RealField(pair, _by_difference(f.values, pair) / np.sqrt(length))


def translation_residual(values: np.ndarray, pair: GridSpec) -> float:
    """|(D_a + D_b) psi| relative to |D_a psi| with order-2 stencils; zero
    for genuine lifts."""
    da = diff_values(values, pair, axis=0, order=2)
    db = diff_values(values, pair, axis=1, order=2)
    num = np.sqrt(integrate_values((da + db) ** 2, pair))
    den = np.sqrt(integrate_values(da**2, pair))
    return float(num / max(den, 1e-300))


@dataclass(frozen=True)
class ThreeRouteRow:
    index: int
    energy_reduced: float
    energy_operator: float
    energy_extremal: float

    @property
    def max_gap(self) -> float:
        es = (self.energy_reduced, self.energy_operator, self.energy_extremal)
        return max(es) - min(es)


@dataclass(frozen=True, eq=False)
class ThreeRouteReport:
    pair: GridSpec
    spectrum: SpectrumResult
    rows: list[ThreeRouteRow]
    translation_residual_max: float
    hj_residual_max: float
    stationarity: StationarityReport
    total_momentum: float
    relative_density: float
    mass_ratio_deviation: float

    def max_gap(self) -> float:
        return max(row.max_gap for row in self.rows)


def three_route_comparison(params: BipartiteParams, n: int, length: float,
                           k: int = 3) -> ThreeRouteReport:
    """Energies of the lowest pair states under all three routes.

    Route one solves the separation eigenproblem at the reduced mass.
    Route two lifts each mode to the pair grid and takes the expectation
    of the two-particle operator. Route three reads the energy off the
    density/phase stationarity identity, then checks the full
    variational residuals on a short constant-energy trajectory of the
    lifted ground state. All stencils are second order so the routes
    agree to roundoff whenever the lift is exact.
    """
    pair = pair_grid(n, length)
    rgrid = relative_grid(pair)
    spec = eigensolve_1d(params.reduced_physical(), rgrid, k)
    phys2 = params.as_physical()

    rows = []
    trans_max = 0.0
    for j in range(k):
        f = spec.eigenfunctions[j]
        psi = lift_relative(f, pair)
        trans_max = max(trans_max, translation_residual(psi.values, pair))
        norm2 = integrate_values(psi.values**2, pair)
        hpsi = apply_hamiltonian(psi.values, pair, phys2)
        e_op = integrate_values(psi.values * hpsi, pair) / norm2

        rho = RealField(pair, psi.values**2 / norm2)
        excl = _by_difference(node_exclusion_mask(f.values), pair)
        e_ext, keep = resolved_energy(rho, rest_energy_density(rho, phys2),
                                      excl, j)
        rows.append(ThreeRouteRow(index=j,
                                  energy_reduced=float(spec.eigenvalues[j]),
                                  energy_operator=e_op,
                                  energy_extremal=e_ext))
        if j == 0:
            states = stationary_trajectory(rho, e_ext, params.hbar)
            qa = bohm_potential(rho, phys2, axis=0, order=2).values
            qb = bohm_potential(rho, phys2, axis=1, order=2).values
            num = np.abs(params.mass_a * qa - params.mass_b * qb)[keep]
            den = np.max(np.abs(params.mass_b * qb)[keep])
            ratio_dev = float(np.max(num) / den)

    stat = stationarity_residuals(states, SLICE_DT, phys2, order=2)
    mid = states[1]
    total_p = TotalMomentum().value(mid)
    rel_d = RelativeDensity().value(mid)
    return ThreeRouteReport(pair=pair, spectrum=spec,
                            rows=rows, translation_residual_max=trans_max,
                            hj_residual_max=stat.density_residual_max,
                            stationarity=stat, total_momentum=total_p,
                            relative_density=rel_d,
                            mass_ratio_deviation=ratio_dev)

