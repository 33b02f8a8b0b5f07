"""Two interacting particles on a ring, quantized three separate ways.

The pair lives on a periodic square grid (one axis per particle) with a
translation-invariant interaction of the separation only. Working in the
separation coordinate reduces the problem to one particle of reduced
mass; lifting a reduced profile back to the pair grid by index
difference keeps every translation identity exact at the stencil level,
so the three quantization routes (reduced 1D eigenproblem, operator
expectation on the pair grid, stationarity identity of the density/phase
form) can be compared without discretization noise drowning the physics.
Joint translation is generated by `grid.shift_derivative`, d/dx_a +
d/dx_b here, so the pair's total momentum is `LocalMomentum` read on the
pair grid, and the translation residual applies the same generator to
the wavefunction. The stationarity residuals of the lifted ground state
are `solvers.rest_residuals`, read on the level-0 resolved nodes that
`resolved_energy` returns; the higher levels report energies alone.
`three_route_comparison` is the one pipeline for both pair scenarios:
the bipartite scenario is its level 0 (k = 1), whose report also holds
the ground state's information split and separation mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .action import information_metric
from .constraints import LocalMomentum, stationary_trajectory
from .fields import (
    PairwiseRelative,
    PhysicalParams,
    PotentialSpec,
)
from .grid import (
    DEFAULT_ORDER,
    DIRICHLET,
    PERIODIC,
    GridSpec,
    RealField,
    diff_values,
    integrate_values,
    shift_derivative,
)
from .solvers import (
    UnresolvedLevelError,
    apply_hamiltonian,
    eigensolve_1d,
    node_exclusion_mask,
    resolved_energy,
    rest_residuals,
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
        # PhysicalParams holds the one rule for hbar and the masses
        self.as_physical()

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
    return values[_difference_index(pair.axes[0].n_points)]


@lru_cache(maxsize=8)
def _difference_index(n: int) -> np.ndarray:
    """The separation-grid node of every pair node (i, j) of n x n, the
    index difference d = i - j wrapped to the nearest image. Built once
    per n; read-only."""
    d = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    index = np.where(d <= n // 2, d + n // 2, d - n // 2)
    index.setflags(write=False)
    return index


def lift_relative(f: RealField, pair: GridSpec) -> RealField:
    """Spread a separation profile over the pair grid.

    psi(a_i, b_j) = f(r(i - j)) / sqrt(L) with the index difference
    wrapped to the nearest image, so translating both particles by one
    cell leaves the field exactly unchanged.
    """
    if f.grid != relative_grid(pair):
        raise ValueError("profile does not live on the matching "
                         "separation grid")
    length = pair.axes[0].span
    return RealField(pair, _by_difference(f.values, pair) / np.sqrt(length))


def translation_residual(values: np.ndarray, pair: GridSpec) -> float:
    """|(D_a + D_b) psi| relative to |D_a psi| with order-2 stencils; zero
    for genuine lifts."""
    num = np.sqrt(integrate_values(
        shift_derivative(values, pair, order=2) ** 2, pair))
    den = np.sqrt(integrate_values(
        diff_values(values, pair, axis=0, order=2) ** 2, pair))
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
    """Route energies per level; every other field is read on level 0."""

    rows: list[ThreeRouteRow]
    translation_residual_max: float
    hj_residual_max: float
    action_residual_max: float
    total_momentum: float
    relative_density: float
    information_a: float
    information_b: float
    separation_mode: RealField

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
    agree to roundoff whenever the lift is exact. Level 0 also gives the
    order-2 information metric of the lifted ground state's own square
    along each particle's axis.

    Raises UnresolvedLevelError when a lifted density has no positive
    finite norm, or the ground state no density gradient, on the pair
    grid.
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
        square = psi.values**2
        norm2 = integrate_values(square, pair)
        # psi**2 underflows to zero, or dx**2 overflows, on a huge grid
        if not 0.0 < norm2 < np.inf:
            raise UnresolvedLevelError(
                f"level {j} is unresolved: its lifted density has no "
                f"positive finite norm on the pair grid")
        hpsi = apply_hamiltonian(psi.values, pair, phys2)
        e_op = integrate_values(psi.values * hpsi, pair) / norm2

        rho = RealField(pair, square / norm2)
        excl = _by_difference(node_exclusion_mask(f.values), pair)
        e_ext, keep = resolved_energy(rho, phys2, excl, j)
        rows.append(ThreeRouteRow(index=j,
                                  energy_reduced=float(spec.eigenvalues[j]),
                                  energy_operator=e_op,
                                  energy_extremal=e_ext))
        if j == 0:
            ia, ib = (information_metric(RealField(pair, square), phys2,
                                         order=2, axis=ax) for ax in (0, 1))
            if not (ia > 0.0 and ib > 0.0):
                raise UnresolvedLevelError(
                    "level 0 is unresolved: the ground state has no "
                    "density gradient on the pair grid")
            hj_max, act_max = rest_residuals(rho, e_ext, phys2, keep)
            # on the middle slice, S = 0, where the residuals are read
            total_p = LocalMomentum().value(
                stationary_trajectory(rho, e_ext)[1])
            # the shift generator applied to the density: vanishes for a
            # density of x_a - x_b alone
            rel_d = integrate_values(rho.values * shift_derivative(
                rho.values, pair, DEFAULT_ORDER), pair)

    return ThreeRouteReport(rows=rows, translation_residual_max=trans_max,
                            hj_residual_max=hj_max,
                            action_residual_max=act_max,
                            total_momentum=total_p,
                            relative_density=rel_d,
                            information_a=ia, information_b=ib,
                            separation_mode=spec.eigenfunctions[0])
