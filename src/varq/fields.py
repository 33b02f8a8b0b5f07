"""Physical parameters, potentials, and the density/action field pair.

A quantum state is carried as the pair (density rho, action-valued phase
S), which stands for the wavefunction psi = sqrt(rho) * exp(i S / hbar).
Every potential is analytic: it is evaluated from the node coordinates of
whichever grid asks for it, so a solve on a refined grid sees the same
potential as one on the config grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import (
    PERIODIC,
    GridMismatchError,
    GridSpec,
    RealField,
)

# densities below this fraction of unity are treated as numerically zero
DENSITY_FLOOR = 1e-12

# a node is resolved where its density is at least this fraction of its
# peak; residual maxima and ensemble energies are read on resolved nodes
RESOLVED_FLOOR = 1e-6


# -- potentials --------------------------------------------------------------

@dataclass(frozen=True)
class Free:
    """No external potential."""


@dataclass(frozen=True)
class Harmonic:
    """V(x) = k (x - center)^2 / 2 on each axis."""

    k: float = 1.0
    center: float = 0.0


@dataclass(frozen=True)
class Polynomial:
    """V(x) = sum_j coefficients[j] x^j on each axis, lowest power first."""

    coefficients: tuple[float, ...]


@dataclass(frozen=True)
class PairwiseRelative:
    """2D potential that depends only on the coordinate difference x_a - x_b.

    On fully periodic grids the difference is taken by minimum image, so
    the sampled values are a function of the node-index difference alone.
    """

    inner: "PotentialSpec"


PotentialSpec = Free | Harmonic | Polynomial | PairwiseRelative


def _eval_1d(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    if isinstance(spec, Free):
        return np.zeros_like(x)
    if isinstance(spec, Harmonic):
        return 0.5 * spec.k * (x - spec.center) ** 2
    if isinstance(spec, Polynomial):
        return np.polynomial.polynomial.polyval(x, spec.coefficients)
    raise ValueError(f"cannot evaluate {type(spec).__name__} from coordinates alone")


def potential_values(spec: PotentialSpec, grid: GridSpec) -> np.ndarray:
    """Samples of the external potential on every grid node, evaluated
    once per (spec, grid); the read-only samples are shared by every
    later call."""
    return _evaluated_values(spec, grid)


@lru_cache(maxsize=8)
def _evaluated_values(spec: PotentialSpec, grid: GridSpec) -> np.ndarray:
    if isinstance(spec, PairwiseRelative):
        if grid.dimension != 2:
            raise ValueError("pairwise-relative potential needs a 2D grid")
        a, b = grid.meshes()
        diff = a - b
        if all(ax.boundary == PERIODIC for ax in grid.axes):
            span = grid.axes[0].span
            diff = np.mod(diff + 0.5 * span, span) - 0.5 * span
        out = _eval_1d(spec.inner, diff)
    elif grid.dimension == 1:
        out = _eval_1d(spec, grid.coordinates()[0])
    else:
        a, b = grid.meshes()
        out = _eval_1d(spec, a) + _eval_1d(spec, b)
    out.setflags(write=False)
    return out


# -- parameters --------------------------------------------------------------

@dataclass(frozen=True)
class PhysicalParams:
    """hbar, per-axis masses, and the external potential."""

    hbar: float = 1.0
    mass: float | tuple[float, float] = 1.0
    potential: PotentialSpec = Free()

    def __post_init__(self):
        # written so that NaN fails the test too
        if not 0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")
        masses = self.mass if isinstance(self.mass, tuple) else (self.mass,)
        if not all(0 < m < np.inf for m in masses):
            raise ValueError("masses must be positive and finite")

    def mass_along(self, axis: int) -> float:
        if isinstance(self.mass, tuple):
            return float(self.mass[axis])
        return float(self.mass)


def hbar_squared(params: PhysicalParams) -> tuple[float, float]:
    """hbar^2 as a square in [1, 4) and a power of two p, hbar^2 = square
    p p, with p finite for every finite hbar. A quantity formed with the
    square and multiplied by p twice after has the bits of one formed
    with hbar^2 wherever that is a normal float; it stays finite where
    only hbar^2 overflows, and nonzero where only hbar^2 underflows."""
    mantissa, exponent = math.frexp(params.hbar)
    return 4.0 * mantissa * mantissa, math.ldexp(1.0, exponent - 1)


# -- Madelung state ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MadelungState:
    """Density field plus action-valued phase field, sharing one grid.

    `hbar` is read by no computation (PhysicalParams carries the one
    that is); it stays, guarded, only because the benchmark's workloads
    pass it by position, and goes with the next benchmark change."""

    density: RealField
    action: RealField
    hbar: float = 1.0

    def __post_init__(self):
        if self.density.grid != self.action.grid:
            raise GridMismatchError("density and action live on different grids")
        if np.any(self.density.values < 0):
            raise ValueError("density must be non-negative")
        if not 0 < self.hbar < np.inf:  # the PhysicalParams rule
            raise ValueError("hbar must be positive and finite")

    @property
    def grid(self) -> GridSpec:
        return self.density.grid
