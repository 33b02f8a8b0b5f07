"""Physical parameters, potentials, and the density/action field pair.

A quantum state is carried either as a complex wavefunction or as the
equivalent pair (density rho, action-valued phase S) with
psi = sqrt(rho) * exp(i S / hbar). Conversions between the two are exact
up to the phase branch; going from psi to (rho, S) requires unwrapping
the phase, which is only well posed while the density stays away from
zero along the unwrapping path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    PERIODIC,
    ComplexField,
    GridMismatchError,
    GridSpec,
    RealField,
    integrate,
)

# densities below this fraction of unity are treated as numerically zero
DENSITY_FLOOR = 1e-12

# a node is resolved where its density is at least this fraction of its
# peak; residual maxima and ensemble energies are read on resolved nodes
RESOLVED_FLOOR = 1e-6

# largest |integral(rho) - 1| of a state that becomes a wavefunction
_NORM_TOLERANCE = 1e-8

# adjacent-node phase step that flags a branch ambiguity (close to pi)
_UNWRAP_JUMP = 0.75 * np.pi


class PhaseUnwrapError(ValueError):
    """Raised when the wavefunction phase cannot be unwrapped reliably."""

    def __init__(self, message: str, nodes=None):
        super().__init__(message)
        self.nodes = nodes


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
class Sampled:
    """Potential given by its samples on the target grid."""

    values: RealField


@dataclass(frozen=True)
class PairwiseRelative:
    """2D potential that depends only on the coordinate difference x_a - x_b.

    On fully periodic grids the difference is taken by minimum image, so
    the sampled values are a function of the node-index difference alone.
    """

    inner: "PotentialSpec"


PotentialSpec = Free | Harmonic | Sampled | PairwiseRelative


def _eval_1d(spec: PotentialSpec, x: np.ndarray) -> np.ndarray:
    if isinstance(spec, Free):
        return np.zeros_like(x)
    if isinstance(spec, Harmonic):
        return 0.5 * spec.k * (x - spec.center) ** 2
    raise ValueError(f"cannot evaluate {type(spec).__name__} from coordinates alone")


def potential_values(spec: PotentialSpec, grid: GridSpec) -> np.ndarray:
    """Samples of the external potential on every grid node."""
    if isinstance(spec, Sampled):
        if spec.values.grid != grid:
            raise GridMismatchError("sampled potential lives on a different grid")
        return spec.values.values
    if isinstance(spec, PairwiseRelative):
        if grid.dimension != 2:
            raise ValueError("pairwise-relative potential needs a 2D grid")
        a, b = grid.meshes()
        diff = a - b
        if all(ax.boundary == PERIODIC for ax in grid.axes):
            span = grid.axes[0].span
            diff = np.mod(diff + 0.5 * span, span) - 0.5 * span
        return _eval_1d(spec.inner, diff)
    if grid.dimension == 1:
        return _eval_1d(spec, grid.coordinates()[0])
    a, b = grid.meshes()
    return _eval_1d(spec, a) + _eval_1d(spec, b)


# -- parameters --------------------------------------------------------------

@dataclass(frozen=True)
class PhysicalParams:
    """hbar, per-axis masses, and the external potential."""

    hbar: float = 1.0
    mass: float | tuple[float, float] = 1.0
    potential: PotentialSpec = Free()

    def __post_init__(self):
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")
        masses = self.mass if isinstance(self.mass, tuple) else (self.mass,)
        if any(m <= 0 for m in masses):
            raise ValueError("mass must be positive")

    def mass_along(self, axis: int) -> float:
        if isinstance(self.mass, tuple):
            return float(self.mass[axis])
        return float(self.mass)


# -- Madelung state ----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class MadelungState:
    """Density field plus action-valued phase field, sharing one grid."""

    density: RealField
    action: RealField
    hbar: float = 1.0
    low_density_mask: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.density.grid != self.action.grid:
            raise GridMismatchError("density and action live on different grids")
        if np.any(self.density.values < 0):
            raise ValueError("density must be non-negative")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    @property
    def grid(self) -> GridSpec:
        return self.density.grid

    def mass_total(self) -> float:
        return integrate(self.density)


def to_wavefunction(state: MadelungState) -> ComplexField:
    """psi = sqrt(rho) exp(i S / hbar); requires a normalized state."""
    total = state.mass_total()
    if abs(total - 1.0) > _NORM_TOLERANCE:
        raise ValueError(f"state is not normalized: integral(rho) = {total!r}")
    amp = np.sqrt(state.density.values)
    return ComplexField(state.grid,
                        amp * np.exp(1j * state.action.values / state.hbar))


def _consecutive_steps(phase_of: np.ndarray) -> np.ndarray:
    # minimal-branch phase increment between neighbors along the last axis
    return np.angle(phase_of[..., 1:] * np.conj(phase_of[..., :-1]))


def _check_jumps(psi_vals: np.ndarray, valid: np.ndarray, axis: int) -> None:
    # walk each grid line through its valid nodes only, so a sign flip
    # straddling a below-floor node is still seen as a near-pi jump
    v = np.moveaxis(psi_vals, axis, -1).reshape(-1, psi_vals.shape[axis])
    ok = np.moveaxis(valid, axis, -1).reshape(-1, psi_vals.shape[axis])
    bad = []
    for line in range(v.shape[0]):
        idx = np.nonzero(ok[line])[0]
        if idx.size < 2:
            continue
        steps = np.angle(v[line, idx[1:]] * np.conj(v[line, idx[:-1]]))
        hits = np.nonzero(np.abs(steps) > _UNWRAP_JUMP)[0]
        if hits.size:
            bad.extend((line, int(idx[h])) for h in hits)
    if bad:
        raise PhaseUnwrapError(
            f"phase jump over {_UNWRAP_JUMP:.3f} rad between neighboring valid "
            f"nodes along axis {axis}; the branch is ambiguous near a density "
            f"zero", nodes=bad)


def _unwrap_1d(psi_vals: np.ndarray) -> np.ndarray:
    out = np.zeros(psi_vals.shape, dtype=float)
    out[..., 1:] = np.cumsum(_consecutive_steps(psi_vals), axis=-1)
    return out


def from_wavefunction(psi: ComplexField, hbar: float = 1.0) -> MadelungState:
    """Recover (rho, S) from psi with S anchored to zero at the density peak.

    Nodes below DENSITY_FLOOR times the peak take the action value of
    their nearest valid neighbor and are flagged in low_density_mask. A
    near-pi phase step between two valid neighbors raises
    PhaseUnwrapError instead of guessing a branch.
    """
    rho = np.abs(psi.values) ** 2
    total = float(np.sum(rho * psi.grid.node_volumes()))
    if not total > 0 or not np.isfinite(total):
        raise ValueError("wavefunction has zero norm")
    valid = rho >= DENSITY_FLOOR * np.max(rho)
    for ax in range(psi.grid.dimension):
        _check_jumps(psi.values, valid, ax)

    peak = np.unravel_index(np.argmax(rho), rho.shape)
    if psi.grid.dimension == 1:
        phase = _unwrap_1d(psi.values)
    else:
        # unwrap the peak's column along axis 0, then every row along axis 1
        col = _unwrap_1d(psi.values[:, peak[1]])
        rows = _unwrap_1d(psi.values)
        phase = rows + (col - rows[:, peak[1]])[:, None]

    phase = phase - phase[peak]

    mask = ~valid
    if np.any(mask):
        # imported on use, so that importing varq leaves scipy.ndimage out
        from scipy.ndimage import distance_transform_edt

        # carry the action of the nearest valid node into floored regions
        idx = distance_transform_edt(mask, return_distances=False,
                                     return_indices=True)
        phase = phase[tuple(idx)]
    s_vals = hbar * phase
    return MadelungState(RealField(psi.grid, rho), RealField(psi.grid, s_vals),
                         hbar, low_density_mask=mask if np.any(mask) else None)


def gaussian_density(grid: GridSpec, center: float = 0.0,
                     sigma: float = 1.0) -> RealField:
    """Normalized isotropic Gaussian density (helper for tests and scenarios)."""
    meshes = grid.meshes()
    q = sum((m - center) ** 2 for m in meshes)
    rho = np.exp(-q / (2.0 * sigma**2))
    rho /= np.sum(rho * grid.node_volumes())
    return RealField(grid, rho)

