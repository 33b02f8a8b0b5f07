"""Vacuum-fluctuation transition distributions over a short time step.

The displacement w a system picks up over an interval dt is distributed
by extremizing the kinetic transition cost plus hbar/2 times a relative
entropy against a uniform prior. The extremum is Gaussian,

    density(w) ~ exp(-m w^2 / (hbar dt)),   variance = hbar dt / (2 m),

one independent factor per axis in the bipartite case. This module
carries the closed form, an iterative optimizer used to cross-check it,
and a deterministic sampler with counter-based substreams so the draw
does not depend on how the work is chunked. The optimizer is entropic
mirror descent (Beck & Teboulle 2003): it steps the log density along the
functional derivative of transition_objective alone, so it reaches the
Gaussian without being told where it lies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .fields import PhysicalParams
from .grid import Axis, GridSpec, RealField

# tail mass beyond the window that we refuse to ignore
_TAIL_LIMIT = 1e-8

# default window half-width: at least 6 length units and at least 8 sigma
_WINDOW_FLOOR = 6.0
_WINDOW_SIGMAS = 8.0

POINTS_PER_SIGMA = 10
_MAX_POINTS_1D = 524_289
_MAX_POINTS_2D = 2_049
_MIN_POINTS = 129

_SAMPLE_CHUNK = 1 << 16

# the optimizer stops once one step changes the objective by less
_CONVERGED = 1e-12


class NonConvergenceError(RuntimeError):
    """The iterative optimizer hit its iteration cap before converging."""


def fluctuation_sigma(params: PhysicalParams, dt: float) -> tuple[float, ...]:
    """Per-axis standard deviation sqrt(hbar dt / 2 m)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    masses = params.mass if isinstance(params.mass, tuple) else (params.mass,)
    sig = tuple(float(np.sqrt(params.hbar * dt / (2.0 * m))) for m in masses)
    for ax, s in enumerate(sig):
        if not 0.0 < s < np.inf:
            raise ValueError(
                f"sigma = sqrt(hbar dt / 2m) on axis {ax} evaluates to {s}; "
                f"it must be positive and finite")
    return sig


def default_window(params: PhysicalParams, dt: float) -> tuple[float, ...]:
    sig = fluctuation_sigma(params, dt)
    return tuple(max(_WINDOW_FLOOR, _WINDOW_SIGMAS * s) for s in sig)


def _check_window(window, sig) -> None:
    for w, s in zip(window, sig):
        if w <= 0:
            raise ValueError("window half-width must be positive")
        tail = float(special.erfc(w / (s * np.sqrt(2.0))))
        if tail > _TAIL_LIMIT:
            need = s * np.sqrt(2.0) * float(special.erfcinv(_TAIL_LIMIT))
            raise ValueError(
                f"window {w} leaves tail mass {tail:.2e} > {_TAIL_LIMIT}; "
                f"needs at least {need:.4g}")


def transition_grid(params: PhysicalParams, dt: float,
                    window: tuple[float, ...] | None = None,
                    n_points: int | None = None) -> GridSpec:
    """Displacement-space grid resolving the fluctuation scale."""
    sig = fluctuation_sigma(params, dt)
    if window is None:
        window = default_window(params, dt)
    if len(window) != len(sig):
        raise ValueError("window needs one half-width per axis")
    _check_window(window, sig)
    cap = _MAX_POINTS_1D if len(sig) == 1 else _MAX_POINTS_2D
    axes = []
    for w, s in zip(window, sig):
        if n_points is None:
            n = int(np.ceil(2.0 * w / s * POINTS_PER_SIGMA))
            n = min(max(n | 1, _MIN_POINTS), cap)
        else:
            n = int(n_points)
        axes.append(Axis(n, -w, w, "dirichlet"))
    return GridSpec(tuple(axes))


@dataclass(frozen=True, eq=False)
class TransitionDistribution:
    """Probability mass per displacement-grid node, summing to one."""

    grid: GridSpec
    mass: np.ndarray
    dt: float
    params: PhysicalParams
    window: tuple[float, ...]

    def __post_init__(self):
        m = np.asarray(self.mass, dtype=float)
        if m.shape != self.grid.shape:
            raise ValueError("mass array does not match the grid")
        if np.any(m < 0):
            raise ValueError("probability mass must be non-negative")
        total = m.sum()
        if not np.isfinite(total) or total <= 0:
            raise ValueError("probability mass must have positive finite total")
        object.__setattr__(self, "mass", m / total)

    def density(self) -> RealField:
        return RealField(self.grid, self.mass / self.grid.node_volumes())

    def _axis_values(self, axis: int) -> np.ndarray:
        w = self.grid.coordinates()[axis]
        if self.grid.dimension == 1:
            return w
        return self.grid.meshes()[axis]

    def mean(self) -> np.ndarray:
        return np.array([float(np.sum(self.mass * self._axis_values(ax)))
                         for ax in range(self.grid.dimension)])

    def variance(self) -> np.ndarray:
        mu = self.mean()
        return np.array([
            float(np.sum(self.mass * (self._axis_values(ax) - mu[ax]) ** 2))
            for ax in range(self.grid.dimension)])

    def covariance(self) -> float:
        if self.grid.dimension != 2:
            raise ValueError("cross covariance needs a 2D distribution")
        mu = self.mean()
        wa, wb = self.grid.meshes()
        return float(np.sum(self.mass * (wa - mu[0]) * (wb - mu[1])))


def _kinetic_cost(grid: GridSpec, params: PhysicalParams,
                  dt: float) -> np.ndarray:
    cost = np.zeros(grid.shape)
    meshes = grid.meshes() if grid.dimension == 2 else (grid.coordinates()[0],)
    for ax, w in enumerate(meshes):
        cost += params.mass_along(ax) * w**2 / (2.0 * dt)
    return cost


def optimal_transition(params: PhysicalParams, dt: float,
                       window: tuple[float, ...] | None = None
                       ) -> TransitionDistribution:
    """Closed-form extremal distribution, one Gaussian factor per axis."""
    grid = transition_grid(params, dt, window)
    cost = _kinetic_cost(grid, params, dt)
    log_density = -2.0 * cost / params.hbar
    log_density -= np.max(log_density)
    mass = np.exp(log_density) * grid.node_volumes()
    win = tuple(ax.x_max for ax in grid.axes)
    return TransitionDistribution(grid, mass, dt, params, win)


def transition_objective(dist: TransitionDistribution) -> float:
    """Kinetic cost plus (hbar/2) relative entropy against the uniform prior."""
    cost = _kinetic_cost(dist.grid, dist.params, dist.dt)
    vols = dist.grid.node_volumes()
    prior = 1.0 / float(np.sum(vols))
    dens = dist.mass / vols
    live = dist.mass > 0.0
    entropy = np.zeros(dist.grid.shape)
    entropy[live] = dist.mass[live] * np.log(dens[live] / prior)
    return float(np.sum(dist.mass * cost) + 0.5 * dist.params.hbar * entropy.sum())


def _normalize_and_score(lr: np.ndarray, vols: np.ndarray, cost: np.ndarray,
                         half_hbar: float, w: np.ndarray,
                         g: np.ndarray) -> float:
    """Normalize the log density lr in place and return sum(w g).

    Fills w with the normalized mass vols exp(lr - top) / z and g with
    cost + (hbar/2) lr, the functional derivative of the objective in lr
    up to a constant. Since w sums to one, the objective is the returned
    value less (hbar/2) ln prior.
    """
    top = float(np.max(lr))
    np.subtract(lr, top, out=w)
    np.exp(w, out=w)
    w *= vols
    z = float(np.sum(w))
    w /= z
    lr -= top + float(np.log(z))
    np.multiply(lr, half_hbar, out=g)
    g += cost
    return float(np.dot(w.ravel(), g.ravel()))


def optimize_transition_numeric(params: PhysicalParams, dt: float,
                                window: tuple[float, ...] | None = None,
                                init: TransitionDistribution | None = None,
                                step: float = 0.5, max_iter: int = 100_000):
    """Entropic mirror descent on the transition objective.

    Works on log densities lr. Up to a constant that normalization
    absorbs, the objective's functional derivative in lr is
    g = cost + (hbar/2) lr, and each iteration steps
    lr <- lr - (2 step / hbar) g and renormalizes; the closed form is
    never consulted. One iteration makes one max pass, one exponential,
    one weighted sum and one dot product over the grid. Returns
    (distribution, iterations). Raises NonConvergenceError if the
    objective is not finite or its change never falls below _CONVERGED.
    """
    if not 0.0 < step <= 1.0:
        raise ValueError("step must lie in (0, 1]")
    grid = transition_grid(params, dt, window)
    vols = grid.node_volumes()
    cost = _kinetic_cost(grid, params, dt)

    if init is None:
        lr = np.zeros(grid.shape)
    else:
        if init.grid != grid:
            raise ValueError("init lives on a different displacement grid")
        if np.any(init.mass <= 0):
            raise ValueError("init must be strictly positive everywhere")
        lr = np.log(init.mass / vols)

    win = tuple(ax.x_max for ax in grid.axes)
    half_hbar = 0.5 * params.hbar
    # -(hbar/2) ln prior for the uniform prior 1 / sum(vols)
    prior_term = half_hbar * float(np.log(np.sum(vols)))
    rate = step / half_hbar
    w = np.empty(grid.shape)
    g = np.empty(grid.shape)
    prev = 0.0
    # iteration 0 only scores the start; each later one steps first
    for it in range(max_iter + 1):
        if it:
            g *= rate
            lr -= g
        cur = (_normalize_and_score(lr, vols, cost, half_hbar, w, g)
               + prior_term)
        if not np.isfinite(cur):
            raise NonConvergenceError(
                f"objective is {cur} at iteration {it}: the kinetic cost or "
                f"the log density overflows on this grid")
        if it and abs(cur - prev) < _CONVERGED:
            return TransitionDistribution(grid, w, dt, params, win), it
        prev = cur
    raise NonConvergenceError(
        f"objective change still above {_CONVERGED} after {max_iter} "
        f"iterations")


def kl_divergence(p: TransitionDistribution, q: TransitionDistribution) -> float:
    """sum p log(p/q) over nodes; inf if q vanishes where p carries mass.

    Nodes where q underflowed to zero while p still holds a roundoff-level
    total (below 1e-15) are dropped instead of poisoning the sum.
    """
    if p.grid != q.grid:
        raise ValueError("distributions live on different grids")
    live = p.mass > 0.0
    orphan = live & (q.mass == 0.0)
    if float(p.mass[orphan].sum()) > 1e-15:
        return float("inf")
    keep = live & (q.mass > 0.0)
    return float(np.sum(p.mass[keep] * np.log(p.mass[keep] / q.mass[keep])))


# -- sampling ----------------------------------------------------------------

def sample_displacements(dist: TransitionDistribution, n: int,
                         seed: int) -> np.ndarray:
    """n draws, shape (n, dimension), reproducible for a given seed.

    Counter-based Philox substreams are assigned per fixed-size chunk, so
    the result is independent of any parallel split of the chunks.
    """
    if n <= 0:
        raise ValueError("need a positive sample count")
    cdf = np.cumsum(dist.mass.reshape(-1))
    cdf[-1] = 1.0
    base = np.random.Philox(key=np.uint64(seed))
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, _SAMPLE_CHUNK):
        stop = min(start + _SAMPLE_CHUNK, n)
        gen = np.random.Generator(base.jumped(start // _SAMPLE_CHUNK))
        u = gen.random(stop - start)
        out[start:stop] = np.searchsorted(cdf, u, side="right")
    shape = dist.grid.shape
    if dist.grid.dimension == 1:
        w = dist.grid.coordinates()[0]
        return w[out][:, None]
    ia, ib = np.unravel_index(out, shape)
    wa, wb = dist.grid.coordinates()
    return np.column_stack([wa[ia], wb[ib]])


@dataclass(frozen=True)
class FluctuationSample:
    """Summary statistics of a Monte Carlo draw from a transition law."""

    n: int
    mean: tuple[float, ...]
    variance: tuple[float, ...]
    covariance: float | None
    covariance_mc_sigma: float | None
    position_momentum_product: tuple[float, ...]
    expected_product: float


def sample_fluctuations(dist: TransitionDistribution, n: int,
                        seed: int) -> FluctuationSample:
    """Draw n displacements and report the uncertainty-product estimate.

    The product estimate per axis is m * var(w) / dt, whose target is
    hbar/2 for the extremal distribution.
    """
    if n < 2:
        raise ValueError("a sample variance needs at least 2 draws")
    w = sample_displacements(dist, n, seed)
    mean = tuple(float(m) for m in w.mean(axis=0))
    var = tuple(float(v) for v in w.var(axis=0, ddof=1))
    p = dist.params
    prod = tuple(p.mass_along(ax) * var[ax] / dist.dt
                 for ax in range(w.shape[1]))
    if w.shape[1] == 2:
        cov = float(np.cov(w[:, 0], w[:, 1], ddof=1)[0, 1])
        cov_sigma = float(np.sqrt(var[0] * var[1] / n))
    else:
        cov = None
        cov_sigma = None
    return FluctuationSample(
        n=n, mean=mean, variance=var, covariance=cov,
        covariance_mc_sigma=cov_sigma,
        position_momentum_product=prod,
        expected_product=0.5 * p.hbar,
    )
