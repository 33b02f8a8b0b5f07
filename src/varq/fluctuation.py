"""Vacuum-fluctuation transition distributions over a short time step.

The displacement w a system picks up over an interval dt is distributed
by extremizing the kinetic transition cost plus hbar/2 times a relative
entropy against a uniform prior. The extremum is Gaussian,

    density(w) ~ exp(-m w^2 / (hbar dt)),   variance = hbar dt / (2 m),

one independent factor per axis in the bipartite case. The cost is a
sum of per-axis terms and the uniform prior a product, so a
TransitionDistribution carries one mass vector per axis, and the closed
form, the optimizer, the moments and the KL divergence work per axis.
The optimizer is entropic mirror descent (Beck & Teboulle 2003) on
transition_objective alone, so it reaches the Gaussian without being
told where it lies. The sampler draws through the factors too (see
_draw_counts), and reads the mean and variance from each axis's
marginal counts with the closed form's own methods, so the module has
one moments implementation. Only density() and transition_objective,
the optimizer's independent check, build the joint law, the outer
product of the factors (joint()). window_problems is the one window
rule: a transition grid spans at least MIN_WINDOW_SIGMAS standard
deviations each side, in the library and the configs alike.

No transition mass is subnormal. _exp_weights, the module's one
exponential, stores exactly 0 wherever a factor's normalized mass could
fall below the smallest normal float, and the joint law stores 0 for
every product below it: on x86 an exp with a subnormal result, and a
product, quotient, log or sum with a subnormal operand, take a slow
path ten to a hundred times the cost of a normal one, and a wide
window's tails hold tens of thousands of such nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .fields import PhysicalParams
from .grid import Axis, GridSpec, RealField

# a narrower window leaves more than erfc(6 / sqrt 2) = 2.0e-9 of the
# Gaussian's mass outside
MIN_WINDOW_SIGMAS = 6.0

# default window half-width in sigma: erfc(8 / sqrt 2) = 1.2e-15 outside
_WINDOW_SIGMAS = 8.0

POINTS_PER_SIGMA = 10
_MAX_POINTS_1D = 524_289
# per axis of a pair grid: it bounds the sampler's live-row block of int64
# axis-1 counts and its float copy, 2,049^2 x 8 B = 34 MB each
_MAX_POINTS_2D = 2_049

# the optimizer stops once one step changes the objective by less (in hbar)
_CONVERGED = 1e-12
# the optimizer's step, the fraction of the way each iteration moves the
# log density toward the zero of its gradient, and its iteration cap
_STEP = 0.5
_MAX_ITER = 100_000


class NonConvergenceError(RuntimeError):
    """The iterative optimizer hit its iteration cap before converging."""


def fluctuation_sigma(params: PhysicalParams, dt: float) -> tuple[float, ...]:
    """Per-axis standard deviation sqrt(hbar dt / 2 m). It and the grid
    terms one spacing dx = sigma / POINTS_PER_SIGMA off center (dx^2,
    m dx^2 and the cost m dx^2 / (2 dt)) must be finite normal floats."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    masses = params.mass if isinstance(params.mass, tuple) else (params.mass,)
    sig = tuple(float(np.sqrt(params.hbar * dt / (2.0 * m))) for m in masses)
    n2 = POINTS_PER_SIGMA**2
    for ax, s in enumerate(sig):
        for term, value in (("sigma", s), ("dx^2", s * s / n2),
                            ("m dx^2", params.hbar * dt / (2 * n2)),
                            ("m dx^2 / (2 dt)", params.hbar / (4 * n2))):
            if not np.finfo(float).tiny <= value < np.inf:
                raise ValueError(
                    f"sigma = sqrt(hbar dt / 2m) on axis {ax} is {s:.6g}: "
                    f"{term} = {value:.3g} is not a finite normal float")
    return sig


def default_window(params: PhysicalParams, dt: float) -> tuple[float, ...]:
    return tuple(_WINDOW_SIGMAS * s for s in fluctuation_sigma(params, dt))


def window_problems(window: tuple[float, ...],
                    sig: tuple[float, ...]) -> Iterator[str]:
    """Every way the per-axis half-widths `window` fail to hold a
    fluctuation of per-axis standard deviations `sig`, as complaints."""
    if len(window) != len(sig):
        yield "window must list one half-width per axis"
        return
    for ax, (w, s) in enumerate(zip(window, sig)):
        if not w >= MIN_WINDOW_SIGMAS * s:
            yield (f"window[{ax}] = {w} is below {MIN_WINDOW_SIGMAS} "
                   f"standard deviations ({MIN_WINDOW_SIGMAS * s:.6g})")


def transition_grid(params: PhysicalParams, dt: float,
                    window: tuple[float, ...] | None = None) -> GridSpec:
    """Displacement-space grid resolving the fluctuation scale: an odd
    count of POINTS_PER_SIGMA nodes per sigma across the window, 161 for
    the default one; only an explicit window can reach the point cap."""
    sig = fluctuation_sigma(params, dt)
    if window is None:
        window = default_window(params, dt)
    problem = next(window_problems(window, sig), None)
    if problem:
        raise ValueError(problem)
    cap = _MAX_POINTS_1D if len(sig) == 1 else _MAX_POINTS_2D
    axes = []
    for w, s in zip(window, sig):
        n = min(int(np.ceil(2.0 * w / s * POINTS_PER_SIGMA)) | 1, cap)
        axes.append(Axis(n, -w, w, "dirichlet"))
    return GridSpec(tuple(axes))


@dataclass(frozen=True, eq=False)
class TransitionDistribution:
    """Product law on the displacement grid: one probability mass vector
    per axis, each summing to one."""

    grid: GridSpec
    masses: tuple[np.ndarray, ...]
    dt: float
    params: PhysicalParams

    def __post_init__(self):
        masses = [np.asarray(m, dtype=float) for m in self.masses]
        if [m.shape for m in masses] != [(n,) for n in self.grid.shape]:
            raise ValueError("mass vectors do not match the grid axes")
        totals = [m.sum() for m in masses]
        if any(np.any(m < 0) or not 0 < t < np.inf
               for m, t in zip(masses, totals)):
            raise ValueError("probability mass must be non-negative, "
                             "with positive finite total")
        object.__setattr__(self, "masses",
                           tuple(m / t for m, t in zip(masses, totals)))

    @property
    def window(self) -> tuple[float, ...]:
        """Half-width of the displacement grid per axis."""
        return tuple(ax.x_max for ax in self.grid.axes)

    def joint(self) -> np.ndarray:
        """Mass per grid node, the outer product of the factors, with every
        product below the smallest normal float stored as exactly 0."""
        mass = math.prod(np.ix_(*self.masses))
        mass[mass < np.finfo(float).tiny] = 0.0
        return mass

    def density(self) -> RealField:
        return RealField(self.grid, self.joint() / self.grid.node_volumes())

    def mean(self) -> np.ndarray:
        return np.array([float(np.sum(m * w)) for m, w in
                         zip(self.masses, self.grid.coordinates())])

    def variance(self, mean: np.ndarray | None = None) -> np.ndarray:
        """Per-axis variance about mean, which defaults to self.mean()."""
        mu = self.mean() if mean is None else mean
        return np.array([float(np.sum(m * (w - c) ** 2)) for m, w, c in
                         zip(self.masses, self.grid.coordinates(), mu)])


def _axis_costs(grid: GridSpec, params: PhysicalParams,
                dt: float) -> list[np.ndarray]:
    """Kinetic cost m w^2 / (2 dt) along each axis; a node's is their sum."""
    return [params.mass_along(ax) * w**2 / (2.0 * dt)
            for ax, w in enumerate(grid.coordinates())]


def _normal_mass_floor(prior: np.ndarray) -> float:
    """Least log weight x, of weights shifted to a maximum x of 0, whose
    mass prior exp(x) / z is sure to be a normal float: the normalizer
    z = sum(prior exp(x)) is at most sum(prior), so the mass is at least
    tiny wherever x >= ln(tiny sum(prior) / min(prior)), at any scale."""
    tiny = np.finfo(float).tiny
    return float(np.log(tiny) + np.log(np.sum(prior) / np.min(prior)))


def _exp_weights(x: np.ndarray, prior: np.ndarray,
                 floor: float) -> np.ndarray:
    """Overwrite the log weights x with the weights prior exp(x), exactly
    0 where x < floor, and return x. exp runs only at or above the floor,
    so no weight is ever subnormal."""
    keep = x >= floor
    np.exp(x, out=x, where=keep)
    np.logical_not(keep, out=keep)
    x[keep] = 0.0
    x *= prior
    return x


def optimal_transition(params: PhysicalParams, dt: float,
                       window: tuple[float, ...] | None = None
                       ) -> TransitionDistribution:
    """Closed-form extremal distribution, one Gaussian factor per axis."""
    grid = transition_grid(params, dt, window)
    masses = []
    for ax, log_density in zip(grid.axes, _axis_costs(grid, params, dt)):
        vols = ax.quadrature_weights()
        log_density *= -2.0
        log_density /= params.hbar
        log_density -= np.max(log_density)
        masses.append(
            _exp_weights(log_density, vols, _normal_mass_floor(vols)))
    return TransitionDistribution(grid, tuple(masses), dt, params)


def transition_objective(dist: TransitionDistribution) -> float:
    """Kinetic cost plus (hbar/2) relative entropy against the uniform
    prior, node by node over the joint law: the per-axis _score's check."""
    mass = dist.joint()
    cost = sum(np.ix_(*_axis_costs(dist.grid, dist.params, dist.dt)))
    vols = dist.grid.node_volumes()
    prior = 1.0 / float(np.sum(vols))
    live = mass > 0.0
    entropy = mass[live] * np.log(mass[live] / vols[live] / prior)
    return float(np.sum(mass * cost)
                 + 0.5 * dist.params.hbar * np.sum(entropy))


def _score(axes: list[tuple[np.ndarray, ...]], rate: float,
           half_hbar: float) -> float:
    """Transition objective of the law whose factors are the weights
    w / z, summed over the axes' (lr, prior, floor, pull, w): for a log
    density lr relative to prior, w = prior exp(lr - top), 0 below floor
    (see _exp_weights), sums to z <= 1, and with pull = rate cost an
    axis scores (w.cost + (hbar/2) w.lr) / z - (hbar/2) (top + ln z)."""
    score = 0.0
    for lr, prior, floor, pull, w in axes:
        top = float(np.max(lr))
        _exp_weights(np.subtract(lr, top, out=w), prior, floor)
        z = float(np.sum(w))
        w_cost = float(np.dot(w, pull)) / rate
        score += ((w_cost + half_hbar * float(np.dot(w, lr))) / z
                  - half_hbar * (top + np.log(z)))
    return score


def optimize_transition_numeric(params: PhysicalParams, dt: float,
                                window: tuple[float, ...] | None = None):
    """Entropic mirror descent on the transition objective.

    Works on log densities lr relative to the uniform prior, starting
    from the prior. Up to a constant, the objective's functional
    derivative in lr is g = cost + (hbar/2) lr, and each iteration steps
    lr <- lr - (2 _STEP / hbar) g = (1 - _STEP) lr - (2 _STEP / hbar) cost.
    The cost is a sum of per-axis terms, so lr stays a sum of per-axis
    vectors, each stepped alone; the run stops on their summed score.
    lr is never renormalized, since a constant leaves the distribution
    and _score alike. Returns (distribution, iterations). Raises
    NonConvergenceError if the objective is not finite or its change
    never falls below _CONVERGED hbar within _MAX_ITER iterations.
    """
    grid = transition_grid(params, dt, window)
    half_hbar = 0.5 * params.hbar
    rate = _STEP / half_hbar
    axes = []
    for ax, pull in zip(grid.axes, _axis_costs(grid, params, dt)):
        prior = ax.quadrature_weights()
        prior /= np.sum(prior)
        pull *= rate
        axes.append((np.zeros(ax.n_points), prior, _normal_mass_floor(prior),
                     pull, np.empty(ax.n_points)))
    tol = _CONVERGED * params.hbar  # the objective is measured in hbar
    prev = 0.0
    # iteration 0 only scores the start; each later one steps first
    for it in range(_MAX_ITER + 1):
        if it:
            for lr, _, _, pull, _ in axes:
                lr *= 1.0 - _STEP
                lr -= pull
        cur = _score(axes, rate, half_hbar)
        if not np.isfinite(cur):
            raise NonConvergenceError(
                f"objective is {cur} at iteration {it}: the kinetic cost or "
                f"the log density overflows on this grid")
        if it and abs(cur - prev) < tol:
            return TransitionDistribution(
                grid, tuple(w for *_, w in axes), dt, params), it
        prev = cur
    raise NonConvergenceError(
        f"objective change still above {_CONVERGED} hbar after "
        f"{_MAX_ITER} iterations")


def kl_divergence(p: TransitionDistribution, q: TransitionDistribution) -> float:
    """sum p log(p/q) over nodes, the sum of the two product laws'
    per-axis KLs; inf if q vanishes where p carries mass, save that on
    each axis a roundoff-level total of it (below 1e-15) is dropped."""
    if p.grid != q.grid:
        raise ValueError("distributions live on different grids")
    kl = 0.0
    for pm, qm in zip(p.masses, q.masses):
        live = pm > 0.0
        orphan = live & (qm == 0.0)
        if float(pm[orphan].sum()) > 1e-15:
            return float("inf")
        keep = live & (qm > 0.0)
        pk = pm[keep]
        kl += float(np.sum(pk * np.log(pk / qm[keep])))
    return kl


# -- sampling ----------------------------------------------------------------

def _multinomial(gen: np.random.Generator, n,
                 mass: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, counts): the nodes that hold mass in order of falling mass
    (stable, so tied masses keep node order) and gen.multinomial(n,
    mass[order]), counts[..., j] the draws on node order[j]; n may be one
    count per row of the counts.

    A multinomial is exchangeable in its categories, so the order leaves
    the law as it is. numpy draws the categories as conditional binomials
    and stops once a row's draws are spent, so a row's work ends with its
    bulk, not at the far tail. Its last category takes whatever the
    binomials left, roundoff included: the smallest positive mass, so no
    draw lands where the factor puts none."""
    live = np.flatnonzero(mass > 0.0)
    order = live[np.argsort(-mass[live], kind="stable")]
    return order, gen.multinomial(n, mass[order])


def _draw_counts(masses: tuple[np.ndarray, ...], n: int,
                 seed: int) -> tuple[np.ndarray, ...]:
    """Counts of n independent draws from the product law of the factors
    `masses`, from a Philox stream keyed by seed (the same counts on
    every run of one numpy build): (rows,) on a line, (rows, block,
    order) on a pair grid. rows ~ Multinomial(n, masses[0]) counts the
    draws on each axis-0 node; block[k] ~ Multinomial(rows[i],
    masses[1][order]) counts the draws of the k-th row i that holds
    draws, block[k, j] those on axis-1 node order[j]. By the chain rule
    for multinomials (Devroye 1986, ch. XI) these are the counts of
    Multinomial(n, joint mass), drawn with no grid-shaped array, in
    work that grows with the rows that hold draws and the nodes each
    row's draws reach, not with n.

    Each multinomial draws its factor's nodes that hold mass in order of
    falling mass (_multinomial; Davis 1993): the law is unchanged, a
    multinomial being exchangeable in its categories, a row's work ends
    with its bulk, and numpy's roundoff leftovers land on the factor's
    smallest positive mass, never where it puts none, though a node
    whose product of masses is below the smallest normal float (0 in
    joint()) can take them. The block stays in draw order, so no second
    block-sized array is made.
    """
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    rows = np.zeros(masses[0].size, dtype=np.int64)
    order, drawn = _multinomial(gen, n, masses[0])
    rows[order] = drawn
    if len(masses) == 1:
        return (rows,)
    order, block = _multinomial(gen, rows[rows > 0], masses[1])
    return rows, block, order


@dataclass(frozen=True)
class FluctuationSample:
    """Summary statistics of a Monte Carlo draw from a transition law."""

    mean: tuple[float, ...]
    variance: tuple[float, ...]
    covariance: float | None
    covariance_mc_sigma: float | None
    position_momentum_product: tuple[float, ...]
    expected_product: float


def sample_fluctuations(dist: TransitionDistribution, n: int,
                        seed: int) -> FluctuationSample:
    """Draw n displacements and report the uncertainty-product estimate.

    The draws are read as their counts, drawn through the factors
    (_draw_counts) with each factor's nodes in order of falling mass: a
    multinomial is exchangeable in its categories, so the law is the
    same, a row's work ends with its bulk, and numpy's roundoff
    leftovers land on each factor's smallest positive mass. The mean
    and variance are those of each axis's marginal counts, the axis-0
    counts and the column sums of the live rows' axis-1 counts, placed
    on their nodes through the draw order; the covariance is one pass
    over those rows in draw order, against the axis-1 coordinates taken
    in the same order. Variance and covariance are scaled by n/(n-1) to
    the unbiased sample estimates. The product estimate per axis is
    m * var(w) / dt, whose target is hbar/2 for the extremal
    distribution.
    """
    if n < 2:
        raise ValueError("a sample variance needs at least 2 draws")
    rows, *pair = _draw_counts(dist.masses, n, seed)
    marginals = [rows]
    if pair:
        block, order = pair
        cols = np.zeros(dist.grid.shape[1], dtype=np.int64)
        cols[order] = block.sum(0)
        marginals.append(cols)
    drawn = TransitionDistribution(dist.grid, tuple(marginals), dist.dt,
                                   dist.params)
    unbias = n / (n - 1)
    mu = drawn.mean()
    mean = tuple(float(m) for m in mu)
    var = tuple(float(v) * unbias for v in drawn.variance(mu))
    p = dist.params
    prod = tuple(p.mass_along(ax) * v / dist.dt for ax, v in enumerate(var))
    cov = cov_sigma = None
    if len(var) == 2:
        wa, wb = (w - m for w, m in zip(dist.grid.coordinates(), mu))
        cov = float(wa[rows > 0] @ (block @ wb[order])) / n * unbias
        # roots first: var[0] * var[1] can overflow or underflow
        cov_sigma = float(np.sqrt(var[0]) * (np.sqrt(var[1]) / np.sqrt(n)))
    return FluctuationSample(
        mean=mean, variance=var, covariance=cov, covariance_mc_sigma=cov_sigma,
        position_momentum_product=prod, expected_product=0.5 * p.hbar)
