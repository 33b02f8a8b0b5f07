import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

from varq import fluctuation
from varq.fields import PhysicalParams
from varq.fluctuation import (
    FluctuationSample,
    NonConvergenceError,
    TransitionDistribution,
    default_window,
    fluctuation_sigma,
    kl_divergence,
    optimal_transition,
    optimize_transition_numeric,
    sample_fluctuations,
    transition_grid,
    transition_objective,
)
from varq.grid import Axis, GridSpec

P1 = PhysicalParams(mass=1.0)
P2 = PhysicalParams(mass=(1.0, 2.0))
DT = 0.1


def test_sigma_formula():
    assert fluctuation_sigma(P1, DT)[0] == pytest.approx(np.sqrt(0.05))
    p = PhysicalParams(hbar=2.0, mass=4.0)
    assert fluctuation_sigma(p, 0.2)[0] == pytest.approx(np.sqrt(2.0 * 0.2 / 8.0))
    with pytest.raises(ValueError):
        fluctuation_sigma(P1, 0.0)


def test_sigma_that_underflows_or_overflows_is_rejected():
    with pytest.raises(ValueError, match="sigma"):
        fluctuation_sigma(PhysicalParams(mass=1e30), 1e-300)
    with pytest.raises(ValueError, match="sigma"):
        fluctuation_sigma(PhysicalParams(hbar=1e300, mass=1e-300), 1e300)
    with pytest.raises(ValueError, match="sigma"):
        transition_grid(PhysicalParams(mass=1e30), 1e-300)


def test_default_window_floor_and_sigma_scaling():
    # the default window has no floor in length units: it is 8 sigma
    # with 161 nodes per axis, the same grid in units of sigma at every
    # scale
    for p in (P1, PhysicalParams(mass=1e-4), P2,
              PhysicalParams(hbar=1e-34, mass=(1e-30, 3e-30))):
        sig = fluctuation_sigma(p, DT)
        assert default_window(p, DT) == tuple(8.0 * s for s in sig)
        assert transition_grid(p, DT).shape == (161,) * len(sig)


@pytest.mark.parametrize("hbar, mass, dt, term", [
    # sigma^2 / 100 on the heavy axis alone
    (1.0, (1.0, 1e300), 1e-8, "on axis 1 .* dx\\^2 = 5e-311"),
    # m dx^2 = hbar dt / 200
    (1e-300, 1e-300, 1e-8, "on axis 0 .* m dx\\^2 = 5e-311"),
    # the kinetic cost m dx^2 / (2 dt) = hbar / 400
    (1e-306, 1.0, 1e10, "on axis 0 .* m dx\\^2 / \\(2 dt\\) = 2.5e-309"),
], ids=["dx2", "m_dx2", "cost"])
def test_transition_scale_below_the_normal_floats_is_rejected(hbar, mass, dt,
                                                              term):
    # one spacing sigma / 10 off center, each of these is subnormal
    p = PhysicalParams(hbar=hbar, mass=mass)
    with pytest.raises(ValueError, match=f"sigma .*{term} is not a finite "
                                         f"normal float"):
        transition_grid(p, dt)


def test_window_too_small_raises_with_bound():
    with pytest.raises(ValueError, match="standard deviations"):
        transition_grid(P1, DT, window=(0.5,))


# -- closed form -------------------------------------------------------------

def test_variance_matches_hbar_dt_over_2m():
    dist = optimal_transition(P1, DT)
    assert dist.mean()[0] == pytest.approx(0.0, abs=1e-14)
    assert dist.variance()[0] == pytest.approx(0.05, rel=1e-9)


def test_variance_scaling_in_mass_and_dt():
    d2 = optimal_transition(PhysicalParams(mass=2.0), DT)
    assert d2.variance()[0] == pytest.approx(0.025, rel=1e-9)
    d3 = optimal_transition(P1, 0.4)
    assert d3.variance()[0] == pytest.approx(0.2, rel=1e-9)
    d4 = optimal_transition(PhysicalParams(hbar=2.0), DT)
    assert d4.variance()[0] == pytest.approx(0.1, rel=1e-9)


def test_classical_limit_variance_collapses():
    dist = optimal_transition(PhysicalParams(mass=1e6), DT)
    assert dist.variance()[0] == pytest.approx(5e-8, rel=1e-6)


def test_uncertainty_product_of_distribution():
    dist = optimal_transition(P1, DT)
    prod = P1.mass_along(0) * dist.variance()[0] / DT
    assert prod == pytest.approx(0.5 * P1.hbar, rel=1e-9)


def test_window_insensitivity_once_tails_are_negligible():
    base = optimal_transition(P1, DT)
    wide = optimal_transition(P1, DT, window=(12.0,))
    assert abs(base.variance()[0] - wide.variance()[0]) <= 1e-8 * 0.05


def test_bipartite_product_distribution():
    p = PhysicalParams(mass=(1.0, 2.0))
    dist = optimal_transition(p, DT)
    assert dist.grid.dimension == 2
    var = dist.variance()
    assert var[0] == pytest.approx(0.05, rel=1e-9)
    assert var[1] == pytest.approx(0.025, rel=1e-9)
    # the joint law, summed node by node, holds no cross covariance
    mass = dist.joint()
    wa, wb = dist.grid.meshes()
    mu = [float(np.sum(mass * w)) for w in (wa, wb)]
    assert abs(float(np.sum(mass * (wa - mu[0]) * (wb - mu[1])))) <= 1e-14


def test_mass_validation():
    dist = optimal_transition(P1, DT)
    (mass,) = dist.masses
    with pytest.raises(ValueError):
        TransitionDistribution(dist.grid, (-mass,), DT, P1)
    with pytest.raises(ValueError):
        TransitionDistribution(dist.grid, (mass[:-1],), DT, P1)
    with pytest.raises(ValueError):
        TransitionDistribution(dist.grid, (mass, mass), DT, P1)
    pair = optimal_transition(P2, DT)
    with pytest.raises(ValueError):
        TransitionDistribution(pair.grid, pair.masses[:1], DT, P2)


# -- iterative optimizer -----------------------------------------------------

def test_optimizer_from_uniform_matches_closed_form():
    closed = optimal_transition(P1, DT)
    num, iters = optimize_transition_numeric(P1, DT)
    assert kl_divergence(num, closed) <= 1e-8
    assert kl_divergence(closed, num) <= 1e-8
    assert iters < 200


@pytest.mark.parametrize("hbar, mass", [(1e-34, 1e-30), (1e-6, 1.0),
                                        (0.7, 1.0), (1e200, 1.0)])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_optimizer_stops_alike_at_every_hbar(hbar, mass, dim):
    # the objective is measured in hbar and so is the stopping test: the
    # default problem is one problem in units of sigma and hbar
    p = PhysicalParams(hbar=hbar, mass=mass if dim == 1 else (mass, 2 * mass))
    closed = optimal_transition(p, DT)
    num, iters = optimize_transition_numeric(p, DT)
    assert iters == 20
    assert kl_divergence(num, closed) <= 1e-8


def test_optimizer_objective_not_above_closed_form():
    closed = optimal_transition(P1, DT)
    num, _ = optimize_transition_numeric(P1, DT)
    assert transition_objective(num) <= transition_objective(closed) + 1e-10


def test_optimizer_iteration_cap(monkeypatch):
    monkeypatch.setattr(fluctuation, "_MAX_ITER", 2)
    with pytest.raises(NonConvergenceError, match="after 2 iterations"):
        optimize_transition_numeric(P1, DT)


def test_optimizer_bipartite():
    p = PhysicalParams(mass=(1.0, 2.0))
    closed = optimal_transition(p, DT)
    num, _ = optimize_transition_numeric(p, DT)
    assert kl_divergence(num, closed) <= 1e-8


def test_optimizer_overflowing_cost_stops_at_once():
    # the kinetic cost at a 1e200 window edge overflows to inf, so the
    # objective is not finite from the first evaluation on
    with np.errstate(over="ignore"), pytest.raises(
            NonConvergenceError, match="objective is inf at iteration 0"):
        optimize_transition_numeric(P1, DT, window=(1e200,))


def score_pieces(dist):
    """The pull rate, and per axis the log density relative to the
    uniform prior, the prior, its mass floor, the pull vector and the
    weights' work array for one score."""
    rate = fluctuation._STEP / (0.5 * dist.params.hbar)
    axes = []
    for ax, mass, cost in zip(dist.grid.axes, dist.masses,
                              fluctuation._axis_costs(dist.grid, dist.params,
                                                      dist.dt)):
        prior = ax.quadrature_weights() / np.sum(ax.quadrature_weights())
        axes.append((np.log(mass / prior), prior,
                     fluctuation._normal_mass_floor(prior), rate * cost,
                     np.empty(ax.n_points)))
    return rate, axes


def test_step_gradient_is_the_objective_derivative_up_to_a_constant():
    # perturbing the log density at node j by +-h moves the objective by
    # mass_j (g_j - c) per unit h, with one c for every node, where the
    # step is lr <- lr - rate g
    p = PhysicalParams(hbar=1.3, mass=0.7)
    grid = GridSpec.line(17, -2.0, 2.0)
    rng = np.random.default_rng(4)
    mass = np.exp(rng.normal(0.0, 0.5, grid.shape)) * grid.node_volumes()
    dist = TransitionDistribution(grid, (mass,), DT, p)
    rate, [(lr, prior, _, pull, _)] = score_pieces(dist)
    g = (lr - ((1.0 - fluctuation._STEP) * lr - pull)) / rate
    h = 1e-6
    shifted = []
    for j in range(grid.shape[0]):
        sides = []
        for sign in (1.0, -1.0):
            bumped = lr.copy()
            bumped[j] += sign * h
            sides.append(transition_objective(TransitionDistribution(
                grid, (np.exp(bumped) * prior,), DT, p)))
        shifted.append((sides[0] - sides[1]) / (2.0 * h * dist.masses[0][j])
                       - g[j])
    assert np.ptp(shifted) <= 1e-6 * np.max(np.abs(g))


@pytest.mark.parametrize("params, window", [
    (P1, None), (PhysicalParams(hbar=0.7, mass=(1.0, 2.0)), (1.5, 1.0))])
def test_score_is_the_transition_objective(params, window):
    # the per-axis scores sum to the objective of the joint law
    dist, _ = optimize_transition_numeric(params, DT, window)
    rate, axes = score_pieces(dist)
    # an offset of lr moves neither the weights' distribution nor the score
    for ax, (lr, *_) in enumerate(axes):
        lr += 3.0 + ax
    score = fluctuation._score(axes, rate, 0.5 * params.hbar)
    for (*_, w), mass in zip(axes, dist.masses):
        assert np.allclose(w / np.sum(w), mass, rtol=1e-12, atol=0.0)
    assert score == pytest.approx(transition_objective(dist), rel=1e-13)


def dense_cost(grid, params, dt):
    """The kinetic cost of every node, from the grid's dense meshes."""
    return sum(params.mass_along(ax) * w**2 / (2.0 * dt)
               for ax, w in enumerate(grid.meshes()))


def dense_mirror_descent(params, dt, window):
    """The optimizer's iteration on the whole grid, as it ran before the
    law was factored, kept here as the oracle of the per-axis run: lr
    <- (1 - s) lr - rate cost on every node, scored on the joint weights
    w = prior exp(lr - top). Returns (mass, iterations, objective)."""
    grid = transition_grid(params, dt, window)
    prior = grid.node_volumes() / np.sum(grid.node_volumes())
    cost = dense_cost(grid, params, dt)
    half_hbar = 0.5 * params.hbar
    pull = fluctuation._STEP / half_hbar * cost
    lr = np.zeros(grid.shape)
    prev = 0.0
    for it in range(1000):
        if it:
            lr = (1.0 - fluctuation._STEP) * lr - pull
        top = np.max(lr)
        w = prior * np.exp(lr - top)
        z = np.sum(w)
        cur = (np.sum(w * cost) + half_hbar * np.sum(w * lr)) / z \
            - half_hbar * (top + np.log(z))
        if it and abs(cur - prev) < fluctuation._CONVERGED * params.hbar:
            return w / z, it, cur
        prev = cur
    raise AssertionError("dense mirror descent did not converge")


U = 2.0**-53  # unit roundoff of float64


@pytest.mark.parametrize("points, params, dt, sigmas", [
    (4, P2, DT, (8.0, 8.0)),
    (4, PhysicalParams(hbar=0.7, mass=(1.0, 2.0)), 0.05, (6.0, 7.0)),
    (5, PhysicalParams(hbar=1e-34, mass=(1e-30, 3e-30)), DT, (6.0, 6.4)),
    (4, PhysicalParams(hbar=1e200, mass=(1.0, 1e3)), DT, (8.0, 6.0)),
    (2, PhysicalParams(hbar=1.3, mass=(0.3, 2.0)), 0.2, (16.0, 12.0))],
    ids=["square", "oblong", "hbar-1e-34", "hbar-1e200", "coarse"])
def test_factored_run_matches_the_dense_iteration(monkeypatch, points, params,
                                                 dt, sigmas):
    # fewer nodes per sigma keep the grids at or below 65 x 65 nodes.
    # With s = 1/2 the step (1 - s) lr is exact, so each iteration adds
    # one rounding of |lr| to both runs, and the error halves every step:
    # at a node r^2 = sum (w / sigma)^2 away, lr = -r^2/2 carries a few
    # ulps of r^2, and weighted by its mass exp(-r^2/2) that is at most a
    # few ulps of the peak. The exps, products and normalizations add a
    # few more, so the bound is 16 ulps of the peak mass. The objective's
    # terms are about hbar/2, hbar/2 and its value, each summed to a few
    # ulps, so its bound is 16 ulps of hbar + |objective|
    monkeypatch.setattr(fluctuation, "POINTS_PER_SIGMA", points)
    window = tuple(k * s for k, s in zip(sigmas,
                                         fluctuation_sigma(params, dt)))
    mass, iters, objective = dense_mirror_descent(params, dt, window)
    num, num_iters = optimize_transition_numeric(params, dt, window)
    assert num.grid.n_nodes <= 65**2
    assert num_iters == iters
    assert np.max(np.abs(num.joint() - mass)) <= 16 * U * np.max(mass)
    assert abs(transition_objective(num) - objective) <= (
        16 * U * (params.hbar + abs(objective)))


def blend_toward_closed_form(params, dt, window, step=0.5, tol=1e-12):
    """The optimizer's earlier loop, kept as a reference: each iteration
    moves the log density a fraction step of the way to the closed-form
    optimum -2 cost / hbar. Returns (mass, iterations)."""
    grid = transition_grid(params, dt, window)
    vols = grid.node_volumes()
    cost = dense_cost(grid, params, dt)
    target = -2.0 * cost / params.hbar
    log_prior = -np.log(np.sum(vols))

    def normalize(lr):
        return lr - special.logsumexp(lr, b=vols)

    def objective(lr):
        terms = np.exp(lr) * (cost + 0.5 * params.hbar * (lr - log_prior))
        return float(np.sum(vols * terms))

    lr = normalize(np.zeros(grid.shape))
    prev = objective(lr)
    for it in range(1, 1000):
        lr = normalize((1.0 - step) * lr + step * target)
        cur = objective(lr)
        if abs(cur - prev) < tol:
            return np.exp(lr) * vols, it
        prev = cur
    raise AssertionError("reference blend did not converge")


@pytest.mark.parametrize("params, dt, window", [
    (P1, DT, None), (PhysicalParams(hbar=0.7, mass=(1.0, 2.0)), 0.05,
                     (1.0, 0.8))])
def test_gradient_step_follows_the_blend_iterates(params, dt, window):
    # in exact arithmetic the two updates give the same iterates
    num, iters = optimize_transition_numeric(params, dt, window)
    mass, ref_iters = blend_toward_closed_form(params, dt, window)
    assert iters == ref_iters
    assert np.max(np.abs(num.joint() - mass)) <= 1e-12 * np.max(mass)


CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


@pytest.mark.parametrize("name", ["fluctuate_single.json",
                                  "fluctuate_pair.json"])
def test_shipped_configs_take_twenty_iterations(name):
    cfg = json.loads((CONFIGS / name).read_text())
    mass = cfg["system"]["mass"]
    params = PhysicalParams(hbar=cfg["system"]["hbar"],
                            mass=tuple(mass) if isinstance(mass, list) else mass)
    _, iters = optimize_transition_numeric(params, cfg["dt"])
    assert iters == 20


# the perfbench fluctuate grids: the pair grid of a 6-unit window on the
# shipped pair config, 37.9 and 53.7 sigma (759 x 1075 nodes), and a
# 40-sigma line. Only such explicit wide windows reach exp underflow, to
# subnormal masses and to 0, in their tails: the default 8 sigma does not
TAIL_DT = 0.05


def tail_grid(masses, sigmas, shape):
    """Params, window and grid shape for windows of the given sigmas."""
    window = tuple(n * np.sqrt(TAIL_DT / (2.0 * m))
                   for n, m in zip(sigmas, masses))
    mass = masses if len(masses) > 1 else masses[0]
    return PhysicalParams(mass=mass), window, shape


TAIL_GRIDS = [tail_grid((1.0, 2.0), (37.9, 53.7), (759, 1075)),
              tail_grid((1.0,), (40.0,), (801,))]


def full_exp_closed_form(params, dt, window):
    """optimal_transition with one exp over each whole axis, subnormal
    tail masses included: the reference for the masses that stay."""
    grid = transition_grid(params, dt, window)
    masses = []
    for ax, cost in zip(grid.axes, fluctuation._axis_costs(grid, params, dt)):
        log_density = -2.0 * cost / params.hbar
        log_density -= np.max(log_density)
        masses.append(np.exp(log_density) * ax.quadrature_weights())
    return TransitionDistribution(grid, tuple(masses), dt, params)


def full_exp_weights(x, vols, floor):
    np.exp(x, out=x)
    x *= vols
    return x


@pytest.mark.parametrize("params, window, shape", TAIL_GRIDS,
                         ids=["pair", "line"])
def test_no_transition_mass_is_subnormal(monkeypatch, params, window, shape):
    tiny = np.finfo(float).tiny
    closed = optimal_transition(params, TAIL_DT, window)
    assert closed.grid.shape == shape
    num, iters = optimize_transition_numeric(params, TAIL_DT, window)
    full_closed = full_exp_closed_form(params, TAIL_DT, window)
    monkeypatch.setattr(fluctuation, "_exp_weights", full_exp_weights)
    full_num, full_iters = optimize_transition_numeric(params, TAIL_DT, window)
    assert iters == full_iters == 20
    for dist, full in ((closed, full_closed), (num, full_num)):
        # per axis, and on the joint law the sampler draws from, where
        # the full product of the factors is the reference
        pairs = list(zip(dist.masses, full.masses))
        pairs.append((dist.joint(), math.prod(np.ix_(*full.masses))))
        for m, ref in pairs:
            # the full exp does leave subnormal masses on this grid
            assert np.any((ref > 0.0) & (ref < tiny))
            assert np.all((m == 0.0) | (m >= tiny))
            big = ref >= 1e-290
            assert np.array_equal(m >= 1e-290, big)
            assert np.array_equal(m[big], ref[big])


def test_kl_divergence_properties():
    closed = optimal_transition(P1, DT)
    assert kl_divergence(closed, closed) == 0.0
    other = optimal_transition(PhysicalParams(mass=1.3), DT)
    with pytest.raises(ValueError):
        kl_divergence(closed, other)  # different grids
    mass = closed.masses[0].copy()
    mass[mass.size // 2] = 0.0
    holed = TransitionDistribution(closed.grid, (mass,), DT, P1)
    assert kl_divergence(closed, holed) == np.inf


# -- sampling ----------------------------------------------------------------

def reference_moments(dist, counts):
    """Sample mean, variance and (2D) covariance of the n draws the counts
    stand for, each node's coordinates repeated its count of times,
    summed exactly by math.fsum in two passes."""
    n = int(counts.sum())
    draws = [np.repeat(w.ravel(), counts.ravel()) for w in dist.grid.meshes()]
    mean = [math.fsum(w) / n for w in draws]
    dev = [w - m for w, m in zip(draws, mean)]
    var = [math.fsum(d * d) / (n - 1) for d in dev]
    cov = math.fsum(dev[0] * dev[1]) / (n - 1) if len(dev) == 2 else None
    return mean, var, cov


def count_grid(masses, counts):
    """The counts _draw_counts gives for the factors `masses`, placed on
    their grid: a 2D block holds the axis-1 counts of the rows that hold
    draws, its columns those of the axis-1 nodes in its order."""
    if len(counts) == 1:
        return counts[0]
    rows, block, order = counts
    grid = np.zeros((masses[0].size, masses[1].size), dtype=np.int64)
    grid[np.ix_(rows > 0, order)] = block
    return grid


def draw_grid(masses, n, seed):
    return count_grid(masses, fluctuation._draw_counts(masses, n, seed))


@pytest.mark.parametrize("params", [P1, PhysicalParams(mass=(1.0, 2.0))],
                         ids=["1d", "2d"])
def test_sample_moments_equal_the_exact_sums_over_the_draws(params):
    # mean and covariance nearly cancel, so their roundoff is measured
    # against their scales sigma and sigma_a sigma_b
    dist = optimal_transition(params, DT)
    n = 70_000
    rep = sample_fluctuations(dist, n, seed=7)
    mean, var, cov = reference_moments(dist,
                                       draw_grid(dist.masses, n, seed=7))
    sig = np.sqrt(var)
    assert np.allclose(rep.variance, var, rtol=1e-15, atol=0.0)
    assert np.all(np.abs(np.subtract(rep.mean, mean)) <= 1e-15 * sig)
    if cov is None:
        assert rep.covariance is None
    else:
        assert abs(rep.covariance - cov) <= 1e-15 * sig[0] * sig[1]


def uniform_pair():
    # few nodes and equal masses, so the draws reach node 0 and the last
    # node, the multinomial's first and last categories
    grid = GridSpec((Axis(8, -1.0, 1.0), Axis(9, -1.0, 1.0)))
    return TransitionDistribution(grid, (np.ones(8), np.ones(9)), DT, P2)


def zero_mass_tails():
    # zero-mass nodes at both ends and one inside
    grid = GridSpec.line(11, -1.0, 1.0)
    mass = np.array([0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0])
    return TransitionDistribution(grid, (mass,), DT, P1)


def zero_mass_pair():
    # factors with zero-mass nodes at both ends and one inside
    grid = GridSpec((Axis(9, -1.0, 1.0), Axis(8, -1.0, 1.0)))
    masses = (np.array([0.0, 1.0, 2.0, 0.0, 3.0, 2.0, 1.0, 0.0, 0.0]),
              np.array([0.0, 0.0, 2.0, 1.0, 0.0, 1.0, 3.0, 0.0]))
    return TransitionDistribution(grid, masses, DT, P2)


def assert_counts_of_n_draws(masses, n, seed):
    """The counts of seed's n draws from the product law of the factors
    `masses` are n non-negative int64s, none on a node where a factor
    puts no mass, the same again for seed, and other counts for some
    other seed unless the law sits on one node. On a pair grid the block
    holds one row of axis-1 counts per axis-0 node that holds draws,
    summing to its count, and one column per axis-1 node in its order."""
    parts = fluctuation._draw_counts(masses, n, seed)
    assert all(c.dtype == np.int64 for c in parts)
    rows = parts[0]
    assert rows.shape == masses[0].shape
    if len(masses) == 2:
        _, block, order = parts
        assert np.array_equal(block.sum(axis=1), rows[rows > 0])
        assert block.shape[1] == order.size == np.unique(order).size
    counts = count_grid(masses, parts)
    support = masses[0] > 0.0
    for m in masses[1:]:
        support = np.logical_and.outer(support, m > 0.0)
    assert np.all(counts >= 0)
    assert int(counts.sum()) == n
    assert np.all(counts[~support] == 0)
    assert np.array_equal(draw_grid(masses, n, seed), counts)
    if np.count_nonzero(support) > 1:
        assert any(not np.array_equal(draw_grid(masses, n, other), counts)
                   for other in range(seed + 1, seed + 9))


@pytest.mark.parametrize("make_dist", [
    lambda: optimal_transition(P1, DT), lambda: optimal_transition(P2, DT),
    uniform_pair, zero_mass_tails, zero_mass_pair],
    ids=["1d", "2d", "uniform-pair", "zero-mass-tails", "zero-mass-pair"])
@pytest.mark.parametrize("n", [2, 70_001])
def test_draw_counts_equal_the_count_of_each_draw(make_dist, n):
    # the counts stand for n draws; their law is test_draw_counts_fit_the_mass
    assert_counts_of_n_draws(make_dist().masses, n, seed=7)


def test_no_draw_lands_on_a_zero_mass_node_at_the_largest_count():
    # numpy's multinomial gives its last category the draws that its
    # binomials leave by roundoff, on axis 0 and in each live row, where
    # both factors end in nodes that hold no mass. The last category is
    # a factor's smallest positive mass: on axis 1 that is the last
    # column that holds mass (1.8e-305), which takes 946 such draws in
    # 55 rows. 4 draws land on nodes whose product of masses is below
    # the smallest normal float, which joint() stores as 0; the law of
    # the factors puts mass there
    dist = optimal_transition(P2, 0.05, (6.0, 6.0))
    assert all(m[-1] == 0.0 for m in dist.masses)
    assert dist.joint()[-1, -1] == 0.0
    assert_counts_of_n_draws(dist.masses, 2**63 - 1, seed=3)


def wide_tails(params):
    """The closed form in a window of 30 sigma per axis: each factor's
    bulk sits mid-axis between long tails that hold mass down to
    exp(-450), so the order of falling mass is far from node order."""
    window = tuple(30.0 * s for s in fluctuation_sigma(params, DT))
    return optimal_transition(params, DT, window)


def wide_tail_pair():
    return wide_tails(PhysicalParams(mass=(1.0, 3.0)))


def wide_tail_line():
    return wide_tails(PhysicalParams(mass=2.0))


@pytest.mark.parametrize("make_dist", [uniform_pair, zero_mass_tails,
                                       zero_mass_pair, wide_tail_pair,
                                       wide_tail_line])
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_draw_counts_fit_the_mass(make_dist, seed):
    # Pearson's chi-square of the counts drawn through the factors over
    # the nodes where the joint law holds mass, against its 1e-6 upper
    # tail: a right sampler fails one seed in a million. The nodes that
    # expect fewer than 5 draws, in the wide tails only, are pooled
    # into one cell, so that the statistic follows its chi-square law
    dist = make_dist()
    mass = dist.joint()
    n = 100_000
    live = mass > 0.0
    counts = draw_grid(dist.masses, n, seed)[live]
    expected = n * mass[live]
    sparse = expected < 5.0
    if sparse.any():
        counts = np.append(counts[~sparse], counts[sparse].sum())
        expected = np.append(expected[~sparse], expected[sparse].sum())
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < stats.chi2.isf(1e-6, expected.size - 1)


def falling_mass_order(mass):
    """The nodes that hold mass, largest mass first, ties in node order."""
    return np.array(sorted(np.flatnonzero(mass > 0.0),
                           key=lambda i: (-mass[i], i)), dtype=np.intp)


@pytest.mark.parametrize("make_dist", [zero_mass_tails, wide_tail_line,
                                       zero_mass_pair, wide_tail_pair])
def test_draw_counts_are_numpys_multinomial_in_falling_mass_order(make_dist):
    # the same stream drawn by hand: numpy's multinomial over each
    # factor's nodes in falling-mass order (the zero-mass cases hold
    # tied masses), its counts placed back on the nodes
    masses = make_dist().masses
    n, seed = 70_001, 7
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    order = falling_mass_order(masses[0])
    rows = np.zeros(masses[0].size, dtype=np.int64)
    rows[order] = gen.multinomial(n, masses[0][order])
    expected = rows
    if len(masses) == 2:
        order = falling_mass_order(masses[1])
        expected = np.zeros((masses[0].size, masses[1].size), dtype=np.int64)
        expected[np.ix_(rows > 0, order)] = gen.multinomial(
            rows[rows > 0], masses[1][order])
    assert np.array_equal(draw_grid(masses, n, seed), expected)


@st.composite
def mass_vectors(draw, size):
    """A normalized mass vector of `size` nodes whose entries hold runs of
    zeros, all sit on one node, hold runs of positive masses too small to
    move the cdf, or sum to a cdf that rounds above 1 before its last
    node (a tiny last mass), with that last case's flag."""
    kind = draw(st.sampled_from(["zero-runs", "one-node", "flat-runs",
                                 "overshoot"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "one-node":
        mass = np.zeros(size)
        mass[rng.integers(size)] = rng.uniform(0.1, 10.0)
    elif kind == "zero-runs":
        mass = rng.uniform(0.0, 1.0, size)
        for _ in range(rng.integers(0, 4)):
            a = rng.integers(size)
            mass[a:a + rng.integers(1, size + 1)] = 0.0
        if not mass.any():
            mass[rng.integers(size)] = 1.0
    elif kind == "flat-runs":
        # from node 0 on the cdf is at least 0.5 / 400, half an ulp of it
        # above 5e-20, and the masses sum to at least 0.5, so a mass of
        # 1e-20 normalizes to at most 2e-20 and every other one to above
        # 1.2e-3; the runs start at node 2, so two nodes keep their mass
        # and the law does not sit on one node up to 1e-19
        mass = rng.uniform(0.5, 1.0, size)
        for _ in range(rng.integers(0, 4)):
            a = rng.integers(2, size)
            mass[a:a + rng.integers(1, size)] = 1e-20
        mass[-1] = 1e-20
    else:
        # one try in ten rounds past 1 on 8 nodes, one in three on 400
        while True:
            mass = rng.uniform(0.0, 1.0, size)
            mass[-1] = 1e-300
            if np.cumsum(mass / mass.sum())[-2] > 1.0:
                break
    return mass / mass.sum(), kind == "overshoot"


@st.composite
def mass_grids(draw):
    """The factors of a 1D or 2D product law, each one of mass_vectors'
    kinds, with their overshoot flags."""
    # an axis has at least 8 nodes
    shape = draw(st.tuples(st.integers(8, 400))
                 | st.tuples(st.integers(8, 24), st.integers(8, 24)))
    return tuple(zip(*(draw(mass_vectors(size)) for size in shape)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=mass_grids(), n=st.integers(2, 2**63 - 1))
def test_draw_counts_equal_the_count_of_each_draw_for_any_masses(case, n):
    # up to the command line's largest count, where the multinomial
    # leaves draws by roundoff: none may land on a zero-mass node
    masses, overshoots = case
    for mass, overshoot in zip(masses, overshoots):
        if overshoot:
            assert np.cumsum(mass)[-2] > 1.0
    assert_counts_of_n_draws(masses, n, seed=5)


def test_draw_counts_peak_does_not_grow_with_n():
    # the counts are drawn at once, never as draws: the traced peak at
    # 1e15 draws is that at 1e6, a few arrays of the grid's 759 nodes
    masses = optimal_transition(P1, 0.05, (6.0,)).masses
    (mass,) = masses
    assert mass.shape == (759,)
    fluctuation._draw_counts(masses, 2, seed=3)  # numpy's one-time set-up
    peaks = []
    for n in (1_000_000, 10**15):
        tracemalloc.start()
        try:
            fluctuation._draw_counts(masses, n, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] <= 8 * mass.size * 8


@pytest.mark.parametrize("build", [optimize_transition_numeric,
                                   optimal_transition])
def test_transition_layer_builds_no_grid_shaped_array(build):
    # the closed form and the optimizer work on one vector per axis: on a
    # 1025 x 1025 grid neither holds as much as one float64 grid
    p = PhysicalParams(mass=(1.0, 2.0))
    window = tuple(51.2 * s for s in fluctuation_sigma(p, 0.05))
    grid = transition_grid(p, 0.05, window)
    assert grid.shape == (1025, 1025)
    tracemalloc.start()
    try:
        build(p, 0.05, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.n_nodes


def test_sampler_builds_no_grid_shaped_array(monkeypatch):
    # the draws go through the factors, so the sampler never forms the
    # joint law: on the benchmark's 759 x 1075 pair grid, 10^6 draws hold
    # less than one float64 grid at their peak
    p = PhysicalParams(mass=(1.2, 0.8))
    window = tuple(k * s for k, s in
                   zip((37.9, 53.7), fluctuation_sigma(p, 0.05)))
    dist = optimal_transition(p, 0.05, window)
    assert dist.grid.shape == (759, 1075)

    def no_joint(self):
        raise AssertionError("the sampler formed the joint law")

    monkeypatch.setattr(TransitionDistribution, "joint", no_joint)
    sample_fluctuations(dist, 2, seed=3)  # numpy's one-time set-up
    tracemalloc.start()
    try:
        sample_fluctuations(dist, 1_000_000, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * dist.grid.n_nodes


def test_per_axis_moments_equal_the_dense_mesh_formulas():
    # the per-axis cost vectors sum to the dense formula bit for bit; the
    # per-axis mean and variance equal the node-by-node sums over the
    # joint law to roundoff of the axis scale
    p = PhysicalParams(hbar=0.7, mass=(1.0, 2.0))
    grid = transition_grid(p, DT, (1.5, 1.0))
    assert grid.shape[0] != grid.shape[1]
    rng = np.random.default_rng(8)
    dist = TransitionDistribution(
        grid, tuple(rng.uniform(0.5, 1.5, n) for n in grid.shape), DT, p)
    m = dist.joint()
    wa, wb = grid.meshes()
    cost_a, cost_b = fluctuation._axis_costs(grid, p, DT)
    assert np.array_equal(cost_a[:, None] + cost_b[None, :],
                          dense_cost(grid, p, DT))
    mean = np.array([float(np.sum(m * w)) for w in (wa, wb)])
    var = np.array([float(np.sum(m * (w - mu) ** 2))
                    for w, mu in zip((wa, wb), mean)])
    scale = np.array(dist.window)
    assert np.all(np.abs(dist.mean() - mean) <= 1e-14 * scale)
    assert np.all(np.abs(dist.variance() - var) <= 1e-14 * scale**2)


def test_sample_moments_read_the_mean_once():
    # the mean and variance are those of the marginal counts' laws, the
    # mean handed to variance giving the floats it gives on its own
    n = 70_000
    dist = optimal_transition(P2, DT)
    rep = sample_fluctuations(dist, n, seed=7)
    counts = draw_grid(dist.masses, n, seed=7)
    drawn = TransitionDistribution(
        dist.grid, (counts.sum(axis=1), counts.sum(axis=0)), DT, P2)
    unbias = n / (n - 1)
    assert rep.mean == tuple(drawn.mean().tolist())
    assert rep.variance == tuple(float(v) * unbias for v in drawn.variance())


def test_sampling_deterministic_for_seed():
    dist = optimal_transition(P1, DT)
    a = sample_fluctuations(dist, 50_000, seed=42)
    assert sample_fluctuations(dist, 50_000, seed=42) == a
    assert sample_fluctuations(dist, 50_000, seed=43) != a


def test_sample_moments_and_product():
    dist = optimal_transition(P1, DT)
    rep = sample_fluctuations(dist, 200_000, seed=11)
    assert isinstance(rep, FluctuationSample)
    assert abs(rep.mean[0]) <= 5.0 * np.sqrt(0.05 / 200_000)
    assert rep.variance[0] == pytest.approx(0.05, rel=0.02)
    assert rep.position_momentum_product[0] == pytest.approx(0.5, rel=0.01)
    assert rep.expected_product == 0.5


def test_sample_error_scales_like_inverse_sqrt_n():
    dist = optimal_transition(P1, DT)
    target = dist.variance()[0]
    for n in (10_000, 100_000, 1_000_000):
        rep = sample_fluctuations(dist, n, seed=5)
        err = abs(rep.variance[0] - target)
        assert err <= 5.0 * target * np.sqrt(2.0 / n)


def test_bipartite_sampled_covariance_within_mc_noise():
    p = PhysicalParams(mass=(1.0, 2.0))
    dist = optimal_transition(p, DT)
    rep = sample_fluctuations(dist, 200_000, seed=23)
    assert rep.covariance is not None
    assert abs(rep.covariance) <= 3.0 * rep.covariance_mc_sigma


@pytest.mark.parametrize("hbar, masses, dt", [
    (7.9e199, (1.65e-115, 1.69e-47), 4.09e-56),
    (3.7951171307974715e-157, (2.0369871489144177e-82, 2.237990915793447e-73),
     3.646633266933113e-126)], ids=["overflow", "underflow"])
def test_covariance_sigma_is_right_where_the_variance_product_is_not(
        hbar, masses, dt):
    # the product of the two sample variances overflows to inf (1.3e259
    # times 8.8e190) or underflows to 0 (4.4e-201 times 2.9e-210)
    n = 100
    rep = sample_fluctuations(
        optimal_transition(PhysicalParams(hbar=hbar, mass=masses), dt), n,
        seed=3)
    var_a, var_b = rep.variance
    assert var_a * var_b in (0.0, np.inf)
    exact = math.exp(0.5 * (math.log(var_a) + math.log(var_b) - math.log(n)))
    assert rep.covariance_mc_sigma == pytest.approx(exact, rel=1e-13)


def test_sample_count_validation():
    dist = optimal_transition(P1, DT)
    with pytest.raises(ValueError, match="at least 2 draws"):
        sample_fluctuations(dist, 0, seed=1)
    with pytest.raises(ValueError, match="at least 2 draws"):
        sample_fluctuations(dist, 1, seed=1)
