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
    assert abs(dist.covariance()) <= 1e-14


def test_mass_validation():
    dist = optimal_transition(P1, DT)
    with pytest.raises(ValueError):
        TransitionDistribution(dist.grid, -dist.mass, DT, P1)
    with pytest.raises(ValueError):
        TransitionDistribution(dist.grid, dist.mass[:-1], DT, P1)
    with pytest.raises(ValueError):
        dist.covariance()


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
    """Log density relative to the uniform prior, the prior, its mass
    floor, the pull grid, its rate and the weights' work array for one
    score."""
    vols = dist.grid.node_volumes()
    prior = vols / np.sum(vols)
    rate = fluctuation._STEP / (0.5 * dist.params.hbar)
    pull = rate * fluctuation._kinetic_cost(dist.grid, dist.params, dist.dt)
    return (np.log(dist.mass / prior), prior,
            fluctuation._normal_mass_floor(prior), pull, rate,
            np.empty(vols.shape))


def test_step_gradient_is_the_objective_derivative_up_to_a_constant():
    # perturbing the log density at node j by +-h moves the objective by
    # mass_j (g_j - c) per unit h, with one c for every node, where the
    # step is lr <- lr - rate g
    p = PhysicalParams(hbar=1.3, mass=0.7)
    grid = GridSpec.line(17, -2.0, 2.0)
    rng = np.random.default_rng(4)
    mass = np.exp(rng.normal(0.0, 0.5, grid.shape)) * grid.node_volumes()
    dist = TransitionDistribution(grid, mass, DT, p)
    lr, prior, _, pull, rate, _ = score_pieces(dist)
    g = (lr - ((1.0 - fluctuation._STEP) * lr - pull)) / rate
    h = 1e-6
    shifted = []
    for j in range(grid.shape[0]):
        sides = []
        for sign in (1.0, -1.0):
            bumped = lr.copy()
            bumped[j] += sign * h
            sides.append(transition_objective(TransitionDistribution(
                grid, np.exp(bumped) * prior, DT, p)))
        shifted.append((sides[0] - sides[1]) / (2.0 * h * dist.mass[j]) - g[j])
    assert np.ptp(shifted) <= 1e-6 * np.max(np.abs(g))


@pytest.mark.parametrize("params, window", [
    (P1, None), (PhysicalParams(hbar=0.7, mass=(1.0, 2.0)), (1.5, 1.0))])
def test_score_is_the_transition_objective(params, window):
    dist, _ = optimize_transition_numeric(params, DT, window)
    lr, prior, floor, pull, rate, w = score_pieces(dist)
    # an offset of lr moves neither the weights' distribution nor the score
    lr += 3.0
    score = fluctuation._score(lr, prior, floor, pull, rate,
                               0.5 * params.hbar, w)
    assert np.allclose(w / np.sum(w), dist.mass, rtol=1e-12, atol=0.0)
    assert score == pytest.approx(transition_objective(dist), rel=1e-13)


def blend_toward_closed_form(params, dt, window, step=0.5, tol=1e-12):
    """The optimizer's earlier loop, kept as a reference: each iteration
    moves the log density a fraction step of the way to the closed-form
    optimum -2 cost / hbar. Returns (mass, iterations)."""
    grid = transition_grid(params, dt, window)
    vols = grid.node_volumes()
    cost = fluctuation._kinetic_cost(grid, params, dt)
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
    assert np.max(np.abs(num.mass - mass)) <= 1e-12 * np.max(mass)


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
    """optimal_transition with one exp over the whole grid, subnormal
    tail masses included: the reference for the masses that stay."""
    grid = transition_grid(params, dt, window)
    cost = fluctuation._kinetic_cost(grid, params, dt)
    log_density = -2.0 * cost / params.hbar
    log_density -= np.max(log_density)
    mass = np.exp(log_density) * grid.node_volumes()
    return TransitionDistribution(grid, mass, dt, params)


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
        m = dist.mass
        # the full exp does leave subnormal masses on this grid
        assert np.any((full.mass > 0.0) & (full.mass < tiny))
        assert np.all((m == 0.0) | (m >= tiny))
        big = full.mass >= 1e-290
        assert np.array_equal(m >= 1e-290, big)
        assert np.array_equal(m[big], full.mass[big])


def test_kl_divergence_properties():
    closed = optimal_transition(P1, DT)
    assert kl_divergence(closed, closed) == 0.0
    other = optimal_transition(PhysicalParams(mass=1.3), DT)
    with pytest.raises(ValueError):
        kl_divergence(closed, other)  # different grids
    mass = closed.mass.copy()
    mass[mass.size // 2] = 0.0
    holed = TransitionDistribution(closed.grid, mass, DT, P1)
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


@pytest.mark.parametrize("params", [P1, PhysicalParams(mass=(1.0, 2.0))],
                         ids=["1d", "2d"])
def test_sample_moments_equal_the_exact_sums_over_the_draws(params):
    # mean and covariance nearly cancel, so their roundoff is measured
    # against their scales sigma and sigma_a sigma_b
    dist = optimal_transition(params, DT)
    n = 70_000
    rep = sample_fluctuations(dist, n, seed=7)
    mean, var, cov = reference_moments(
        dist, fluctuation._draw_counts(dist, n, seed=7))
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
    return TransitionDistribution(grid, np.ones(grid.shape), DT, P2)


def zero_mass_tails():
    # zero-mass nodes at both ends and one inside
    grid = GridSpec.line(11, -1.0, 1.0)
    mass = np.array([0.0, 0.0, 1.0, 2.0, 0.0, 3.0, 2.0, 1.0, 0.0, 0.0, 0.0])
    return TransitionDistribution(grid, mass, DT, P1)


def assert_counts_of_n_draws(dist, n, seed):
    """The counts of seed's n draws from dist are n non-negative int64s,
    none on a zero-mass node, the same again for seed, and other counts
    for some other seed unless the law sits on one node."""
    counts = fluctuation._draw_counts(dist, n, seed)
    assert counts.dtype == np.int64 and counts.shape == dist.grid.shape
    assert np.all(counts >= 0)
    assert int(counts.sum()) == n
    assert np.all(counts[dist.mass == 0.0] == 0)
    assert np.array_equal(fluctuation._draw_counts(dist, n, seed), counts)
    if np.count_nonzero(dist.mass) > 1:
        assert any(not np.array_equal(
            fluctuation._draw_counts(dist, n, other), counts)
            for other in range(seed + 1, seed + 9))


@pytest.mark.parametrize("make_dist", [
    lambda: optimal_transition(P1, DT), lambda: optimal_transition(P2, DT),
    uniform_pair, zero_mass_tails],
    ids=["1d", "2d", "uniform-pair", "zero-mass-tails"])
@pytest.mark.parametrize("n", [2, 70_001])
def test_draw_counts_equal_the_count_of_each_draw(make_dist, n):
    # the counts stand for n draws; their law is test_draw_counts_fit_the_mass
    assert_counts_of_n_draws(make_dist(), n, seed=7)


def test_no_draw_lands_on_a_zero_mass_node_at_the_largest_count():
    # numpy's multinomial gives its last category the draws that its
    # binomials leave by roundoff: about 1.6e5 of 2**63 - 1 here, where
    # the last rows of the grid hold no mass
    dist = optimal_transition(P2, 0.05, (6.0, 6.0))
    assert dist.mass[-1, -1] == 0.0
    assert_counts_of_n_draws(dist, 2**63 - 1, seed=3)


@pytest.mark.parametrize("make_dist", [uniform_pair, zero_mass_tails])
@pytest.mark.parametrize("seed", [7, 8, 9])
def test_draw_counts_fit_the_mass(make_dist, seed):
    # Pearson's chi-square over the nodes that hold mass, against its
    # 1e-6 upper tail: a right sampler fails one seed in a million
    dist = make_dist()
    n = 100_000
    live = dist.mass > 0.0
    counts = fluctuation._draw_counts(dist, n, seed)[live]
    expected = n * dist.mass[live]
    chi2 = float(np.sum((counts - expected) ** 2 / expected))
    assert chi2 < stats.chi2.isf(1e-6, np.count_nonzero(live) - 1)


@st.composite
def mass_grids(draw):
    """A 1D or 2D distribution whose masses hold runs of zeros, all sit
    on one node, hold runs of positive masses too small to move the cdf,
    or sum in flat order to a cdf that rounds above 1 before its last
    node (a tiny last mass), with that last case's flag."""
    kind = draw(st.sampled_from(["zero-runs", "one-node", "flat-runs",
                                 "overshoot"]))
    # an axis has at least 8 nodes
    shape = draw(st.tuples(st.integers(8, 400))
                 | st.tuples(st.integers(8, 24), st.integers(8, 24)))
    size = math.prod(shape)
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
        # from node 0 on the cdf is at least 0.5 / 576, half an ulp of it
        # above 5e-20, and the masses sum to at least 0.5, so a mass of
        # 1e-20 normalizes to at most 2e-20 and every other one to above
        # 8e-4
        mass = rng.uniform(0.5, 1.0, size)
        for _ in range(rng.integers(0, 4)):
            a = rng.integers(1, size)
            mass[a:a + rng.integers(1, size)] = 1e-20
        mass[-1] = 1e-20
    else:
        # one try in ten rounds past 1 on 8 nodes, one in three on 400
        while True:
            mass = rng.uniform(0.0, 1.0, size)
            mass[-1] = 1e-300
            if np.cumsum(mass / mass.sum())[-2] > 1.0:
                break
    grid = GridSpec(tuple(Axis(k, -1.0, 1.0) for k in shape))
    dist = TransitionDistribution(grid, mass.reshape(shape), DT,
                                  P1 if len(shape) == 1 else P2)
    return dist, kind == "overshoot"


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=mass_grids(), n=st.integers(2, 2**63 - 1))
def test_draw_counts_equal_the_count_of_each_draw_for_any_masses(case, n):
    # up to the command line's largest count, where the multinomial
    # leaves draws by roundoff: none may land on a zero-mass node
    dist, overshoot = case
    if overshoot:
        assert np.cumsum(dist.mass.reshape(-1))[-2] > 1.0
    assert_counts_of_n_draws(dist, n, seed=5)


def test_draw_counts_peak_does_not_grow_with_n():
    # the counts are drawn at once, never as draws: the traced peak at
    # 1e15 draws is that at 1e6, a few arrays of the grid's 759 nodes
    dist = optimal_transition(P1, 0.05, (6.0,))
    assert dist.grid.shape == (759,)
    fluctuation._draw_counts(dist, 2, seed=3)  # numpy's one-time set-up
    peaks = []
    for n in (1_000_000, 10**15):
        tracemalloc.start()
        try:
            fluctuation._draw_counts(dist, n, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] <= 8 * dist.grid.n_nodes * 8


def test_optimizer_frees_its_work_grids_before_the_result_copies_w():
    # the loop holds four grids of float64 (prior, pull, log density,
    # weights) and a boolean mask; the returned distribution normalizes a
    # copy of the weights, which would make five if the other three
    # grids were still alive then
    grid = transition_grid(P2, 0.05, (6.0, 6.0))
    assert grid.shape == (759, 1075)
    tracemalloc.start()
    try:
        optimize_transition_numeric(P2, 0.05, (6.0, 6.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * grid.n_nodes * 8


def test_open_mesh_terms_equal_the_dense_mesh_formulas_bit_for_bit():
    p = PhysicalParams(hbar=0.7, mass=(1.0, 2.0))
    grid = transition_grid(p, DT, (1.5, 1.0))
    assert grid.shape[0] != grid.shape[1]
    rng = np.random.default_rng(8)
    dist = TransitionDistribution(
        grid, rng.uniform(0.5, 1.5, grid.shape), DT, p)
    m = dist.mass
    wa, wb = np.meshgrid(*grid.coordinates(), indexing="ij")
    cost = np.zeros(grid.shape)
    for ax, w in enumerate((wa, wb)):
        cost += p.mass_along(ax) * w**2 / (2.0 * DT)
    mean = [float(np.sum(m * w)) for w in (wa, wb)]
    var = [float(np.sum(m * (w - mu) ** 2)) for w, mu in zip((wa, wb), mean)]
    cov = float(np.sum(m * (wa - mean[0]) * (wb - mean[1])))
    assert np.array_equal(fluctuation._kinetic_cost(grid, p, DT), cost)
    assert dist.mean().tolist() == mean
    assert dist.variance().tolist() == var
    assert dist.covariance() == cov


def test_sample_moments_read_the_mean_once():
    # the mean handed to variance and covariance gives the floats that
    # the three methods give on their own
    n = 70_000
    dist = optimal_transition(P2, DT)
    rep = sample_fluctuations(dist, n, seed=7)
    drawn = TransitionDistribution(
        dist.grid, fluctuation._draw_counts(dist, n, seed=7), DT, P2)
    unbias = n / (n - 1)
    assert rep.mean == tuple(drawn.mean().tolist())
    assert rep.variance == tuple(float(v) * unbias for v in drawn.variance())
    assert rep.covariance == drawn.covariance() * unbias


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
    # the product of the two sample variances overflows to inf (1.1e259
    # times 9.3e190) or underflows to 0 (3.8e-201 times 3.0e-210)
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
