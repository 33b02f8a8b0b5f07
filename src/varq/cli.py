"""Command line front end: run a named scenario from a JSON config.

Every run writes a deterministic JSON report (sorted keys, no
timestamps) stamped with the sha256 of its canonical config, so repeat
runs are byte-identical and diffable. Exit codes: 0 success, 1 runtime
failure, 2 invalid config with every violation listed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .bipartite import (
    BipartiteParams,
    pair_grid,
    relative_grid,
    three_route_comparison,
)
from .constraints import (
    EnsembleHamiltonian,
    LocalMomentum,
    classical_consistency,
    poisson_bracket,
)
from .fields import (
    Free,
    Harmonic,
    MadelungState,
    PhysicalParams,
    Polynomial,
    hbar_squared,
    potential_values,
)
from .fluctuation import (
    POINTS_PER_SIGMA,
    NonConvergenceError,
    default_window,
    fluctuation_sigma,
    kl_divergence,
    optimal_transition,
    optimize_transition_numeric,
    sample_fluctuations,
    window_problems,
)
from .grid import (DEFAULT_ORDER, DIRICHLET, PERIODIC, ComplexField,
                   GridSpec, NonFiniteFieldError, RealField,
                   integrate_values, stencil_divisor)
from .solvers import (
    DensityFloorError,
    UnresolvedLevelError,
    eigensolve_1d,
    node_exclusion_mask,
    propagate_madelung,
    propagate_wavefunction,
    quantization_route_report,
    resolved_nodes,
    rest_residuals,
    stability_substeps,
    vanishing_momentum_scenario,
    wall_violation,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

# Largest grids a config may ask for: 64 times the largest shipped line
# grid, and about a million pair nodes. Without a bound only the host's
# memory would stop an oversized grid.
MAX_LINE_POINTS = 65_536
MAX_PAIR_POINTS = 1_024
# Most RK4 substeps (steps times substeps per step) one fields-route run
# may take on up to _SUBSTEP_POINTS nodes, about 50 times the acceptance
# test's longest propagation; a larger grid gets proportionally fewer,
# so the cap bounds substeps times nodes, which sets the run time.
MAX_RUN_SUBSTEPS = 1_000_000
_SUBSTEP_POINTS = 512
# Most draws one fluctuate run may take: the sampler's multinomial counts
# them in int64. The draw costs the same at any count up to it.
MAX_SAMPLES = 2**63 - 1

_STIFF_WARN = 0.1


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# -- field kinds -------------------------------------------------------------
# A kind is a converter followed by checks: each check is a test and the
# complaint that completes "<dotted path> ..." when the test fails. The
# converter sees only values that pass every check.

def _is_number(val) -> bool:
    """A finite JSON number (booleans, NaN and infinities are not)."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and (isinstance(val, int) or math.isfinite(val)))


_NUMBER = (float, (_is_number, "must be a number"))
_POSITIVE = _NUMBER + ((lambda x: x > 0, "must be positive"),)
_NON_NEGATIVE = (float, (lambda x: _is_number(x) and x >= 0,
                         "must be a non-negative number"))
_INTEGER = (int, _NUMBER[1], (lambda x: int(x) == x, "must be an integer"))
_COUNT = _INTEGER + ((lambda x: x > 0, "must be positive"),)
_BOOLEAN = (bool, (lambda x: isinstance(x, bool), "must be a boolean"))
_NUMBERS = (lambda x: tuple(map(float, x)),
            (lambda x: isinstance(x, list) and x and all(map(_is_number, x)),
             "must be a list of numbers"))
# one mass, or a pair of them for two independent axes
_MASSES = (lambda x: tuple(map(float, x)) if isinstance(x, list) else float(x),
           (lambda x: _is_number(x) or (isinstance(x, list) and len(x) == 2
                                        and all(map(_is_number, x))),
            "must be a number or a pair of numbers"),
           (lambda x: np.min(x) > 0, "must be positive"))


def _at_least(kind: tuple, low: int) -> tuple:
    return kind + ((lambda x: x >= low, f"must be at least {low}"),)


def _at_most(kind: tuple, high: int) -> tuple:
    return kind + ((lambda x: x <= high, f"must be at most {high}"),)


def _one_of(*names: str) -> tuple:
    quoted = [f"'{name}'" for name in names]
    return (str, (lambda x: isinstance(x, str) and x in names,
                  f"must be {', '.join(quoted[:-1])} or {quoted[-1]}"))


# -- the reader --------------------------------------------------------------

class _Unparsed(Exception):
    """A rule read a value whose own field did not parse."""


class _Values(dict):
    """Parsed values by dotted path, plus what the rules build from them."""

    def __missing__(self, key):
        raise _Unparsed(key)


def _read(cfg: dict, rows) -> tuple[_Values, list]:
    """Apply a field table of (dotted path, kind, default) rows. A missing
    key takes the default; a default of ... marks it required. JSON null
    is a value like any other."""
    values, errors = _Values(), []
    for path, (convert, *checks), default in rows:
        *blocks, key = path.split(".")
        node, complaint = cfg, None
        for depth, block in enumerate(blocks):
            node = node.get(block, {})
            if not isinstance(node, dict):
                complaint = f"{'.'.join(blocks[:depth + 1])} must be an object"
                break
        if complaint is None and key in node:
            complaint = next((f"{path} {bad}" for test, bad in checks
                              if not test(node[key])), None)
            if complaint is None:
                values[path] = convert(node[key])
        elif complaint is None and default is ...:
            complaint = f"{path} is required"
        elif complaint is None:
            values[path] = default
        if complaint:
            errors.append(complaint)
    return values, list(dict.fromkeys(errors))


# -- field tables per block --------------------------------------------------

_GRID = (
    ("grid.points", _at_most(_at_least(_COUNT, 8), MAX_LINE_POINTS), ...),
    ("grid.min", _NUMBER, ...),
    ("grid.max", _NUMBER, ...),
    ("grid.boundary", _one_of(DIRICHLET, PERIODIC), DIRICHLET),
)

_SYSTEM = (
    ("system.hbar", _POSITIVE, 1.0),
    ("system.mass", _POSITIVE, ...),
)

_POTENTIAL = (
    ("system.potential.kind", _one_of("free", "harmonic", "polynomial"),
     "free"),
    ("system.potential.strength", _NON_NEGATIVE, 1.0),
    ("system.potential.center", _NUMBER, 0.0),
    ("system.potential.coefficients", _NUMBERS, None),
)

_PAIR = (
    ("pair.mass_a", _POSITIVE, ...),
    ("pair.mass_b", _POSITIVE, ...),
    ("pair.hbar", _POSITIVE, 1.0),
    ("pair.points", _at_most(_at_least(_COUNT, 8), MAX_PAIR_POINTS), ...),
    ("pair.length", _POSITIVE, ...),
    ("pair.interaction.kind", _one_of("free", "harmonic"), "free"),
    ("pair.interaction.strength", _NON_NEGATIVE, 1.0),
    ("pair.interaction.center", _NUMBER, 0.0),
)

_INITIAL = (
    ("initial.center", _NUMBER, 0.0),
    ("initial.width", _POSITIVE, 1.0),
)

# one particle on a line grid
_PARTICLE = _GRID + _SYSTEM + _POTENTIAL


# -- cross-field rules -------------------------------------------------------
# A rule yields violations and stores what it builds in the values. A rule
# that reads a value whose field did not parse is skipped: that field's
# own violation is already listed.

def _grid(v):
    if v["grid.max"] <= v["grid.min"]:
        yield "grid.max must exceed grid.min"
        return
    if math.isinf(v["grid.max"] - v["grid.min"]):
        yield "grid.max - grid.min overflows"
        return
    v["grid"] = GridSpec.line(v["grid.points"], v["grid.min"], v["grid.max"],
                              v["grid.boundary"])


def _analytic(v, block: str):
    """A table without the block's rows (fluctuate) gets a free particle."""
    return Free() if v.get(f"{block}.kind", "free") == "free" else Harmonic(
        k=v[f"{block}.strength"], center=v[f"{block}.center"])


def _finite_hamiltonian(params: PhysicalParams, grid: GridSpec, path: str):
    """H = -(hbar^2 / 2m) d2/dx2 + V must have finite entries on the grid."""
    dx = grid.axes[0].dx
    mass = params.mass_along(0)
    scale = 2.0 * mass * dx * dx
    square, power = hbar_squared(params)
    # formed as the bands form it; over an inf 2 m dx^2 they read 0, which
    # only a finite hbar^2 allows
    kinetic = square / scale * power * power if scale else math.inf
    if not math.isfinite(kinetic) or (
            scale == math.inf and math.isinf(square * power * power)):
        yield (f"the kinetic scale hbar^2 / (2 m dx^2) overflows at grid "
               f"spacing {dx:.3g}")
    elif (scale == math.inf or
          stencil_divisor(grid.axes[0], DEFAULT_ORDER, 2) == math.inf):
        # the bands (over 2 m dx^2) or a d2/dx2 stencil (over d dx^2; Q and
        # the fields route's stability rate apply one) then read the
        # kinetic term as 0: true only when the scale, formed from the
        # factors' mantissas and exponents, is below the normal range
        (h, eh), (m, em), (d, ed) = map(math.frexp, (params.hbar, mass, dx))
        exact = math.ldexp(h * h / (2.0 * m * d * d), 2 * eh - em - 2 * ed)
        if exact >= sys.float_info.min:
            yield (f"the kinetic scale hbar^2 / (2 m dx^2) = {exact:.3g} "
                   f"cannot be formed at grid spacing {dx:.3g}: 2 m dx^2 "
                   "or dx^2 overflows")
    with np.errstate(over="ignore", invalid="ignore"):
        v = potential_values(params.potential, grid)
        # the bands' diagonal on the unknowns, numerators (2, -4, 2) over 2
        inner = v if grid.axes[0].boundary == PERIODIC else v[1:-1]
        if not np.all(np.isfinite(v)):
            yield f"{path} is not finite at every grid node"
        elif math.isfinite(kinetic) and not np.all(np.isfinite(
                inner + 2 * kinetic)):
            yield (f"the diagonal V + hbar^2 / (m dx^2) of H overflows at "
                   f"grid spacing {dx:.3g}")


def _system(v):
    """The physical parameters; a line grid must hold the Hamiltonian."""
    if v.get("system.potential.kind") != "polynomial":
        potential = _analytic(v, "system.potential")
    elif v["system.potential.coefficients"] is None:
        yield "system.potential.coefficients is required"
        return
    else:
        potential = Polynomial(v["system.potential.coefficients"])
    params = PhysicalParams(hbar=v["system.hbar"], mass=v["system.mass"],
                            potential=potential)
    # fluctuate has no grid; later rules may rely on a finite Hamiltonian
    problems = list(_finite_hamiltonian(params, v["grid"], "system.potential")
                    if "grid" in v else ())
    yield from problems
    if not problems:
        v["params"] = params


def _pair(v):
    if v["pair.points"] % 2:
        yield "pair.points must be even"
        return
    v["pair"] = BipartiteParams(
        mass_a=v["pair.mass_a"], mass_b=v["pair.mass_b"],
        interaction=_analytic(v, "pair.interaction"), hbar=v["pair.hbar"])
    # the separation grid spans [-L/2, L/2]
    if 0.5 * v["pair.length"] == 0.0:
        yield (f"pair.length {v['pair.length']:.3g} is too small: half of "
               "it, the separation grid's bound, rounds to 0")
        return
    v["pair_grid"] = pair_grid(v["pair.points"], v["pair.length"])
    if not 0.0 < v["pair"].reduced_mass < math.inf:
        yield ("pair.mass_a and pair.mass_b give a reduced mass "
               "m_a m_b / (m_a + m_b) that is not positive and finite")
        return
    # the reduced problem has the smallest mass and every separation
    yield from _finite_hamiltonian(v["pair"].reduced_physical(),
                                   relative_grid(v["pair_grid"]),
                                   "pair.interaction")


def _check_levels(grid: GridSpec, levels: int, path: str):
    """eigensolve_1d needs hard walls and at most points - 2 levels."""
    if grid.axes[0].boundary != DIRICHLET:
        yield "grid.boundary must be 'dirichlet': eigenstates need hard walls"
    n = grid.shape[0]
    if levels > n - 2:
        yield (f"{path} asks for {levels} levels, but {n} grid points hold "
               f"at most {n - 2}")


def _count_levels(v):
    return _check_levels(v["grid"], v["count"], "count")


def _initial(v):
    """The normalized Gaussian packet, which must not underflow anywhere."""
    grid = v["grid"]
    x = grid.coordinates()[0]
    # as a float64 a huge width squares to inf, a flat start, not an error
    with np.errstate(over="ignore", invalid="ignore"):
        spread = 2.0 * np.float64(v["initial.width"]) ** 2
        if spread == 0.0:
            yield (f"initial.width = {v['initial.width']:g} is too narrow: "
                   "its square underflows to zero")
            return
        rho = np.exp(-((x - v["initial.center"]) ** 2) / spread)
    if np.isnan(rho).any():
        yield ("initial density is not a number on this grid: both "
               "(x - initial.center)^2 and 2 initial.width^2 overflow")
        return
    total = integrate_values(rho, grid)
    if total <= 0:
        yield "initial density vanishes on this grid"
        return
    rho /= total
    if np.min(rho) <= 0.0:
        yield ("initial.width is too narrow for this grid: the density "
               "underflows at the edges")
        return
    v["state"] = MadelungState(RealField(grid, rho),
                               RealField(grid, np.zeros(grid.shape)))


def _unitary_start(v):
    """sqrt(rho) as the unitary route's start; it must vanish on the wall."""
    psi = np.sqrt(v["state"].density.values)
    problem = wall_violation(psi, v["grid"])
    if problem:
        yield problem
        return
    v["psi0"] = ComplexField(v["grid"], psi.astype(complex))


def _substeps(v):
    """The fields route's RK4 substeps per step; the whole run must stay
    within MAX_RUN_SUBSTEPS scaled down for grids above _SUBSTEP_POINTS."""
    limit = (MAX_RUN_SUBSTEPS * _SUBSTEP_POINTS
             // max(_SUBSTEP_POINTS, v["grid"].n_nodes))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            per_step = stability_substeps(v["state"], v["params"], v["dt"])
    except NonFiniteFieldError:  # Q, the one field it builds
        spacing = " and ".join(f"{axis.dx:g}" for axis in v["grid"].axes)
        yield ("the initial density's quantum potential Q is not finite on "
               f"this grid for system.hbar = {v['system.hbar']:g}, "
               f"system.mass = {v['system.mass']}, grid spacing {spacing}")
        return
    except ValueError as exc:
        yield str(exc)
        return
    if per_step * v["steps"] > limit:
        yield (f"dt = {v['dt']:g} needs {per_step:.3g} RK4 substeps per "
               f"step, {per_step * v['steps']:.3g} in all, above "
               f"{limit:,}")
        return
    v["substeps"] = per_step


def _window(v):
    """The window, given or default, must hold the fluctuation, and its
    kinetic cost must be finite on the whole transition grid."""
    params, dt, window = v["params"], v["dt"], v["window"]
    try:
        sig = fluctuation_sigma(params, dt)
    except ValueError as exc:
        yield str(exc)
        return
    if window is None:
        window = default_window(params, dt)
    yield from window_problems(window, sig)
    cost = 0.0  # the transition grid's kinetic cost at a corner, in its order
    # only the axes that exist: a window of the wrong length is a
    # complaint already
    for ax, w in zip(range(len(sig)), window):
        cost += params.mass_along(ax) * (w * w) / (2.0 * dt)
        if math.isinf(cost):
            yield (f"window[{ax}] = {w:g} is too wide: the kinetic cost "
                   f"m w^2 / (2 dt) overflows at the edge of the grid")
            return


def _stiffness_warnings(params: PhysicalParams, grid: GridSpec,
                        dt: float) -> list:
    v = potential_values(params.potential, grid)
    ratio = dt * float(np.max(np.abs(v))) / params.hbar
    if ratio > _STIFF_WARN:
        return [f"dt resolves the potential poorly: "
                f"dt max|V| / hbar = {ratio:.3g} exceeds {_STIFF_WARN}"]
    return []


# -- scenarios ---------------------------------------------------------------
# A runner takes the parsed values, fills plots, returns (results, warnings).

def _run_eigen(v, plots):
    grid = v["grid"]
    spec = eigensolve_1d(v["params"], grid, k=v["count"],
                         richardson=v["richardson"])
    results = {"eigenvalues": spec.eigenvalues, "residuals": spec.residuals}
    if v["richardson"]:
        results["refined_eigenvalues"] = spec.refined_eigenvalues
    x = grid.coordinates()[0]
    for j, f in enumerate(spec.eigenfunctions):
        plots[f"state_{j}"] = (("x", "amplitude"),
                               np.column_stack([x, f.values]))
    return results, []


def _run_evolve(v, plots):
    grid, params, dt, steps = v["grid"], v["params"], v["dt"], v["steps"]
    store = steps if v["store_every"] is None else v["store_every"]
    warnings = _stiffness_warnings(params, grid, dt)
    x = grid.coordinates()[0]
    if v["method"] == "fields":
        traj = propagate_madelung(v["state"], params, dt, steps,
                                  store_every=store, substeps=v["substeps"])
        rho_end = traj.states[-1].density.values
        results = {"substeps_per_step": traj.substeps_per_step,
                   "mass_drift": traj.mass_drift}
        plots["final_action"] = (
            ("x", "action"),
            np.column_stack([x, traj.states[-1].action.values]))
    else:
        traj = propagate_wavefunction(v["psi0"], params, dt, steps,
                                      store_every=store)
        rho_end = np.abs(traj.states[-1].values) ** 2
        results = {"norms": traj.norms, "norm_drift": traj.norm_drift}
    mean = integrate_values(rho_end * x, grid)
    results.update({
        "method": v["method"],
        "times": traj.times,
        "final_mean": mean,
        "final_variance": integrate_values(rho_end * (x - mean) ** 2, grid),
    })
    plots["final_density"] = (("x", "density"),
                              np.column_stack([x, rho_end]))
    return results, warnings


def _run_compare(v, plots):
    grid, params, dt, steps = v["grid"], v["params"], v["dt"], v["steps"]
    warnings = _stiffness_warnings(params, grid, dt)
    traj_m = propagate_madelung(v["state"], params, dt, steps,
                                store_every=steps, substeps=v["substeps"])
    traj_c = propagate_wavefunction(v["psi0"], params, dt, steps,
                                    store_every=steps)
    rho_m = traj_m.states[-1].density.values
    rho_c = np.abs(traj_c.states[-1].values) ** 2
    l2 = float(np.sqrt(integrate_values((rho_m - rho_c) ** 2, grid)))
    x = grid.coordinates()[0]
    plots["final_densities"] = (
        ("x", "fields_route", "unitary_route"),
        np.column_stack([x, rho_m, rho_c]))
    results = {
        "density_l2_difference": l2,
        "substeps_per_step": traj_m.substeps_per_step,
        "mass_drift": traj_m.mass_drift[-1],
        "norm_drift": traj_c.norm_drift,
        "elapsed_time": steps * dt,
    }
    return results, warnings


def _run_fluctuate(v, plots):
    params, dt, window = v["params"], v["dt"], v["window"]
    samples, seed = v["samples"], v["seed"]
    closed = optimal_transition(params, dt, window)
    numeric, iterations = optimize_transition_numeric(params, dt, window)
    sample = sample_fluctuations(closed, samples, seed)
    sig = fluctuation_sigma(params, dt)
    results = {
        "sigma": list(sig),
        "window": list(closed.window),
        "analytic_variance": [s * s for s in sig],
        "optimized_variance": list(numeric.variance()),
        "kl_numeric_vs_closed": kl_divergence(numeric, closed),
        "iterations": iterations,
        "samples": samples,
        "seed": seed,
        "sample_mean": list(sample.mean),
        "sample_variance": list(sample.variance),
        "uncertainty_product": list(sample.position_momentum_product),
        "expected_product": sample.expected_product,
        "sample_covariance": sample.covariance,
        "covariance_mc_sigma": sample.covariance_mc_sigma,
    }
    grid = closed.grid
    if grid.dimension == 1:
        plots["transition_density"] = (
            ("displacement", "density"),
            np.column_stack([grid.coordinates()[0],
                             closed.density().values]))
    # the point cap left fewer nodes than the window needs
    warnings = [f"transition grid capped at {axis.n_points} nodes on axis "
                f"{ax}: {s / axis.dx:.3g} nodes per sigma, below "
                f"{POINTS_PER_SIGMA}"
                for ax, (axis, s) in enumerate(zip(grid.axes, sig))
                if axis.n_points * s < POINTS_PER_SIGMA * axis.span]
    return results, warnings


def _run_constraint_check(v, plots):
    grid, params, level = v["grid"], v["params"], v["level"]
    spec = eigensolve_1d(params, grid, k=level + 1)
    energy = float(spec.eigenvalues[level])
    psi = spec.eigenfunctions[level].values
    rho = RealField(grid, psi**2)
    state = MadelungState(rho, RealField(grid, np.zeros(grid.shape)))
    momentum = LocalMomentum()
    hamiltonian = EnsembleHamiltonian(params)
    bracket = poisson_bracket(momentum, hamiltonian, state)
    # Q diverges at the nodes of an excited state: read the resolved nodes
    keep = resolved_nodes(rho, node_exclusion_mask(psi), level)
    hj_max, continuity_max = rest_residuals(rho, energy, params, keep)
    force = classical_consistency(params, grid)
    results = {
        "level": level,
        "energy": energy,
        "local_momentum_value": momentum.value(state),
        "ensemble_energy": hamiltonian.value(state),
        "bracket_value": bracket.value,
        "bracket_scale": bracket.scale,
        "bracket_consistent": bracket.consistent,
        "density_residual_max": hj_max,
        "action_residual_max": continuity_max,
        "classical_force_vanishes": force.vanishes,
        "classical_force_peak": force.secondary_max,
    }
    return results, []


def _run_vanishing_momentum(v, plots):
    res = vanishing_momentum_scenario(v["params"], v["grid"], k=v["count"])
    routes = quantization_route_report(res)
    rows = [{
        "label": rep.label,
        "branch": rep.branch,
        "energy": rep.energy,
        "multiplier": rep.multiplier,
        "stationarity_residual": rep.hj_residual_max,
        "density_rate": rep.density_rate_max,
        "momentum_gradient": rep.momentum_gradient_max,
        "density_gradient_scale": rep.density_gradient_scale,
    } for rep in res.reports + [res.trivial]]
    route_rows = [{
        "label": r.label,
        "momentum_norm": r.momentum_norm,
        "amplitude_momentum_norm": r.amplitude_momentum_norm,
        "nonlinear_residual": r.nonlinear_residual_max,
        "energy_gap": r.energy_gap,
    } for r in routes.rows]
    results = {"branches": rows, "operator_route": route_rows,
               "nonlinear_ok": routes.nonlinear_ok}
    return results, []


def _run_three_route(v, plots):
    rep = three_route_comparison(v["pair"], n=v["pair.points"],
                                 length=v["pair.length"], k=v["count"])
    rows = [{
        "index": r.index,
        "energy_reduced": r.energy_reduced,
        "energy_operator": r.energy_operator,
        "energy_extremal": r.energy_extremal,
        "max_gap": r.max_gap,
    } for r in rep.rows]
    results = {
        "rows": rows,
        "max_gap": rep.max_gap(),
        "translation_residual": rep.translation_residual_max,
        "stationarity_residual": rep.hj_residual_max,
        "action_residual": rep.action_residual_max,
        "total_momentum": rep.total_momentum,
        "relative_density": rep.relative_density,
    }
    return results, []


def _run_bipartite(v, plots):
    pair = v["pair"]
    rep = three_route_comparison(pair, n=v["pair.points"],
                                 length=v["pair.length"], k=1)
    force = classical_consistency(pair.as_physical(), v["pair_grid"])
    ia, ib = rep.information_a, rep.information_b
    results = {
        "ground_energy": rep.rows[0].energy_reduced,
        "information_a": ia,
        "information_b": ib,
        "information_ratio": ia / ib,
        "expected_ratio": pair.mass_b / pair.mass_a,
        "translation_residual": rep.translation_residual_max,
        "translation_force_vanishes": force.vanishes,
        "translation_force_peak": force.secondary_max,
    }
    mode = rep.separation_mode
    plots["separation_mode"] = (
        ("separation", "amplitude"),
        np.column_stack([mode.grid.coordinates()[0], mode.values]))
    return results, []


# name -> (field table, cross-field rules, runner)
SCENARIOS = {
    "eigen": (
        _PARTICLE + (("count", _COUNT, 1), ("richardson", _BOOLEAN, False)),
        (_grid, _system, _count_levels), _run_eigen),
    "evolve": (
        _PARTICLE + _INITIAL + (
            ("method", _one_of("fields", "unitary"), "fields"),
            ("dt", _POSITIVE, ...), ("steps", _COUNT, ...),
            ("store_every", _COUNT, None)),
        (_grid, _system, _initial, lambda v: (
            _unitary_start if v["method"] == "unitary" else _substeps)(v)),
        _run_evolve),
    "compare-propagators": (
        _PARTICLE + _INITIAL + (("dt", _POSITIVE, ...),
                                ("steps", _COUNT, ...)),
        (_grid, _system, _initial, _unitary_start, _substeps),
        _run_compare),
    "fluctuate": (
        (("system.hbar", _POSITIVE, 1.0), ("system.mass", _MASSES, ...),
         ("dt", _POSITIVE, ...),
         ("samples", _at_most(_at_least(_COUNT, 2), MAX_SAMPLES), 100_000),
         ("window", _NUMBERS, None)),
        (_system, _window, lambda v: () if v["seed"] is not None else (
            "fluctuate needs a seed (config key 'seed' or --seed)",)),
        _run_fluctuate),
    "constraint-check": (
        _PARTICLE + (("level", _at_least(_INTEGER, 0), 0),),
        (_grid, _system,
         lambda v: _check_levels(v["grid"], v["level"] + 1, "level")),
        _run_constraint_check),
    "vanishing-momentum": (
        _PARTICLE + (("count", _COUNT, 3),),
        (_grid, _system, _count_levels), _run_vanishing_momentum),
    "three-route": (
        _PAIR + (("count", _COUNT, 3),),
        (_pair, lambda v: _check_levels(relative_grid(v["pair_grid"]),
                                        v["count"], "count")),
        _run_three_route),
    "bipartite": (_PAIR, (_pair,), _run_bipartite),
}


def _parse(fields: tuple, rules: tuple, cfg: dict, seed) -> tuple:
    """The parsed values and every violation of the table and the rules."""
    values, errors = _read(cfg, fields)
    values["seed"] = seed
    for rule in rules:
        try:
            errors.extend(rule(values))
        except _Unparsed:
            pass
    return values, errors


# -- report and plot output --------------------------------------------------

def write_report(out_dir: Path, scenario: str, cfg: dict, results: dict,
                 warnings: list) -> Path:
    report = {
        "scenario": scenario,
        "config_sha256": config_hash(cfg),
        "config": cfg,
        "results": results,
        "warnings": list(warnings),
    }
    path = out_dir / f"{scenario}_report.json"
    # numpy arrays and scalars become lists and numbers; a NaN or infinity
    # raises rather than being written as a token standard JSON rejects
    path.write_text(json.dumps(report, sort_keys=True, indent=2,
                               default=lambda o: o.tolist(),
                               allow_nan=False) + "\n")
    return path


def write_plot_data(out_dir: Path, scenario: str, name: str, sha: str,
                    columns, table: np.ndarray) -> Path:
    path = out_dir / f"{scenario}_{name}.dat"
    with path.open("w") as fh:
        fh.write(f"# config {sha}\n")
        fh.write("# columns: " + " ".join(columns) + "\n")
        for row in np.atleast_2d(table):
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
    return path


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="varq",
        description="numerical scenarios for stationary-action quantization")
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--config", required=True,
                        help="path to a JSON scenario config")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=".",
                        help="directory for reports and plot data")
    parser.add_argument("--emit-plots", action="store_true",
                        help="also write plain-text plot columns")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        print(f"config error: {args.config} is not valid JSON: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(cfg, dict):
        print("config error: top level must be a JSON object",
              file=sys.stderr)
        return EXIT_CONFIG

    seed = args.seed if args.seed is not None else cfg.get("seed")
    # the sampler keys its generator with np.uint64(seed)
    if (seed is not None or "seed" in cfg) and (
            isinstance(seed, bool) or not isinstance(seed, int)
            or not 0 <= seed < 2**64):
        print("config error: seed must be an integer in 0..2**64 - 1",
              file=sys.stderr)
        return EXIT_CONFIG

    fields, rules, run = SCENARIOS[args.scenario]
    values, errors = _parse(fields, rules, cfg, seed)
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create {out_dir}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG

    plots: dict = {}
    # warnings raised in the run, numpy's RuntimeWarnings among them, are
    # shown only once its report is written: a failed run's one
    # runtime-error line explains the exit
    with warnings.catch_warnings(record=True) as held:
        try:
            results, notes = run(values, plots)
        except (DensityFloorError, NonConvergenceError, UnresolvedLevelError,
                np.linalg.LinAlgError) as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        except NonFiniteFieldError as exc:
            print(f"runtime error: the run overflowed: {exc}",
                  file=sys.stderr)
            return EXIT_RUNTIME

    try:
        path = write_report(out_dir, args.scenario, cfg, results, notes)
        for msg in held:
            warnings.showwarning(msg.message, msg.category, msg.filename,
                                 msg.lineno, line=msg.line)
        for note in notes:
            print(f"warning: {note}", file=sys.stderr)
        print(f"wrote {path}")
        if args.emit_plots:
            sha = config_hash(cfg)
            for name, (columns, table) in sorted(plots.items()):
                ppath = write_plot_data(out_dir, args.scenario, name, sha,
                                        columns, table)
                print(f"wrote {ppath}")
    except OSError as exc:
        # a write that fails after open() names no file
        print(f"config error: cannot write {exc.filename or out_dir}: "
              f"{exc.strerror}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"runtime error: report not written: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
