"""Command line front end: run a named scenario from a JSON config.

Every run writes a deterministic JSON report (sorted keys, no
timestamps) stamped with the sha256 of its canonical config, so repeat
runs are byte-identical and diffable. Exit codes: 0 success, 1 runtime
failure, 2 invalid config with every violation listed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from .action import information_metric
from .bipartite import (
    BipartiteParams,
    lift_relative,
    pair_grid,
    relative_grid,
    three_route_comparison,
    translation_residual,
)
from .constraints import (
    EnsembleHamiltonian,
    LocalMomentum,
    classical_consistency,
    poisson_bracket,
    stationarity_residuals,
)
from .fields import (
    Free,
    Harmonic,
    MadelungState,
    PhysicalParams,
    Sampled,
    potential_values,
)
from .fluctuation import (
    NonConvergenceError,
    fluctuation_sigma,
    kl_divergence,
    optimal_transition,
    optimize_transition_numeric,
    sample_fluctuations,
)
from .grid import DIRICHLET, PERIODIC, ComplexField, GridSpec, RealField, integrate_values
from .solvers import (
    DensityFloorError,
    eigensolve_1d,
    propagate_madelung,
    propagate_wavefunction,
    quantization_route_report,
    vanishing_momentum_scenario,
    wall_violation,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

_STIFF_WARN = 0.1
_MIN_WINDOW_SIGMAS = 6.0


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


# -- config parsing ----------------------------------------------------------

def _get(cfg: dict, path: str):
    cur = cfg
    for part in path.split("."):
        if not isinstance(cur, dict) or part not in cur:
            return None
        cur = cur[part]
    return cur


def _is_number(val) -> bool:
    """A finite JSON number (booleans, NaN and infinities are not)."""
    return (isinstance(val, (int, float)) and not isinstance(val, bool)
            and (isinstance(val, int) or math.isfinite(val)))


def _number(cfg, path, errors, *, positive=False, integer=False,
            required=True, default=None):
    val = _get(cfg, path)
    if val is None:
        if required:
            errors.append(f"{path} is required")
        return default
    if not _is_number(val):
        errors.append(f"{path} must be a number")
        return default
    if integer and int(val) != val:
        errors.append(f"{path} must be an integer")
        return default
    if positive and val <= 0:
        errors.append(f"{path} must be positive")
        return default
    return int(val) if integer else float(val)


def _build_grid(cfg: dict, errors: list) -> GridSpec | None:
    n = _number(cfg, "grid.points", errors, positive=True, integer=True)
    lo = _number(cfg, "grid.min", errors)
    hi = _number(cfg, "grid.max", errors)
    boundary = _get(cfg, "grid.boundary") or DIRICHLET
    ok = True
    if boundary not in (DIRICHLET, PERIODIC):
        errors.append("grid.boundary must be 'dirichlet' or 'periodic'")
        ok = False
    if n is None or lo is None or hi is None:
        return None
    if hi <= lo:
        errors.append("grid.max must exceed grid.min")
        ok = False
    if n < 8:
        errors.append("grid.points must be at least 8")
        ok = False
    return GridSpec.line(n, lo, hi, boundary) if ok else None


def _build_potential(section: dict | None, grid: GridSpec | None,
                     errors: list, path: str, pairwise: bool = False):
    if section is None:
        return Free()
    if not isinstance(section, dict):
        errors.append(f"{path} must be an object")
        return None
    kind = section.get("kind")
    if kind == "free":
        return Free()
    if kind == "harmonic":
        strength = section.get("strength", 1.0)
        center = section.get("center", 0.0)
        if not _is_number(strength) or strength < 0:
            errors.append(f"{path}.strength must be a non-negative number")
            return None
        if not _is_number(center):
            errors.append(f"{path}.center must be a number")
            return None
        return Harmonic(k=float(strength), center=float(center))
    if kind == "polynomial" and not pairwise:
        coeffs = section.get("coefficients")
        if (not isinstance(coeffs, list) or not coeffs
                or not all(isinstance(c, (int, float)) for c in coeffs)):
            errors.append(f"{path}.coefficients must be a list of numbers")
            return None
        if grid is None:
            return None
        x = grid.coordinates()[0]
        with np.errstate(over="ignore", invalid="ignore"):
            v = np.polynomial.polynomial.polyval(
                x, np.asarray(coeffs, dtype=float))
        if not np.all(np.isfinite(v)):
            errors.append(f"{path}.coefficients overflow on the grid: the "
                          f"potential is not finite at every node")
            return None
        return Sampled(RealField(grid, v))
    allowed = "'free' or 'harmonic'" if pairwise \
        else "'free', 'harmonic' or 'polynomial'"
    errors.append(f"{path}.kind must be {allowed}")
    return None


def _build_params(cfg: dict, grid: GridSpec | None, errors: list,
                  allow_pair_mass: bool = False) -> PhysicalParams | None:
    hbar = _number(cfg, "system.hbar", errors, positive=True, required=False,
                   default=1.0)
    mass = _get(cfg, "system.mass")
    if mass is None:
        errors.append("system.mass is required")
        return None
    if isinstance(mass, list):
        if not allow_pair_mass:
            errors.append("system.mass must be a single number here")
            return None
        if len(mass) != 2 or not all(isinstance(m, (int, float)) for m in mass):
            errors.append("system.mass must be a number or a pair of numbers")
            return None
        if any(m <= 0 for m in mass):
            errors.append("system.mass entries must be positive")
            return None
        mass_val: float | tuple = (float(mass[0]), float(mass[1]))
    elif _is_number(mass):
        if mass <= 0:
            errors.append("system.mass must be positive")
            return None
        mass_val = float(mass)
    else:
        errors.append("system.mass must be a number or a pair of numbers")
        return None
    pot = _build_potential(_get(cfg, "system.potential"), grid, errors,
                           "system.potential")
    if pot is None or hbar is None:
        return None
    return PhysicalParams(hbar=hbar, mass=mass_val, potential=pot)


def _build_pair(cfg: dict, errors: list) -> tuple:
    ma = _number(cfg, "pair.mass_a", errors, positive=True)
    mb = _number(cfg, "pair.mass_b", errors, positive=True)
    hbar = _number(cfg, "pair.hbar", errors, positive=True, required=False,
                   default=1.0)
    n = _number(cfg, "pair.points", errors, positive=True, integer=True)
    length = _number(cfg, "pair.length", errors, positive=True)
    if n is not None and n % 2:
        errors.append("pair.points must be even")
        n = None
    inter = _build_potential(_get(cfg, "pair.interaction"), None, errors,
                             "pair.interaction", pairwise=True)
    if None in (ma, mb, hbar, n, length) or inter is None:
        return None, None, None
    return BipartiteParams(mass_a=ma, mass_b=mb, interaction=inter,
                           hbar=hbar), n, length


def _gaussian_state(cfg: dict, grid: GridSpec, errors: list):
    center = _number(cfg, "initial.center", errors, required=False,
                     default=0.0)
    width = _number(cfg, "initial.width", errors, positive=True,
                    required=False, default=1.0)
    if center is None or width is None:
        return None
    x = grid.coordinates()[0]
    rho = np.exp(-((x - center) ** 2) / (2.0 * width**2))
    total = integrate_values(rho, grid)
    if total <= 0:
        errors.append("initial density vanishes on this grid")
        return None
    rho /= total
    if np.min(rho) <= 0.0:
        errors.append("initial.width is too narrow for this grid: the "
                      "density underflows at the edges")
        return None
    return MadelungState(RealField(grid, rho),
                         RealField(grid, np.zeros(grid.shape)))


def _initial_wavefunction(state: MadelungState, grid: GridSpec,
                          errors: list) -> ComplexField:
    """sqrt(rho) as the unitary route's start; lists a wall violation."""
    psi = np.sqrt(state.density.values)
    problem = wall_violation(psi, grid)
    if problem:
        errors.append(problem)
    return ComplexField(grid, psi.astype(complex))


def _check_levels(grid: GridSpec | None, levels: int | None, path: str,
                  errors: list) -> None:
    """eigensolve_1d needs hard walls and at most points - 2 levels."""
    if grid is None or levels is None:
        return
    if grid.axes[0].boundary != DIRICHLET:
        errors.append("grid.boundary must be 'dirichlet': eigenstates need "
                      "hard walls")
    n = grid.shape[0]
    if levels > n - 2:
        errors.append(f"{path} asks for {levels} levels, but {n} grid "
                      f"points hold at most {n - 2}")


def _stiffness_warnings(params: PhysicalParams, grid: GridSpec,
                        dt: float) -> list:
    v = potential_values(params.potential, grid)
    ratio = dt * float(np.max(np.abs(v))) / params.hbar
    if ratio > _STIFF_WARN:
        return [f"dt resolves the potential poorly: "
                f"dt max|V| / hbar = {ratio:.3g} exceeds {_STIFF_WARN}"]
    return []


# -- scenarios ---------------------------------------------------------------

def _run_eigen(cfg, seed, plots):
    errors = []
    grid = _build_grid(cfg, errors)
    params = _build_params(cfg, grid, errors)
    k = _number(cfg, "count", errors, positive=True, integer=True,
                required=False, default=1)
    richardson = bool(_get(cfg, "richardson") or False)
    _check_levels(grid, k, "count", errors)
    if errors:
        return None, errors, []
    spec = eigensolve_1d(params, grid, k=k, richardson=richardson)
    results = {
        "eigenvalues": spec.eigenvalues,
        "residuals": spec.residuals,
    }
    if richardson:
        results["refined_eigenvalues"] = spec.refined_eigenvalues
    x = grid.coordinates()[0]
    for j, f in enumerate(spec.eigenfunctions):
        plots[f"state_{j}"] = (("x", "amplitude"),
                               np.column_stack([x, f.values]))
    return results, [], []


def _run_evolve(cfg, seed, plots):
    errors = []
    grid = _build_grid(cfg, errors)
    params = _build_params(cfg, grid, errors)
    dt = _number(cfg, "dt", errors, positive=True)
    steps = _number(cfg, "steps", errors, positive=True, integer=True)
    store = _number(cfg, "store_every", errors, positive=True, integer=True,
                    required=False)
    method = _get(cfg, "method") or "fields"
    if method not in ("fields", "unitary"):
        errors.append("method must be 'fields' or 'unitary'")
    state = psi0 = None
    if grid is not None:
        state = _gaussian_state(cfg, grid, errors)
    if state is not None and method == "unitary":
        psi0 = _initial_wavefunction(state, grid, errors)
    if errors:
        return None, errors, []
    store = store or steps
    warnings = _stiffness_warnings(params, grid, dt)
    x = grid.coordinates()[0]
    if method == "fields":
        traj = propagate_madelung(state, params, dt, steps, store_every=store)
        rho_end = traj.states[-1].density.values
        results = {
            "substeps_per_step": traj.substeps_per_step,
            "mass_drift": traj.mass_drift,
        }
        plots["final_action"] = (
            ("x", "action"),
            np.column_stack([x, traj.states[-1].action.values]))
    else:
        traj = propagate_wavefunction(psi0, params, dt, steps,
                                      store_every=store)
        rho_end = np.abs(traj.states[-1].values) ** 2
        results = {"norms": traj.norms, "norm_drift": traj.norm_drift}
    mean = integrate_values(rho_end * x, grid)
    results.update({
        "method": method,
        "times": traj.times,
        "final_mean": mean,
        "final_variance": integrate_values(rho_end * (x - mean) ** 2, grid),
    })
    plots["final_density"] = (("x", "density"),
                              np.column_stack([x, rho_end]))
    return results, [], warnings


def _run_compare(cfg, seed, plots):
    errors = []
    grid = _build_grid(cfg, errors)
    params = _build_params(cfg, grid, errors)
    dt = _number(cfg, "dt", errors, positive=True)
    steps = _number(cfg, "steps", errors, positive=True, integer=True)
    state = psi0 = None
    if grid is not None:
        state = _gaussian_state(cfg, grid, errors)
    if state is not None:
        psi0 = _initial_wavefunction(state, grid, errors)
    if errors:
        return None, errors, []
    warnings = _stiffness_warnings(params, grid, dt)
    traj_m = propagate_madelung(state, params, dt, steps, store_every=steps)
    traj_c = propagate_wavefunction(psi0, params, dt, steps,
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
    return results, [], warnings


def _run_fluctuate(cfg, seed, plots):
    errors = []
    params = _build_params(cfg, None, errors, allow_pair_mass=True)
    dt = _number(cfg, "dt", errors, positive=True)
    samples = _number(cfg, "samples", errors, positive=True, integer=True,
                      required=False, default=100_000)
    if seed is None:
        errors.append("fluctuate needs a seed (config key 'seed' or --seed)")
    window_cfg = _get(cfg, "window")
    window = None
    if window_cfg is not None:
        if (not isinstance(window_cfg, list)
                or not all(isinstance(w, (int, float)) for w in window_cfg)):
            errors.append("window must be a list of numbers")
        else:
            window = tuple(float(w) for w in window_cfg)
    if params is not None and dt is not None and window is not None:
        sig = fluctuation_sigma(params, dt)
        if len(window) != len(sig):
            errors.append("window must list one half-width per axis")
        else:
            for ax, (w, s) in enumerate(zip(window, sig)):
                if w < _MIN_WINDOW_SIGMAS * s:
                    errors.append(
                        f"window[{ax}] = {w} is below "
                        f"{_MIN_WINDOW_SIGMAS} standard deviations "
                        f"({_MIN_WINDOW_SIGMAS * s:.6g})")
    if errors:
        return None, errors, []
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
    return results, [], []


def _run_constraint_check(cfg, seed, plots):
    errors = []
    grid = _build_grid(cfg, errors)
    params = _build_params(cfg, grid, errors)
    level = _number(cfg, "level", errors, integer=True, required=False,
                    default=0)
    if level is not None and level < 0:
        errors.append("level must be at least 0")
    elif level is not None:
        _check_levels(grid, level + 1, "level", errors)
    if errors:
        return None, errors, []
    spec = eigensolve_1d(params, grid, k=level + 1)
    energy = float(spec.eigenvalues[level])
    rho = RealField(grid, spec.eigenfunctions[level].values ** 2)
    state = MadelungState(rho, RealField(grid, np.zeros(grid.shape)),
                          params.hbar)
    momentum = LocalMomentum()
    hamiltonian = EnsembleHamiltonian(params)
    bracket = poisson_bracket(momentum, hamiltonian, state)
    dt = 1e-3
    states = [MadelungState(rho, RealField(grid, np.full(grid.shape,
                                                         -energy * i * dt)),
                            params.hbar) for i in range(3)]
    stat = stationarity_residuals(states, dt, params, order=2)
    force = classical_consistency("vanishing_local_momentum", params, grid)
    results = {
        "level": level,
        "energy": energy,
        "local_momentum_value": momentum.value(state),
        "ensemble_energy": hamiltonian.value(state),
        "bracket_value": bracket.value,
        "bracket_scale": bracket.scale,
        "bracket_consistent": bracket.consistent,
        "density_residual_max": stat.density_residual_max,
        "action_residual_max": stat.action_residual_max,
        "classical_force_vanishes": force.vanishes,
        "classical_force_peak": force.secondary_max,
    }
    return results, [], []


def _run_vanishing_momentum(cfg, seed, plots):
    errors = []
    grid = _build_grid(cfg, errors)
    params = _build_params(cfg, grid, errors)
    k = _number(cfg, "count", errors, positive=True, integer=True,
                required=False, default=3)
    _check_levels(grid, k, "count", errors)
    if errors:
        return None, errors, []
    res = vanishing_momentum_scenario(params, grid, k=k)
    routes = quantization_route_report(res)
    rows = []
    for rep in res.reports + [res.trivial]:
        rows.append({
            "label": rep.label,
            "branch": rep.branch,
            "energy": rep.energy,
            "multiplier": rep.multiplier,
            "stationarity_residual": rep.hj_residual_max,
            "density_rate": rep.density_rate_max,
            "momentum_gradient": rep.momentum_gradient_max,
            "density_gradient_scale": rep.density_gradient_scale,
        })
    route_rows = [{
        "label": r.label,
        "momentum_norm": r.momentum_norm,
        "amplitude_momentum_norm": r.amplitude_momentum_norm,
        "nonlinear_residual": r.nonlinear_residual_max,
        "energy_gap": r.energy_gap,
    } for r in routes.rows]
    results = {"branches": rows, "operator_route": route_rows,
               "nonlinear_ok": routes.nonlinear_ok}
    return results, [], []


def _run_three_route(cfg, seed, plots):
    errors = []
    pair, n, length = _build_pair(cfg, errors)
    k = _number(cfg, "count", errors, positive=True, integer=True,
                required=False, default=3)
    if pair is not None:
        _check_levels(relative_grid(pair_grid(n, length)), k, "count", errors)
    if errors:
        return None, errors, []
    rep = three_route_comparison(pair, n=n, length=length, k=k)
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
        "action_residual": rep.stationarity.action_residual_max,
        "total_momentum": rep.total_momentum,
        "relative_density": rep.relative_density,
        "mass_ratio_deviation": rep.mass_ratio_deviation,
    }
    return results, [], []


def _run_bipartite(cfg, seed, plots):
    errors = []
    pair, n, length = _build_pair(cfg, errors)
    if errors:
        return None, errors, []
    grid2 = pair_grid(n, length)
    rgrid = relative_grid(grid2)
    spec = eigensolve_1d(pair.reduced_physical(), rgrid, k=1)
    psi = lift_relative(spec.eigenfunctions[0], grid2)
    rho = RealField(grid2, psi.values**2)
    phys2 = pair.as_physical()
    ia, ib = (information_metric(rho, phys2, order=2, axis=ax)
              for ax in (0, 1))
    force = classical_consistency("bipartite_translation", phys2, grid2)
    results = {
        "ground_energy": float(spec.eigenvalues[0]),
        "information_a": ia,
        "information_b": ib,
        "information_ratio": ia / ib,
        "expected_ratio": pair.mass_b / pair.mass_a,
        "translation_residual": translation_residual(psi.values, grid2),
        "translation_force_vanishes": force.vanishes,
        "translation_force_peak": force.secondary_max,
    }
    r = rgrid.coordinates()[0]
    plots["separation_mode"] = (
        ("separation", "amplitude"),
        np.column_stack([r, spec.eigenfunctions[0].values]))
    return results, [], []


SCENARIOS = {
    "eigen": _run_eigen,
    "evolve": _run_evolve,
    "compare-propagators": _run_compare,
    "fluctuate": _run_fluctuate,
    "constraint-check": _run_constraint_check,
    "vanishing-momentum": _run_vanishing_momentum,
    "three-route": _run_three_route,
    "bipartite": _run_bipartite,
}


# -- report and plot output --------------------------------------------------

def write_report(out_dir: Path, scenario: str, cfg: dict, results: dict,
                 warnings: list) -> Path:
    report = {
        "scenario": scenario,
        "config_sha256": config_hash(cfg),
        "config": cfg,
        "results": _jsonable(results),
        "warnings": list(warnings),
    }
    path = out_dir / f"{scenario}_report.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
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


def main(argv: list[str] | None = None) -> int:
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
    args = parser.parse_args(argv)

    try:
        cfg = json.loads(Path(args.config).read_text())
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    except json.JSONDecodeError as exc:
        print(f"config error: {args.config} is not valid JSON: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG
    if not isinstance(cfg, dict):
        print("config error: top level must be a JSON object",
              file=sys.stderr)
        return EXIT_CONFIG

    seed = args.seed if args.seed is not None else _get(cfg, "seed")
    if seed is not None and (isinstance(seed, bool)
                             or not isinstance(seed, int)):
        print("config error: seed must be an integer", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create {out_dir}: {exc}",
              file=sys.stderr)
        return EXIT_CONFIG

    plots: dict = {}
    runner = SCENARIOS[args.scenario]
    try:
        results, errors, warnings = runner(cfg, seed, plots)
    except (DensityFloorError, NonConvergenceError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    if errors:
        for err in errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    path = write_report(out_dir, args.scenario, cfg, results, warnings)
    print(f"wrote {path}")
    if args.emit_plots:
        sha = config_hash(cfg)
        for name, (columns, table) in sorted(plots.items()):
            ppath = write_plot_data(out_dir, args.scenario, name, sha,
                                    columns, table)
            print(f"wrote {ppath}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
