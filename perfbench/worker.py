"""Run one workload in this process and write its measurements as JSON.

run.py starts one such process per workload with BLAS and OpenMP
threads pinned to 1 and PYTHONPATH at the checkout's src/. The process
imports varq, builds the seeded operations, runs operation 0 and the
probes once as warm-up, so that first-call costs such as lazy imports
stay out of the timed rounds, then repeats the whole list in rounds
until --seconds have passed.
Every operation sits between two runs of a short reference kernel
(reference.py) and is checked afterwards, including byte identity of
its report against its first report. With --trace 1
the rounds alternate untraced and traced, so the traced rounds give the
per-layer metrics and the pairing gives the tracing overhead. After the
rounds, the workload's known-defect operations run once, untimed and
outside the operation counts, and their outcomes are recorded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import reference
import tracer as tracing
import workloads
from run import PINNED_THREADS

# full-array float64 passes per iteration of optimize_transition_numeric,
# counted from its loop body as operands read plus results written: the
# blended update (7), the logsumexp normalization taken as max, shift,
# exp, weight, sum and the final subtraction (11), and the objective (16)
OPTIMIZER_PASSES = 34

MIN_ROUNDS = 3
MAX_FAILURE_MESSAGES = 20


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "threads": {v: os.environ.get(v) for v in PINNED_THREADS},
    }


def layer_metrics(tr: tracing.Tracer) -> dict:
    """Per-layer metrics of one traced round."""
    tot = tr.totals()
    cnt = tr.count

    def calls(q):
        return tot.get(q, (0, 0.0, 0.0))[0]

    def incl(q):
        return tot.get(q, (0, 0.0, 0.0))[1]

    def self_s(q):
        return tot.get(q, (0, 0.0, 0.0))[2]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    rhs = calls("solvers._madelung_rhs")
    diffs = calls("grid.diff_values")
    evals = cnt["action.functional_evals"]
    iters = cnt["fluctuation.optimizer_iterations"]
    return {
        "solvers.rhs_evals": rhs,
        "solvers.us_per_rhs": ratio(incl("solvers._madelung_rhs"), rhs, 1e6),
        "solvers.substeps_per_step": ratio(
            cnt["solvers.substeps_total"],
            cnt["solvers.propagate_madelung.calls"]),
        "solvers.propagate_madelung.s": incl("solvers.propagate_madelung"),
        "solvers.us_per_cn_step": ratio(
            incl("solvers.propagate_wavefunction"), cnt["solvers.cn_steps"],
            1e6),
        "solvers.eigensolve_1d.s": incl("solvers.eigensolve_1d"),
        "solvers.vanishing_momentum_scenario.s": incl(
            "solvers.vanishing_momentum_scenario"),
        "grid.diff_values.calls": diffs,
        "grid.diff_values.self_s": self_s("grid.diff_values"),
        "grid.diff_values.us_per_call": ratio(self_s("grid.diff_values"),
                                              diffs, 1e6),
        "action.functional_evals": evals,
        "action.us_per_functional_eval": ratio(
            incl("action.numeric_functional_gradient"), evals, 1e6),
        "action.bohm_potential.self_s": self_s("action.bohm_potential"),
        "constraints.functional_derivative.s": incl(
            "constraints.functional_derivative"),
        "constraints.poisson_bracket.s": incl("constraints.poisson_bracket"),
        "constraints.stationarity_residuals.s": incl(
            "constraints.stationarity_residuals"),
        "bipartite.three_route_comparison.s": incl(
            "bipartite.three_route_comparison"),
        "bipartite.lift_relative.s": incl("bipartite.lift_relative"),
        "fluctuation.optimizer_iterations": iters,
        "fluctuation.ms_per_iter": ratio(
            incl("fluctuation.optimize_transition_numeric"), iters, 1e3),
        "fluctuation.grid_nodes": cnt["fluctuation.grid_nodes"],
        "fluctuation.bytes_per_iter": ratio(
            8 * OPTIMIZER_PASSES * cnt["fluctuation.node_iterations"], iters),
        "fluctuation.draws_per_s": ratio(
            cnt["fluctuation.draws"], incl("fluctuation.sample_fluctuations")),
        "fields.potential_values.self_s": self_s("fields.potential_values"),
        "cli.self_s": self_s("cli.main"),
        "cli.write_report.s": incl("cli.write_report"),
        "cli.report_bytes": cnt["cli.report_bytes"],
    }


class Runner:
    """Runs the operation list and keeps the tallies of one process."""

    def __init__(self, ops, workload: str):
        self.ops = ops
        self.workload = workload
        self.reference: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.err = 0.0

    def _fail(self, op, message):
        self.failed += 1
        line = f"{op.name}: {message}"
        if (len(self.failures) < MAX_FAILURE_MESSAGES
                and line not in self.failures):
            self.failures.append(line)

    def round(self, tr: tracing.Tracer | None = None,
              warm_up: bool = False) -> dict:
        """One pass over every op, each between two reference kernels.

        Returns the round's wall and CPU seconds, and the per-op
        latencies, CPU seconds and `scales`: the mean of the kernel times
        just before and just after each op. A warm-up round runs only
        operation 0 and the probes.
        """
        latencies = []
        cpus = []
        kernels = []
        for i, op in enumerate(self.ops):
            if warm_up and not (i == 0 or op.probe):
                continue
            kernels.append(reference.seconds(self.workload))
            if tr is not None:
                tr.op = i
            self.attempted += 1
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                data = op.run()
            except (Exception, SystemExit) as exc:
                self._fail(op, f"{type(exc).__name__}: {exc}")
                data = None
            latencies.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            if data is not None:
                self._check(op, data)
        kernels.append(reference.seconds(self.workload))
        return {"wall": sum(latencies), "cpu": sum(cpus),
                "latencies": latencies, "cpus": cpus, "kernels": kernels,
                "scales": [(a + b) / 2.0 for a, b in zip(kernels, kernels[1:])]}

    def _check(self, op, data: bytes):
        try:
            violations, err = op.check(data)
        except (KeyError, TypeError, ValueError) as exc:
            violations, err = [f"unreadable output: {exc!r}"], 0.0
        if data != self.reference.setdefault(op.name, data):
            violations = violations + [
                "output differs from the first run of this seed"]
        if op.probe:
            self.err = max(self.err, err)
        if violations:
            self._fail(op, "; ".join(violations))


def defect_outcomes(ops) -> dict:
    """How each known-defect operation ends: its failure, or "passes"."""
    out = {}
    for op in ops:
        try:
            violations, _ = op.check(op.run())
        except (Exception, SystemExit) as exc:
            violations = [f"{type(exc).__name__}: {exc}"]
        out[op.name] = ("; ".join(violations)[:300] if violations
                        else "passes")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    work = Path(args.work)

    import varq
    import varq.cli  # noqa: F401  (varq/__init__ does not import cli)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(varq.__file__).resolve().parents:
        print(f"varq imported from {varq.__file__}, not from {src}",
              file=sys.stderr)
        return 2

    ops = workloads.build(varq, args.workload, args.seed, work / "ops",
                          args.tiny)
    runner = Runner(ops, args.workload)
    runner.round(warm_up=True)

    plain, traced, layers = [], [], []
    last_tracer = None
    start = time.perf_counter()
    while True:
        if args.trace and len(plain) > len(traced):
            tr = tracing.Tracer()
            tr.install()
            try:
                traced.append(runner.round(tr))
            finally:
                tr.uninstall()
            layers.append(layer_metrics(tr))
            last_tracer = tr
        else:
            plain.append(runner.round())
        if (time.perf_counter() - start >= args.seconds
                and len(plain) >= (2 if args.trace else MIN_ROUNDS)
                and len(traced) >= (2 if args.trace else 0)):
            break

    defects = defect_outcomes(workloads.known_defects(varq, args.workload,
                                                      work / "defects"))

    def med(key, rounds=plain):
        return statistics.median(r[key] for r in rounds)

    def med_ref(key):
        """Median over rounds of the sum of per-op seconds over kernel."""
        return statistics.median(
            sum(v / k for v, k in zip(r[key], r["scales"])) for r in plain)

    def op_p50(scaled):
        """Median over operations of each operation's median over rounds."""
        return statistics.median(
            statistics.median(r["latencies"][i]
                              / (r["scales"][i] if scaled else 1)
                              for r in plain)
            for i in range(len(ops)))

    digest = hashlib.sha256()
    for op in ops:
        digest.update(runner.reference.get(op.name, b""))
    out = {
        "environment": environment(),
        "outputs_sha256": digest.hexdigest(),
        "ops_per_round": len(ops),
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.failures,
        "known_defects": defects,
        "err_to_bound": runner.err,
        "ref_s": statistics.median(k for r in plain for k in r["kernels"]),
        "wall_s": med("wall"),
        "cpu_s": med("cpu"),
        "op_p50_s": op_p50(scaled=False),
        "wall_ref": med_ref("latencies"),
        "cpu_ref": med_ref("cpus"),
        "op_p50_ref": op_p50(scaled=True),
        "op_count": sum(len(r["latencies"]) for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if args.trace:
        out["layers"] = {name: statistics.median(r[name] for r in layers)
                         for name in layers[0]}
        out["layers"]["trace.overhead_s"] = (med("wall", traced)
                                             - out["wall_s"])
        last_tracer.write(work / "spans.tsv")
    (work / "worker.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
