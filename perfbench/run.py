"""varq benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <propagate|variational|fluctuate>
        --seed N --seconds S --trace <0|1>
    python3 perfbench/run.py --self-check

Run from the root of a varq checkout; the package is imported from its
src/. Each workload runs in one fresh worker process (worker.py) with
BLAS and OpenMP pinned to one thread. The last line of stdout is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. The line before it records the environment and
the operation counts.

setup_s is the CPU time of a fresh `python -c "import varq.cli"`,
start-up and exit included, as a multiple of the CPU time of a fresh
`python -c "import numpy"` run just before it, times NUMPY_IMPORT_S. It is
the median of six such pairs, three before and three after the worker.
The numpy import is varq's first dependency and nothing in the repository
can change it; the ratio removes the drift of the shared host, which
moved the raw import time by a third between sets of runs. The per-layer
`<module>.import_ms` figures come from `python -X importtime` in fresh
processes too, so neither pollutes the timed worker.

--self-check runs every workload once at a tiny size, traced and
untraced, and asserts that every metric named in BENCHMARK.json is
present and finite and that no operation failed. It also prints how
each known-defect operation ended.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".bench_build" / "perfbench"

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                  "NUMEXPR_NUM_THREADS")
SETUP_RUNS = 6
# median CPU seconds of a fresh `import numpy` on the development host
# (Python 3.11, numpy 2.4, 2-vCPU Intel Xeon), the scale of setup_s
NUMPY_IMPORT_S = 0.15
IMPORT_PROBES = 3
WORKER_TIMEOUT_S = 150
IMPORT_LINE = "import time:"

# worker figures echoed on the line before the result: the environment,
# the operation counts behind op_p50_ref, the outcome of each known-defect
# operation, a digest of the outputs (equal for equal seeds), and the raw
# seconds behind the *_ref metrics, with the median reference kernel time
# ref_s
INFO_KEYS = ("environment", "ops_per_round", "rounds", "traced_rounds",
             "op_count", "failures", "known_defects", "outputs_sha256",
             "wall_s", "cpu_s", "op_p50_s", "ref_s")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def pinned_env() -> dict:
    env = dict(os.environ)
    for var in PINNED_THREADS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _python(args, env, timeout=60, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL):
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          stdout=stdout, stderr=stderr, timeout=timeout,
                          check=True)


def child_cpu_s(args, env) -> float:
    """User plus system CPU seconds of one fresh interpreter."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    _python(args, env)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime
            + after.ru_stime - before.ru_stime)


def setup_pairs(env, runs: int) -> list:
    """(varq.cli, numpy) import CPU seconds, each in a fresh interpreter."""
    pairs = []
    for _ in range(runs):
        numpy_s = child_cpu_s(["-c", "import numpy"], env)
        pairs.append((child_cpu_s(["-c", "import varq.cli"], env), numpy_s))
    return pairs


def parse_importtime(text: str) -> list:
    """(depth, module, cumulative us) per line, in printed order.

    Python prints a module after everything it imported, indented two
    spaces deeper, so an entry's parent is the next line that is less
    indented.
    """
    out = []
    for line in text.splitlines():
        if not line.startswith(IMPORT_LINE):
            continue
        parts = line[len(IMPORT_LINE):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        out.append((depth, name.strip(), int(parts[1])))
    return out


def _parents(entries: list) -> list:
    """Index of each entry's parent, the next less-indented line, or -1."""
    out = [-1] * len(entries)
    stack: list = []
    for i in range(len(entries) - 1, -1, -1):
        while stack and entries[stack[-1]][0] >= entries[i][0]:
            stack.pop()
        out[i] = stack[-1] if stack else -1
        stack.append(i)
    return out


def _under(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


def subtree_ms(entries: list, prefix: str) -> float:
    """Import time of the outermost modules under `prefix`.

    `scipy.ndimage` itself may be missing from the listing (scipy loads
    its subpackages lazily), so the outermost entries of the prefix are
    summed instead of looking up one line.
    """
    parents = _parents(entries)
    return sum(cum for (_, name, cum), p in zip(entries, parents)
               if _under(name, prefix)
               and not (p >= 0 and _under(entries[p][1], prefix))) / 1000.0


def own_import_ms(entries: list, module: str) -> float:
    """Import time of `module` minus the other varq modules it pulled in.

    `import varq.cli` runs the package `__init__`, which imports every
    other layer, inside the `varq.cli` entry; each layer is charged only
    with its own statements and the third-party modules it loaded first.
    """
    parents = _parents(entries)

    def varq_parent(i):
        p = parents[i]
        while p >= 0 and not _under(entries[p][1], "varq"):
            p = parents[p]
        return p

    total = 0
    for i, (_, name, cum) in enumerate(entries):
        if name == module:
            total += cum
        elif _under(name, "varq"):
            p = varq_parent(i)
            if p >= 0 and entries[p][1] == module:
                total -= cum
    return total / 1000.0


def ndimage_importers() -> int:
    """Layer modules that import scipy.ndimage at module level."""
    count = 0
    for layer in LAYERS:
        tree = ast.parse((ROOT / "src" / "varq" / f"{layer}.py").read_text())
        names = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                names += [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.append(node.module)
                names += [f"{node.module}.{a.name}" for a in node.names]
        if any(n == "scipy.ndimage" or n.startswith("scipy.ndimage.")
               for n in names):
            count += 1
    return count


def import_metrics(env) -> dict:
    """Per-module cumulative import time of `import varq.cli`."""
    _python(["-c", "import varq.cli"], env)
    probes = []
    for _ in range(IMPORT_PROBES):
        proc = _python(["-X", "importtime", "-c", "import varq.cli"], env,
                       stderr=subprocess.PIPE)
        probes.append(parse_importtime(proc.stderr.decode()))

    def median(values):
        return statistics.median(values)

    out = {f"{layer}.import_ms": median(own_import_ms(p, f"varq.{layer}")
                                        for p in probes)
           for layer in LAYERS}
    out["varq.import_ms"] = median(subtree_ms(p, "varq") for p in probes)
    out["scipy.ndimage.import_ms"] = median(subtree_ms(p, "scipy.ndimage")
                                            for p in probes)
    out["scipy.ndimage.importers"] = ndimage_importers()
    return out


def run_worker(workload, seed, seconds, trace, tiny, env) -> dict:
    work = WORK / f"{workload}-{seed}-{trace}{'-tiny' if tiny else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cmd = [str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work", str(work)]
    if tiny:
        cmd.append("--tiny")
    try:
        _python(cmd, env, timeout=WORKER_TIMEOUT_S, stderr=subprocess.PIPE)
    except subprocess.CalledProcessError as exc:
        raise BenchError(f"worker exited {exc.returncode}: "
                         f"{exc.stderr.decode()[-2000:]}") from exc
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    return json.loads((work / "worker.json").read_text())


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(workload, seed, seconds, trace, tiny=False) -> tuple:
    """(info, result) for one run; result is the JSON line printed last."""
    env = pinned_env()
    if trace:
        imports = import_metrics(env)
        w = run_worker(workload, seed, seconds, 1, tiny, env)
        values = {**w["layers"], **imports}
    else:
        # half the set-up probes before the worker and half after, so a
        # slow spell of the host does not catch all of them
        _python(["-c", "import varq.cli"], env)  # compiles bytecode once
        setup = setup_pairs(env, SETUP_RUNS // 2)
        w = run_worker(workload, seed, seconds, 0, tiny, env)
        setup += setup_pairs(env, SETUP_RUNS - SETUP_RUNS // 2)
        values = {
            "setup_s": NUMPY_IMPORT_S * statistics.median(
                v / n for v, n in setup),
            "wall_ref": w["wall_ref"],
            "cpu_ref": w["cpu_ref"],
            "op_p50_ref": w["op_p50_ref"],
            "peak_rss_mb": w["peak_rss_mb"],
            "pass_ratio": (w["attempted"] - w["failed"]) / w["attempted"],
            "err_to_bound": w["err_to_bound"],
        }
    listed = load_spec()["per_layer" if trace else "end_to_end"]
    names = {m["name"] for m in listed}
    if names != set(values):
        raise BenchError(f"BENCHMARK.json lists {sorted(names - set(values))}"
                         f" but not {sorted(set(values) - names)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in listed}
    info = {key: w[key] for key in INFO_KEYS}
    if not trace:
        info["setup_cpu_s"] = {
            "varq.cli": statistics.median(v for v, _ in setup),
            "numpy": statistics.median(n for _, n in setup)}
    info.update(workload=workload, seed=seed, trace=trace)
    result = {
        "correct": w["failed"] == 0,
        "attempted": w["attempted"],
        "failed": w["failed"],
        "metrics": metrics,
    }
    return info, result


def self_check() -> int:
    """Every workload once, tiny, traced and untraced; check the names."""
    spec = load_spec()
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            info, result = measure(workload, 1, 1, trace, tiny=True)
            got = result["metrics"]
            tag = f"{workload} trace={trace}"
            for m in expected[trace]:
                if not math.isfinite(got[m["name"]]["value"]):
                    problems.append(f"{tag}: {m['name']} not finite")
            print(f"self-check {tag}: {len(got)} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")
            problems += [f"{tag}: {f}" for f in info["failures"]]
            for name, outcome in info["known_defects"].items():
                print(f"  known defect {name}: {outcome}")
    for p in problems:
        print(f"self-check problem: {p}", file=sys.stderr)
    print("self-check " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "varq" / "__init__.py").is_file():
        print(f"perfbench: no varq sources under {ROOT / 'src'}; run from "
              f"the root of a varq checkout", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            ap.error("--workload is required")
        info, result = measure(args.workload, args.seed, args.seconds,
                               args.trace)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
