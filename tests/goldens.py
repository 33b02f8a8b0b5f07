"""Golden reports of the shipped configs, and the script that rewrites them.

Each of the nine `configs/*.json` runs through `cli.main` with
`--emit-plots`. Its golden holds the report's `results` and `warnings`
and the sha256 of every plot file; the config itself, and so its hash,
is the checked-in file. `tests/golden_reports.json` records the Python,
numpy and scipy versions and the machine (architecture and the SIMD
extensions numpy dispatches to) it was written on. Reports are
reproducible bit for bit on one such environment, not across numpy
builds or CPUs (SIMD `exp`, LAPACK), so `test_goldens.py` compares
exactly where the environment matches and within the file's `rtol` and
`atol` elsewhere, where the plot hashes cannot be compared.

Run from the repository root to rewrite the goldens on this environment:

    PYTHONPATH=src python tests/goldens.py

It says first when the goldens were written on another environment, as
a value may then move with the build rather than the code. It prints
every value that moved, before and after, writes the file and ends with
their count, `0 values moved` when none did.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import pathlib
import platform
import sys
import tempfile

import numpy as np
import scipy

from varq import cli

REPO = pathlib.Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

# shipped config -> the scenario it is written for (README's table)
SCENARIOS = {
    "bipartite_ground.json": "bipartite",
    "compare_propagators.json": "compare-propagators",
    "constraint_ground.json": "constraint-check",
    "eigen_harmonic.json": "eigen",
    "evolve_coherent.json": "evolve",
    "fluctuate_pair.json": "fluctuate",
    "fluctuate_single.json": "fluctuate",
    "three_route.json": "three-route",
    "vanishing_momentum.json": "vanishing-momentum",
}

# off the recorded environment a value may move by rtol of itself, or by
# atol where it is roundoff of O(1) terms (residuals, drifts, gaps)
RTOL = 1e-6
ATOL = 1e-9


def environment() -> dict:
    """What a report's last bits depend on besides the code."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"],
    }


def run_config(name: str) -> dict:
    """The golden entry of one shipped config, from a fresh run."""
    scenario = SCENARIOS[name]
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main([scenario, "--config", str(CONFIGS / name),
                             "--out", str(out), "--emit-plots"])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"{name} exited {code}")
        report = out / f"{scenario}_report.json"
        entry = json.loads(report.read_text())
        plots = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                 for path in sorted(out.iterdir()) if path != report}
    return {"scenario": scenario, "results": entry["results"],
            "warnings": entry["warnings"], "plots": plots}


def _same(old, new, tolerance) -> bool:
    if type(old) is not type(new):
        return False
    if isinstance(old, float) and tolerance is not None:
        rtol, atol = tolerance
        return math.isclose(old, new, rel_tol=rtol, abs_tol=atol)
    # exact: the float's shortest repr, as the report writes it
    return repr(old) == repr(new)


def moved(old, new, tolerance: tuple[float, float] | None = None,
          path: str = "") -> list[str]:
    """`key: before -> after` for every leaf of new that differs from old:
    bit for bit, or within tolerance = (rtol, atol) for floats."""
    if isinstance(old, dict) and isinstance(new, dict):
        out = []
        for key in sorted(old.keys() | new.keys()):
            where = f"{path}.{key}" if path else key
            if key not in old or key not in new:
                out.append(f"{where}: {old.get(key, '<absent>')!r} -> "
                           f"{new.get(key, '<absent>')!r}")
            else:
                out += moved(old[key], new[key], tolerance, where)
        return out
    if (isinstance(old, list) and isinstance(new, list)
            and len(old) == len(new)):
        return [line for i, (a, b) in enumerate(zip(old, new))
                for line in moved(a, b, tolerance, f"{path}[{i}]")]
    if isinstance(old, (dict, list)) or not _same(old, new, tolerance):
        return [f"{path}: {old!r} -> {new!r}"]
    return []


def main() -> int:
    configs = {name: run_config(name) for name in sorted(SCENARIOS)}
    here, lines = environment(), []
    if GOLDEN.exists():
        recorded = json.loads(GOLDEN.read_text())
        if recorded["environment"] != here:
            print(f"the goldens were written on {recorded['environment']}, "
                  f"this is {here}: a moved value may come from the build, "
                  "not the code")
        lines = moved(recorded["configs"], configs)
        for line in lines:
            print(line)
    GOLDEN.write_text(json.dumps({
        "environment": here,
        "rtol": RTOL,
        "atol": ATOL,
        "configs": configs,
    }, sort_keys=True, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
    print(f"{len(lines)} value{'' if len(lines) == 1 else 's'} moved")
    return 0


if __name__ == "__main__":
    sys.exit(main())
