"""Every shipped config's report against its checked-in golden.

A change that moves a report value on purpose rewrites the goldens with
`PYTHONPATH=src python tests/goldens.py`, which lists each moved value.
On the environment the goldens record, results, warnings and plot files
must match bit for bit; elsewhere results and warnings must match within
the file's tolerances, and a warning says the exact check was skipped.
"""

import copy
import importlib
import json
import pkgutil
import warnings

import pytest

import goldens
import varq
from goldens import CONFIGS, GOLDEN, SCENARIOS, environment, moved, run_config
from varq.grid import diff_values

GOLDENS = json.loads(GOLDEN.read_text())


def test_every_shipped_config_has_a_golden():
    shipped = sorted(path.name for path in CONFIGS.glob("*.json"))
    assert shipped == sorted(SCENARIOS) == sorted(GOLDENS["configs"])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_matches_its_golden(name):
    golden = GOLDENS["configs"][name]
    got = run_config(name)
    recorded, here = GOLDENS["environment"], environment()
    if here == recorded:
        assert moved(golden, got) == []
        return
    warnings.warn(f"exact golden check skipped for {name}: the goldens "
                  f"were written on {recorded}, this is {here}")
    golden, got = ({key: entry[key] for key in ("results", "warnings")}
                   for entry in (golden, got))
    assert moved(golden, got, (GOLDENS["rtol"], GOLDENS["atol"])) == []


# shipped-report columns that hold an identity by construction: 0 on the
# states these configs build, or the pair's mass ratio m_b / m_a
IDENTITY_COLUMNS = {
    "constraint_ground.json": ("local_momentum_value", "action_residual_max"),
    "three_route.json": ("translation_residual", "action_residual",
                         "total_momentum"),
    "bipartite_ground.json": ("translation_residual",
                              "translation_force_peak"),
}


@pytest.mark.parametrize("name, columns, axes", [
    *((name, columns, (0, 1)) for name, columns in IDENTITY_COLUMNS.items()),
    # the same shift along both particles' axes keeps the pair's
    # information ratio at m_b / m_a, so shift axis 0 alone
    ("bipartite_ground.json", ("information_ratio",), (0,)),
], ids=[*IDENTITY_COLUMNS, "bipartite_ground.json-axis-0"])
def test_identity_columns_are_computed_from_the_state(monkeypatch, name,
                                                      columns, axes):
    # a derivative off by one, in every module that binds diff_values,
    # must move each column: none of them is typed in
    def shifted(values, grid, axis=0, *args, **kwargs):
        out = diff_values(values, grid, axis, *args, **kwargs)
        return out + 1.0 if axis in axes else out

    for info in pkgutil.iter_modules(varq.__path__):
        module = importlib.import_module(f"varq.{info.name}")
        if getattr(module, "diff_values", None) is diff_values:
            monkeypatch.setattr(module, "diff_values", shifted)
    golden = GOLDENS["configs"][name]["results"]
    got = run_config(name)["results"]
    for column in columns:
        assert abs(got[column] - golden[column]) > 0.5, column


def test_rewrite_reports_the_environment_and_the_count(monkeypatch, tmp_path,
                                                       capsys):
    # the rewrite of a copy, with every config's run replaced by its golden
    monkeypatch.setattr(goldens, "GOLDEN", tmp_path / GOLDEN.name)
    runs = copy.deepcopy(GOLDENS["configs"])
    monkeypatch.setattr(goldens, "run_config", lambda name: runs[name])
    recorded = GOLDENS["environment"]
    monkeypatch.setattr(goldens, "environment", lambda: recorded)
    goldens.GOLDEN.write_text(json.dumps(GOLDENS))
    assert goldens.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"wrote {goldens.GOLDEN}", "0 values moved"]
    # one value moved, on another environment
    runs["eigen_harmonic.json"]["warnings"] = ["moved"]
    other = {**recorded, "numpy": "0.0"}
    monkeypatch.setattr(goldens, "environment", lambda: other)
    assert goldens.main() == 0
    first, *lines = capsys.readouterr().out.splitlines()
    assert first.startswith(f"the goldens were written on {recorded}, "
                            f"this is {other}: a moved value may come from "
                            "the build")
    assert lines == ["eigen_harmonic.json.warnings: [] -> ['moved']",
                     f"wrote {goldens.GOLDEN}", "1 value moved"]
