"""Every shipped config's report against its checked-in golden.

A change that moves a report value on purpose rewrites the goldens with
`PYTHONPATH=src python tests/goldens.py`, which lists each moved value.
On the environment the goldens record, results, warnings and plot files
must match bit for bit; elsewhere results and warnings must match within
the file's tolerances, and a warning says the exact check was skipped.
"""

import json
import warnings

import pytest

from goldens import CONFIGS, GOLDEN, SCENARIOS, environment, moved, run_config

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
