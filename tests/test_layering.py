"""Module boundaries inside the varq package.

A name with a leading underscore is private to the module that defines
it; another varq module that needs it should get a public name instead.
No linter runs on this repository, so the rule is checked here. Every
CLI run pays for what `import varq.cli` loads, so scipy.ndimage, which
only phase recovery and the propagator's dip check use, is imported
where it is used.
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "varq"


def private_imports(path: pathlib.Path) -> list[str]:
    """`module.name` for every private name `path` imports from varq."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "varq":
            continue
        found += [f"{module}.{alias.name}" for alias in node.names
                  if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    offenders = {path.name: private_imports(path) for path in modules}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_importing_the_cli_does_not_load_ndimage():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    probe = ("import sys, varq.cli; "
             "print('scipy.ndimage' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
