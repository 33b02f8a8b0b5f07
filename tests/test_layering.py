"""Module boundaries inside the varq package.

A name with a leading underscore is private to the module that defines
it; another varq module that needs it should get a public name instead.
No linter runs on this repository, so the rule is checked here.
"""

import ast
import pathlib

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
