"""Module boundaries inside the varq package.

A name with a leading underscore is private to the module that defines
it; another varq module that needs it should get a public name instead.
No linter runs on this repository, so the rule is checked here. Every
CLI run pays for what `import varq.cli` loads, so no scipy at import: a
varq module imports scipy only inside the function that calls it, or
under `if TYPE_CHECKING:` for annotations, and `import varq.cli` loads
no scipy module (scipy.ndimage and scipy.special least of all; the box
reductions and the transition window rule need numpy alone). A
`fluctuate` run never calls scipy, so it loads none either. The
perfbench tracer and worker name varq functions in strings, so a rename
must reach them too, or a per-layer metric reads zero; likewise every
report key the perfbench workloads check must be one the CLI writes,
and every argument a tracer hook binds by name must be a parameter of
the function it hooks. A default that no call in the repository
overrides is a constant in the signature, so each one must be passed
somewhere. Likewise every public function and class
needs a caller outside the unit tests, and every field of a varq class
needs a reader there: a field that only unit tests read is computed on
every run for nobody. Every name a varq module imports must be used in
that module, so a deletion cannot leave a dead import behind. The
package root binds no name: each name is imported from the module that
defines it, the one path there is to it. Only `grid.stencil_operator`
builds a `Stencil`, so every operator shares its one-sided wall rows.
Every constraint functional writes its integrand once, on value arrays,
and inherits `integrand(state)`; only one that needs a d rho/dt field
writes `integrand` instead. One function of `solvers` holds the
Crank-Nicolson step loop: it alone factors I + i dt H / 2 hbar (LAPACK
zgttrf) and solves with it (zgttrs), so no unitary run loads
scipy.sparse.linalg. The transition layer calls no `GridSpec.meshes`: its law is one mass vector per axis,
the sampler draws through those vectors, and only density() and the
reference objective form the joint law, their outer product. Its one
exponential is `fluctuation._exp_weights`, which never makes a
subnormal mass. A cache hands one object to every caller, so every
functools cache in src/varq has an entry in this file's table, and no
array that entry holds is writeable.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "varq"
PERFBENCH = REPO / "perfbench"


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


def fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports varq from src/."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)


# prints the scipy modules loaded so far, as a sorted list
LOADED_SCIPY = ("print(sorted(name for name in sys.modules "
                "if name.split('.')[0] == 'scipy'))")


def test_importing_the_cli_loads_neither_ndimage_nor_special():
    # nor fractions and the decimal it imports: the exact stencil weights
    # import them with the first stencil, never at start-up
    probe = ("import sys, varq.cli; print(sorted(name for name in "
             "('scipy.ndimage', 'scipy.special', 'fractions', 'decimal') "
             "if name in sys.modules)); " + LOADED_SCIPY)
    unwanted, scipy = fresh_python(probe).stdout.splitlines()
    assert unwanted == "[]"
    assert scipy == "[]"


@pytest.mark.parametrize("config", ["fluctuate_single.json",
                                    "fluctuate_pair.json"])
def test_a_fluctuate_run_loads_no_scipy(config, tmp_path):
    probe = ("import sys; from varq import cli; code = cli.main(["
             f"'fluctuate', '--config', {str(REPO / 'configs' / config)!r}, "
             f"'--out', {str(tmp_path)!r}, '--emit-plots']); "
             "print(code); " + LOADED_SCIPY)
    lines = fresh_python(probe).stdout.splitlines()
    assert lines[-2:] == ["0", "[]"]
    assert (tmp_path / "fluctuate_report.json").exists()


def test_unitary_runs_load_no_sparse_solver(tmp_path):
    # the Crank-Nicolson steps are LAPACK tridiagonal solves: neither
    # scenario that runs them may pull in scipy.sparse.linalg (SuperLU,
    # ARPACK and the rest), whose import the runs would pay for in
    # time and memory
    runs = [("compare-propagators", "compare_propagators.json"),
            ("vanishing-momentum", "vanishing_momentum.json")]
    probe = "import sys; from varq import cli; codes = [" + "".join(
        f"cli.main([{scenario!r}, '--config', "
        f"{str(REPO / 'configs' / config)!r}, '--out', {str(tmp_path)!r}]), "
        for scenario, config in runs) + (
        "]; print(codes, 'scipy.sparse.linalg' in sys.modules)")
    assert fresh_python(probe).stdout.splitlines()[-1] == "[0, 0] False"
    for scenario, _ in runs:
        assert (tmp_path / f"{scenario}_report.json").exists()


def scipy_imports_at_import_time(tree: ast.Module) -> list[str]:
    """Every scipy import that runs when the module is imported: the
    module body and any statement nested in it but outside a function,
    save the body of `if TYPE_CHECKING:`."""
    found = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if (isinstance(node, ast.If)
                    and getattr(node.test, "id", None) == "TYPE_CHECKING"):
                visit(node.orelse)
                continue
            if isinstance(node, ast.Import):
                found.extend(f"line {node.lineno}: import {alias.name}"
                             for alias in node.names
                             if alias.name.split(".")[0] == "scipy")
            elif (isinstance(node, ast.ImportFrom) and node.level == 0
                  and (node.module or "").split(".")[0] == "scipy"):
                found.append(f"line {node.lineno}: from {node.module}")
            visit(ast.iter_child_nodes(node))

    visit(tree.body)
    return found


def test_no_module_imports_scipy_at_module_scope():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) >= 9
    offenders = {path.name: scipy_imports_at_import_time(
        ast.parse(path.read_text())) for path in modules}
    assert {k: v for k, v in offenders.items() if v} == {}, (
        "import scipy inside the function that calls it (or under "
        "`if TYPE_CHECKING:` for an annotation), so that importing varq "
        "loads numpy alone")


def perfbench_names() -> tuple[set[str], set[str]]:
    """The tracer's EXTRA kernels, and every `layer.function` perfbench
    reads a metric from: EXTRA, the HOOKS keys, and each name the worker
    passes to calls, incl or self_s."""
    extra, names = set(), set()
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = getattr(node.targets[0], "id", None)
            if target == "EXTRA":
                extra = set(ast.literal_eval(node.value))
            elif target == "HOOKS":
                names |= {ast.literal_eval(key) for key in node.value.keys}
    for node in ast.walk(ast.parse((PERFBENCH / "worker.py").read_text())):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("calls", "incl", "self_s")):
            names.add(ast.literal_eval(node.args[0]))
    return extra, names | extra


def module_functions(layer: str) -> set[str]:
    tree = ast.parse((SRC / f"{layer}.py").read_text())
    return {node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)}


def test_every_perfbench_name_is_a_traced_layer_function():
    extra, names = perfbench_names()
    assert len(names) >= 18
    split = [qual.split(".") for qual in sorted(names)]
    assert [f"{layer}.{name}" for layer, name in split
            if name not in module_functions(layer)] == []
    # the tracer wraps a private function only when EXTRA names it
    assert [f"{layer}.{name}" for layer, name in split
            if name.startswith("_") and f"{layer}.{name}" not in extra] == []


def hooked_arguments() -> dict[str, set[str]]:
    """`layer.function` -> the arguments its perfbench tracer hook reads
    by name, as `_bound(fn, args, kwargs)["name"]`."""
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    hooks = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) == "HOOKS"):
            hooks = {ast.literal_eval(key): value.id
                     for key, value in zip(node.value.keys, node.value.values)}
    read = {node.name: {sub.slice.value for sub in ast.walk(node)
                        if isinstance(sub, ast.Subscript)
                        and isinstance(sub.value, ast.Call)
                        and getattr(sub.value.func, "id", None) == "_bound"}
            for node in tree.body if isinstance(node, ast.FunctionDef)}
    return {qual: read[hook] for qual, hook in hooks.items()}


def parameters(layer: str, name: str) -> set[str]:
    for node in ast.parse((SRC / f"{layer}.py").read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            args = node.args
            return {arg.arg for arg in
                    args.posonlyargs + args.args + args.kwonlyargs}
    return set()


def test_every_argument_a_tracer_hook_binds_is_a_parameter():
    # a hook that binds a renamed parameter raises inside the traced
    # round, so `run.py --trace 1` would break; the floor is the hooks
    # that read an argument today (state, steps, n)
    hooked = hooked_arguments()
    assert sum(len(names) for names in hooked.values()) >= 3
    missing = [f"{qual}({name})" for qual, names in sorted(hooked.items())
               for name in sorted(names)
               if name not in parameters(*qual.split("."))]
    assert missing == []


def test_the_package_root_is_its_docstring_alone():
    # each name has one import path, its module's: a re-export at the
    # root would be a second one, kept in step by hand
    body = ast.parse((SRC / "__init__.py").read_text()).body
    assert len(body) == 1
    assert isinstance(body[0], ast.Expr)
    assert isinstance(body[0].value, ast.Constant)
    assert isinstance(body[0].value.value, str)


def defaulted_parameters() -> dict[str, tuple[str, int | None, str]]:
    """`module.function.parameter` -> (function, position, parameter) for
    every defaulted parameter of a module-level varq function; keyword-only
    parameters have no position."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(i, positional[i].arg)
                      for i in range(first, len(positional))]
            params += [(None, arg.arg) for arg, default
                       in zip(args.kwonlyargs, args.kw_defaults)
                       if default is not None]
            found.update({f"{path.stem}.{fn.name}.{name}": (fn.name, pos, name)
                          for pos, name in params})
    return found


def passed_arguments() -> set[tuple[str, int | str]]:
    """(called name, position or keyword) of every argument that a call in
    src/, tests/ or perfbench/ passes; calls are matched by name alone."""
    passed = set()
    for root in (SRC.parent, REPO / "tests", PERFBENCH):
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                passed |= {(name, i) for i in range(len(node.args))}
                passed |= {(name, kw.arg) for kw in node.keywords
                           if kw.arg is not None}
    return passed


def test_every_default_is_set_by_some_caller():
    passed = passed_arguments()
    assert [qual for qual, (fn, pos, name) in defaulted_parameters().items()
            if (fn, name) not in passed and (fn, pos) not in passed] == []


# public definitions kept as the independent reference that tests check a
# kernel against: the fused optimizer score is tested against the
# transition objective it stands for
REFERENCES = {"transition_objective"}


def test_every_public_name_has_a_non_test_caller():
    # a public function or class that only tests reach is code that no
    # scenario runs
    defined, used = set(), set()
    for path in outside_callers():
        for top in ast.parse(path.read_text()).body:
            own = None
            if (path.parent == SRC
                    and isinstance(top, (ast.FunctionDef, ast.ClassDef))):
                own = top.name
                if not own.startswith("_"):
                    defined.add(own)
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else None)
                if name is not None and name != own:
                    used.add(name)
    assert len(defined) >= 50
    assert sorted(defined - used - REFERENCES) == []
    assert REFERENCES <= defined


def outside_callers() -> list[pathlib.Path]:
    """The modules that count as use: src/varq, perfbench, and the
    acceptance gate."""
    paths = sorted(SRC.glob("*.py"))
    paths += sorted(PERFBENCH.glob("*.py"))
    paths.append(REPO / "tests" / "test_acceptance.py")
    return paths


def test_every_field_is_read_outside_the_unit_tests():
    # fields are matched by attribute name alone, so a field passes when
    # any object's attribute of the same name is read: a name shared with
    # another class's read field hides an unread one. The floor is the
    # exact field count, a sanity check that the scanner finds them all
    fields = set()
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if isinstance(cls, ast.ClassDef):
                fields |= {(cls.name, node.target.id) for node in cls.body
                           if isinstance(node, ast.AnnAssign)
                           and isinstance(node.target, ast.Name)}
    read = {node.attr for path in outside_callers()
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    assert len(fields) >= 87
    assert sorted(f"{cls}.{name}" for cls, name in fields
                  if name not in read) == []


def cli_written_keys() -> set[str]:
    """The string keys that cli.py's scenario runners and report writer
    put into a dict, as a display key or a subscript assignment."""
    keys = set()
    for fn in ast.parse((SRC / "cli.py").read_text()).body:
        if not (isinstance(fn, ast.FunctionDef)
                and (fn.name.startswith("_run_") or fn.name == "write_report")):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                keys |= {key.value for key in node.keys
                         if isinstance(key, ast.Constant)}
            elif (isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, ast.Store)
                  and isinstance(node.slice, ast.Constant)):
                keys.add(node.slice.value)
    return {key for key in keys if isinstance(key, str)}


def test_every_report_key_perfbench_reads_is_written_by_the_cli():
    # the workloads check each run's report by key, so a runner that
    # renames one would turn a passing check into a KeyError. The floor is
    # the exact count of keys read, a sanity check of the scanner
    read = {node.slice.value
            for node in ast.walk(ast.parse(
                (PERFBENCH / "workloads.py").read_text()))
            if isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)}
    assert len(read) >= 37
    assert sorted(read - cli_written_keys()) == []


def imported_names(tree: ast.Module) -> set[str]:
    """Names bound by the module-level imports of one module."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            names |= {(alias.asname or alias.name).split(".")[0]
                      for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def test_every_module_level_import_is_used():
    unused = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused[path.name] = sorted(imported_names(tree) - used)
    assert len(unused) >= 9
    assert {k: v for k, v in unused.items() if v} == {}


def call_sites(callee: str) -> list[str]:
    """`module.function` of every call `callee(...)` or `x.callee(...)` in
    src/varq, named by the module-level function or class that holds it."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            found += [f"{path.stem}.{getattr(top, 'name', '<module>')}"
                      for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and getattr(node.func, "id",
                                  getattr(node.func, "attr", None)) == callee]
    return found


def test_only_stencil_operator_builds_a_stencil():
    # one builder means one family of wall rows: an operator assembled
    # anywhere else could bring back hard-wall rows of its own
    assert call_sites("Stencil") == ["grid.stencil_operator"]


def test_solvers_have_one_crank_nicolson_step_loop():
    # single states and the vanishing-momentum block share one loop over
    # one factorization; a second caller of the factorization, or a
    # second function that solves with it, would be a second loop
    assert call_sites("zgttrf") == ["solvers._crank_nicolson"]
    assert sorted(set(call_sites("zgttrs"))) == ["solvers._crank_nicolson"]


def integrand_definitions() -> dict[str, list[str]]:
    """For every class in src/varq that derives from ConstraintFunctional:
    the integrand methods it defines, with "requires_aux" first where it
    sets that flag."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for cls in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(cls, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", None))
                    == "ConstraintFunctional" for base in cls.bases)):
                continue
            flags = [target.id for node in cls.body
                     if isinstance(node, (ast.Assign, ast.AnnAssign))
                     for target in (node.targets
                                    if isinstance(node, ast.Assign)
                                    else [node.target])
                     if getattr(target, "id", None) == "requires_aux"
                     and getattr(node.value, "value", None) is True]
            found[f"{path.stem}.{cls.name}"] = flags + [
                node.name for node in cls.body
                if isinstance(node, ast.FunctionDef)
                and node.name in ("integrand", "integrand_values")]
    return found


def test_each_constraint_functional_defines_its_integrand_once():
    # the value-level integrand serves integrand(state), the base class's,
    # and the numeric gradient alike; only a functional that needs a
    # d rho/dt field, which the values do not carry, writes integrand
    found = integrand_definitions()
    assert {"constraints.LocalMomentum", "constraints.DensityStationarity",
            "constraints.EnsembleHamiltonian"} <= found.keys()
    assert found == {name: (["requires_aux", "integrand"]
                            if "requires_aux" in methods
                            else ["integrand_values"])
                     for name, methods in found.items()}


def test_transition_layer_builds_no_dense_mesh():
    # the costs, moments and draws are per-axis vectors, and joint() and
    # transition_objective broadcast open meshes (np.ix_); a dense
    # GridSpec.meshes array per axis costs a full grid of floats each
    tree = ast.parse((SRC / "fluctuation.py").read_text())
    calls = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "meshes"]
    assert calls == []


def test_transition_layer_has_one_exponential():
    # _exp_weights stores 0 for a mass too small to be a normal float; an
    # exp anywhere else could bring subnormal masses, and x86's slow path
    # for them, back into the optimizer
    holders = [getattr(top, "name", "<module>")
               for top in ast.parse((SRC / "fluctuation.py").read_text()).body
               for node in ast.walk(top)
               if isinstance(node, ast.Attribute) and node.attr == "exp"]
    assert holders == ["_exp_weights"]


def cached_functions() -> list[str]:
    """`module.function` of every function in src/varq under a
    functools cache decorator: lru_cache, lru_cache(...) or cache."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            for deco in node.decorator_list:
                target = deco.func if isinstance(deco, ast.Call) else deco
                name = getattr(target, "id", getattr(target, "attr", None))
                if name in ("lru_cache", "cache"):
                    found.append(f"{path.stem}.{node.name}")
    return found


def cache_entries() -> dict:
    """Every cache of src/varq and a call that fills one small entry of it."""
    from varq import action, bipartite, cli, fields, grid, solvers

    line = grid.GridSpec.line(16, -1.0, 1.0)
    pair = grid.GridSpec((grid.Axis(12, 0.0, 2.0, grid.PERIODIC),
                          grid.Axis(10, -1.0, 1.0)))
    return {
        "grid.fd_weights": lambda: grid.fd_weights((-1, 0, 1), 2),
        "grid.stencil_operator":
            lambda: grid.stencil_operator(line.axes[0], 4, 1),
        "grid.stencil_reach": lambda: grid.stencil_reach(line.axes[0], 4),
        "grid._coordinates":
            lambda: grid._coordinates(line.axes[0], (False, False)),
        "grid._quadrature_weights":
            lambda: grid._quadrature_weights(line.axes[0]),
        "grid._node_volumes": lambda: grid._node_volumes(pair),
        "fields._evaluated_values": lambda: fields._evaluated_values(
            fields.Harmonic(), pair, grid.sign_bits(pair.axes)),
        "action._colors": lambda: action._colors(pair, 2),
        "solvers._rhs_operators": lambda: solvers._rhs_operators(pair),
        "solvers._symbol_peaks": lambda: solvers._symbol_peaks(4),
        "bipartite._difference_index":
            lambda: bipartite._difference_index(8),
        "cli._parser": cli._parser,
    }


def held_arrays(value) -> list:
    """Every numpy array a cached value holds: itself, the items of a
    tuple or list, the fields of a dataclass and the index and data
    arrays of a scipy sparse matrix, searched to any depth."""
    import dataclasses

    import numpy as np

    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in held_arrays(item)]
    if dataclasses.is_dataclass(value):
        return [a for f in dataclasses.fields(value)
                for a in held_arrays(getattr(value, f.name))]
    if hasattr(value, "indptr"):
        return [value.data, value.indices, value.indptr]
    return []


def test_every_cache_has_a_read_only_check():
    # a cache hands one object to every caller, so a cache that lands
    # without an entry here could hand out an array that a caller writes
    # into, and every later caller would read the write
    assert sorted(cached_functions()) == sorted(cache_entries())


@pytest.mark.parametrize("name", sorted(cache_entries()))
def test_no_cached_array_is_writeable(name):
    value = cache_entries()[name]()
    assert [a.shape for a in held_arrays(value) if a.flags.writeable] == []
