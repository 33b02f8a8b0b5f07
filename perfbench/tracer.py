"""Span tracer that instruments varq from outside the package.

`Tracer.install` replaces every public module-level function of each
layer module (plus a few private kernels named in EXTRA) with a timing
wrapper, in every varq module that binds it. That last part matters:
`solvers`, `action`, `constraints`, `bipartite` and `cli` import
`diff_values`, `bohm_potential` and friends by name, so patching only the
defining module would leave their calls uncounted. `uninstall` puts the
original objects back.

Spans are kept in memory as (name, start, end, parent, op) tuples; a
layer's self time is its span minus the spans of its direct children.
Counters that need arguments or results (iterations, steps, draws,
report bytes) are collected by per-function hooks.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("grid", "fields", "action", "constraints", "solvers",
          "fluctuation", "bipartite", "cli")

# private kernels whose call counts are per-layer metrics
EXTRA = ("solvers._madelung_rhs",)


def _bound(fn, args, kwargs):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _hook_madelung(tr, fn, args, kwargs, result):
    tr.count["solvers.propagate_madelung.calls"] += 1
    tr.count["solvers.substeps_total"] += result.substeps_per_step


def _hook_wavefunction(tr, fn, args, kwargs, result):
    tr.count["solvers.cn_steps"] += _bound(fn, args, kwargs)["steps"]


def _hook_numeric_gradient(tr, fn, args, kwargs, result):
    state = _bound(fn, args, kwargs)["state"]
    tr.count["action.functional_evals"] += 2 * state.grid.n_nodes


def _hook_optimizer(tr, fn, args, kwargs, result):
    dist, iterations = result
    tr.count["fluctuation.optimizer_iterations"] += iterations
    nodes = dist.grid.n_nodes
    tr.count["fluctuation.node_iterations"] += nodes * iterations
    tr.count["fluctuation.grid_nodes"] = max(
        tr.count["fluctuation.grid_nodes"], nodes)


def _hook_sampler(tr, fn, args, kwargs, result):
    tr.count["fluctuation.draws"] += _bound(fn, args, kwargs)["n"]


def _hook_report(tr, fn, args, kwargs, result):
    tr.count["cli.report_bytes"] += os.path.getsize(result)


HOOKS = {
    "solvers.propagate_madelung": _hook_madelung,
    "solvers.propagate_wavefunction": _hook_wavefunction,
    "action.numeric_functional_gradient": _hook_numeric_gradient,
    "fluctuation.optimize_transition_numeric": _hook_optimizer,
    "fluctuation.sample_fluctuations": _hook_sampler,
    "cli.write_report": _hook_report,
}


def layer_functions() -> dict:
    """Qualified name -> function for every traced function of the layers."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"varq.{layer}"]
        for name, obj in vars(mod).items():
            qual = f"{layer}.{name}"
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and (not name.startswith("_") or qual in EXTRA)):
                out[qual] = obj
    return out


class Tracer:
    """In-memory span recorder; one instance per traced round."""

    def __init__(self):
        self.spans: list = []
        self.count: defaultdict = defaultdict(int)
        self.op = -1
        self._stack: list = []
        self._patched: list = []

    def _wrap(self, qual, fn):
        spans = self.spans
        stack = self._stack
        hook = HOOKS.get(qual)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (qual, start, end, parent, self.op)
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(qual, fn)
                    for qual, fn in layer_functions().items()}
        modules = [sys.modules["varq"]] + [
            sys.modules[f"varq.{layer}"] for layer in LAYERS]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(mod, name, wrapper)
                    self._patched.append((mod, name, obj))

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def totals(self) -> dict:
        """Per function: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for qual, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (qual, start, end, parent, op) in enumerate(self.spans):
            calls, incl, self_s = out.get(qual, (0, 0.0, 0.0))
            dur = end - start
            out[qual] = (calls + 1, incl + dur, self_s + dur - child[i])
        return out

    def write(self, path) -> None:
        """Spans as tab-separated lines, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for i, (qual, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i}\t{qual}\t{start - t0:.9f}\t{end - t0:.9f}"
                         f"\t{parent}\t{op}\n")
