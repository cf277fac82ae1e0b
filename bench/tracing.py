"""Per-layer tracing by wrapping the package's public callables.

``Tracer.install()`` replaces every public function of each layer module,
and every public method of the classes those modules define, with a
timing wrapper.  The wrapper is set wherever the original is bound: on
its class, and under any name in any ``rankcontest`` module (so
``rankcontest.design.solve`` and ``rankcontest.cli.run_simulation`` are
wrapped too).  ``uninstall()`` puts every original back.

Each call records a span (name, start, end, parent).  Spans stay in
memory as four flat arrays until :meth:`Tracer.write`.  A layer's self
time is the time of its spans minus the time of their child spans; time
in private helpers that are not wrapped falls to the nearest wrapped
caller.  The package is single-threaded, so one span stack suffices and
there is no waiting time to separate out.

Counts come from arguments and results, or from wrapping the callables
passed in: the integrand given to ``quadrature.integrate`` and the
objective given to ``rootfind.expand_bracket``/``bracketed_root``.
"""

import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

import numpy as np

LAYERS = (
    "binom",
    "costs",
    "mechanism",
    "equilibrium",
    "quadrature",
    "rootfind",
    "metrics",
    "design",
    "montecarlo",
    "cli",
)

MB = 2**20
_PRESSURE = "equilibrium.EquilibriumSolution.pressure"


def _size(x) -> int:
    return int(np.size(x))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = defaultdict(int)  # per layer
        self.self_s = defaultdict(float)  # per layer
        self.counts = defaultdict(float)
        self._stack: list[list] = []  # [span index, layer, child seconds]
        self._design_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {
            name: importlib.import_module(f"rankcontest.{name}") for name in LAYERS
        }
        replacements = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replacements[id(obj)] = self._wrap(f"{layer}.{name}", layer, obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "rankcontest" and not mod_name.startswith("rankcontest."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._restore.append((module, name, obj))
                    setattr(module, name, wrapper)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            self._restore.append((cls, name, obj))
            setattr(cls, name, self._wrap(f"{layer}.{cls.__name__}.{name}", layer, obj))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, layer: str, fn):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        hook = _HOOKS.get(name)
        is_design = layer == "design"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.span_name)
            stack = self._stack
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            parent_name = self.names[self.span_name[stack[-1][0]]] if stack else None
            frame = [index, layer, 0.0]
            stack.append(frame)
            if is_design:
                self._design_depth += 1
            after = hook(self, parent_name, args, kwargs) if hook else None
            if after is not None:
                args, kwargs, after = after
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_design:
                    self._design_depth -= 1
                duration = end - start
                self.span_start[index] = start
                self.span_end[index] = end
                self.calls[layer] += 1
                self.self_s[layer] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if after is not None:
                    after(ok)

        return wrapper

    # -- results ------------------------------------------------------------

    def layer_metrics(self, ops: int, rounds: int) -> dict:
        """Per-layer metrics per round: totals divided by the number of
        whole rounds, so they do not grow with the run's length."""
        c = self.counts
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = (self.calls[layer] / rounds, "count")
            metrics[f"{layer}.self_s"] = (self.self_s[layer] / rounds, "s")
        pressure_calls = c["pressure.calls"]
        quad_points = c["quadrature.points"]
        metrics.update({
            "binom.pmf_cells": (c["binom.pmf_cells"] / rounds, "count"),
            "binom.pmf_mb": (8.0 * c["binom.pmf_cells"] / MB / rounds, "MB"),
            "equilibrium.pressure.points": (c["pressure.points"] / rounds, "count"),
            "equilibrium.kernel_calls_per_pressure": (
                c["pressure.kernel_calls"] / pressure_calls if pressure_calls else 0.0, "ratio"),
            "equilibrium.quantile.points": (c["quantile.points"] / rounds, "count"),
            "equilibrium.solve.calls": (c["solve.calls"] / rounds, "count"),
            "costs.inverse.points": (c["inverse.points"] / rounds, "count"),
            "quadrature.points": (quad_points / rounds, "count"),
            "quadrature.useful_share": (
                c["quadrature.useful_points"] / quad_points if quad_points else 0.0, "ratio"),
            "quadrature.failures": (c["quadrature.failures"] / rounds, "count"),
            "metrics.quality_integrals": (c["metrics.quality_integrals"] / rounds, "count"),
            "rootfind.evals": (c["rootfind.evals"] / rounds, "count"),
            "design.solves_per_op": (c["design.solves"] / ops, "ratio"),
            "montecarlo.agent_trials": (c["montecarlo.agent_trials"] / rounds, "count"),
            "montecarlo.peak_alloc_mb": (c["montecarlo.peak_alloc"] / MB, "MB"),
            "cli.record_bytes": (c["cli.record_bytes"] / rounds, "bytes"),
        })
        return metrics

    def write(self, path, extra: dict) -> None:
        """Write the spans and ``extra`` (metrics, settings) as JSON."""
        data = dict(extra)
        data["span_names"] = self.names
        data["spans"] = {
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)


# ---------------------------------------------------------------------------
# counting hooks: (tracer, parent span name, args, kwargs) -> None, or
# (args, kwargs, after) where after(ok) runs once the call has ended


def _pmf_matrix(t, parent, args, kwargs):
    m, x = args[0], args[1]
    t.counts["binom.pmf_cells"] += (m + 1) * _size(x)
    if parent == _PRESSURE:
        t.counts["pressure.kernel_calls"] += 1


def _pressure(t, parent, args, kwargs):
    t.counts["pressure.calls"] += 1
    t.counts["pressure.points"] += _size(args[1])


def _quantile(t, parent, args, kwargs):
    t.counts["quantile.points"] += _size(args[1])


def _solve(t, parent, args, kwargs):
    t.counts["solve.calls"] += 1
    if t._design_depth:
        t.counts["design.solves"] += 1


def _inverse(t, parent, args, kwargs):
    t.counts["inverse.points"] += _size(args[1])


def _integrate(t, parent, args, kwargs):
    sizes = []
    f = args[0]

    def integrand(x):
        sizes.append(_size(x))
        return f(x)

    def after(ok):
        t.counts["quadrature.points"] += sum(sizes)
        if ok and sizes:
            t.counts["quadrature.useful_points"] += sizes[-1]
        if not ok:
            t.counts["quadrature.failures"] += 1
        if parent is not None and parent.startswith("metrics."):
            t.counts["metrics.quality_integrals"] += 1

    return (integrand,) + tuple(args[1:]), kwargs, after


def _root(t, parent, args, kwargs):
    g = args[0]

    def objective(x):
        t.counts["rootfind.evals"] += 1
        return g(x)

    return (objective,) + tuple(args[1:]), kwargs, None


def _simulation(t, parent, args, kwargs):
    sol = args[0]
    trials = args[-2] if len(args) >= 3 else kwargs["trials"]
    t.counts["montecarlo.agent_trials"] += trials * sol.n
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()

    def after(ok):
        peak = tracemalloc.get_traced_memory()[1]
        t.counts["montecarlo.peak_alloc"] = max(t.counts["montecarlo.peak_alloc"], peak)
        if started:
            tracemalloc.stop()

    return args, kwargs, after


def _cli_main(t, parent, args, kwargs):
    out = sys.stdout
    before = out.tell() if out.seekable() else None

    def after(ok):
        if before is not None:
            t.counts["cli.record_bytes"] += out.tell() - before

    return args, kwargs, after


_HOOKS = {
    "binom.pmf_matrix": _pmf_matrix,
    _PRESSURE: _pressure,
    "equilibrium.EquilibriumSolution.quantile": _quantile,
    "equilibrium.solve": _solve,
    "costs.LinearCost.inverse": _inverse,
    "costs.ExponentialCost.inverse": _inverse,
    "costs.QuadraticPlusCost.inverse": _inverse,
    "quadrature.integrate": _integrate,
    "rootfind.expand_bracket": _root,
    "rootfind.bracketed_root": _root,
    "montecarlo.run": _simulation,
    "montecarlo.deviation_check": _simulation,
    "cli.main": _cli_main,
}
