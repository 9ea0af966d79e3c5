"""Span tracer that instruments driftbound from outside the package.

The tracer replaces, for the duration of a traced pass, every binding
through which the program calls a public function of one of its own
modules: module globals (including names imported from a sibling module,
such as ``minorization.integrate``), function tables such as
``acceptance.CRITERIA``, and the public methods, static methods and
constructors of the package's classes.  Each call then records one span
``(name, start, end, parent)``.  A span is named after the layer that
defines the function, so ``cli.assemble_gibbs_bound`` and
``hier_model.assemble_gibbs_bound`` are the same span name; the layer of
``driftbound._marginal`` is spelt ``marginal``.

Some calls also record counts (integrand abscissae, chain steps).  Spans
stay in memory until :meth:`Tracer.aggregate` or :meth:`Tracer.dump`.

Self time is a span's duration minus the durations of its direct child
spans.  Private helpers and callbacks are not spans of their own, so their
time lands in the self time of the nearest traced caller; for example the
time spent inside minorization's integrands is part of
``numerics.integrate`` self time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# ``integrate_with_error`` is the body of ``integrate`` (its only caller in
# the package), so it is timed as part of the ``numerics.integrate`` span.
NOT_TRACED = frozenset({"numerics.integrate_with_error"})

# Work counted per call from the call's arguments, as ``<span>.<key>``.
WORK_COUNTS = {
    "marginal.run_summary_chain": ("steps", lambda a: a["n_steps"]),
    "simulation.hitting_time_stats": ("pair_steps", lambda a: a["n_pairs"] * a["n_steps"]),
}


def layer_of(module_name: str) -> str:
    """``driftbound._marginal`` -> ``marginal``; ``driftbound.cli`` -> ``cli``."""
    return module_name.rsplit(".", 1)[-1].lstrip("_")


def _bound_args(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Tracer:
    """Records spans and counts for the package modules given to it."""

    def __init__(self, modules):
        self.modules = list(modules)
        self.package = self.modules[0].__name__.split(".")[0]
        self.spans: list[list] = []      # [name, start, end, parent, child_time]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []   # (target, key, original, kind)
        self._wrappers: dict[int, object] = {}

    # -- span recording -------------------------------------------------

    def _span(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                args, kwargs = hook(fn, args, kwargs)
            parent = stack[-1] if stack else -1
            rec = [name, clock(), 0.0, parent, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][4] += rec[2] - rec[1]

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into the program."""
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent][4] += rec[2] - rec[1]

    # -- per-call counts ------------------------------------------------

    def _hook_for(self, name):
        counts = self.counts
        if name == "numerics.integrate":
            def hook(fn, args, kwargs):
                params = _bound_args(fn, args, kwargs)
                f = params["f"]

                def counted(x):
                    counts["numerics.integrate.evals"] += np.size(x)
                    return f(x)

                params["f"] = counted
                return (), params
            return hook
        if name in WORK_COUNTS:
            key, amount = WORK_COUNTS[name]

            def hook(fn, args, kwargs):
                counts[f"{name}.{key}"] += amount(_bound_args(fn, args, kwargs))
                return args, kwargs
            return hook
        return None

    # -- installing and removing the wrappers ---------------------------

    def _own(self, obj) -> bool:
        return getattr(obj, "__module__", "").split(".")[0] == self.package

    def _wrapped(self, fn, name):
        key = id(fn)
        if key not in self._wrappers:
            self._wrappers[key] = self._span(name, fn, self._hook_for(name))
        return self._wrappers[key]

    def _patch(self, target, key, value, kind):
        if kind == "attr":
            self._patches.append((target, key, vars(target)[key], kind))
            setattr(target, key, value)
        else:
            self._patches.append((target, key, target[key], kind))
            target[key] = value

    def _function_name(self, fn) -> str:
        return f"{layer_of(fn.__module__)}.{fn.__name__}"

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module in self.modules:
            for key, val in list(vars(module).items()):
                if key.startswith("_"):
                    continue
                if inspect.isfunction(val) and self._own(val):
                    name = self._function_name(val)
                    if name not in NOT_TRACED:
                        self._patch(module, key, self._wrapped(val, name), "attr")
                elif isinstance(val, dict):
                    for k, v in list(val.items()):
                        if inspect.isfunction(v) and self._own(v):
                            self._patch(val, k, self._wrapped(v, self._function_name(v)), "item")
                elif inspect.isclass(val) and val.__module__ == module.__name__:
                    self._install_class(val)

    def _install_class(self, cls) -> None:
        prefix = f"{layer_of(cls.__module__)}.{cls.__name__}"
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__" and inspect.isfunction(raw):
                self._patch(cls, attr, self._wrapped(raw, prefix), "attr")
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrapped(raw, f"{prefix}.{attr}"), "attr")
            elif isinstance(raw, (staticmethod, classmethod)):
                inner = self._wrapped(raw.__func__, f"{prefix}.{attr}")
                self._patch(cls, attr, type(raw)(inner), "attr")

    def remove(self) -> None:
        for target, key, original, kind in reversed(self._patches):
            if kind == "attr":
                setattr(target, key, original)
            else:
                target[key] = original
        self._patches.clear()
        self._wrappers.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- results --------------------------------------------------------

    def aggregate(self, spans: list[list] | None = None) -> dict[str, dict]:
        """Per span name: calls, covered time ``s`` and ``self_s``.

        ``s`` counts a span only when no ancestor has the same name, so a
        quadrature nested inside another quadrature is not counted twice.
        """
        spans = self.spans if spans is None else spans
        table: dict[str, dict] = {}
        for rec in spans:
            name, t0, t1, parent, child = rec
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                row["s"] += t1 - t0
        return table

    def subtree_self_sum(self, root: int) -> float:
        """Sum of self times over the span ``root`` and all its descendants."""
        total = 0.0
        inside = {root}
        for i in range(root, len(self.spans)):
            name, t0, t1, parent, child = self.spans[i]
            if i == root or parent in inside:
                inside.add(i)
                total += (t1 - t0) - child
        return total

    def dump(self, path: Path, extra: dict) -> None:
        """Write the aggregate table, the counts and every span as JSON."""
        names = sorted({rec[0] for rec in self.spans})
        code = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0.0
        doc = {
            **extra,
            "layers": self.aggregate(),
            "counts": dict(self.counts),
            "span_names": names,
            "spans": [[code[r[0]], round(r[1] - base, 7), round(r[2] - base, 7), r[3]]
                      for r in self.spans],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
