"""Spans around calls into the program's layers, recorded from outside.

``Tracer.install`` replaces the public functions of each ``sure_boundary``
module by timing wrappers, everywhere the function object is bound: in its
own module and in every module that imported the name (so
``families.tanh_sinh_unit`` and ``known_variance.tanh_sinh_unit`` record as
``quadrature.tanh_sinh_unit``).  It also wraps the scipy calls of the Monte
Carlo layer (``montecarlo.ndtri``, ``montecarlo.gammaincinv``) and the
``eval``/``deriv`` of every member ``make_shrinkage`` compiles.

A span is ``(id, parent, name, start, end, count, thread)``; ``count`` is a
per-call quantity (output bytes of ``canonical_json``, reps simulated by
``estimate_risk`` or ``domination_mc``) or 0.  Spans stay in memory until
``dump``.  Nothing in the program changes, so reports stay byte-identical
with tracing on.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from collections import defaultdict

MODULES = (
    "quadrature",
    "families",
    "core",
    "boundary",
    "known_variance",
    "montecarlo",
    "reports",
    "cli",
)

# scipy functions the Monte Carlo layer imports by name
EXTRA_CALLS = (("montecarlo", "ndtri"), ("montecarlo", "gammaincinv"))


def _utf8_len(text) -> int:
    return len(text.encode("utf-8")) if isinstance(text, str) else 0


# per-call counts, read from the call's result
COUNTERS = {
    "reports.canonical_json": _utf8_len,
    "montecarlo.estimate_risk": lambda report: report.reps,
    "montecarlo.domination_mc": lambda reports: sum(r.reps for r in reports),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.enabled = True  # off while the benchmark checks outputs
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        # a worker thread's first span belongs to whatever the main thread
        # is blocked in (the call that dispatched the work)
        main = self._main_stack
        return main[-1] if main else 0

    def wrap(self, name: str, fn, counter=None):
        spans, ids = self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = self._stack()
            sid = next(ids)
            parent = self._parent(stack)
            stack.append(sid)
            count = 0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, count, threading.get_ident()))

        return traced

    def wrap_generator(self, name: str, fn):
        """Record one span per item drawn from the generator fn returns."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            step = self.wrap(name, lambda: next(gen, _DONE))
            while True:
                item = step()
                if item is _DONE:
                    return
                yield item

        return traced

    def wrap_member(self, member):
        """A compiled ShrinkageFunction whose eval and deriv record spans."""
        return dataclasses.replace(
            member,
            eval=self.wrap("families.phi_eval", member.eval),
            deriv=self.wrap("families.phi_deriv", member.deriv),
        )

    def install(self) -> None:
        mods = {
            short: importlib.import_module(f"sure_boundary.{short}") for short in MODULES
        }
        wrapped: dict[int, object] = {}
        for short, mod in mods.items():
            names = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for attr in names:
                fn = getattr(mod, attr)
                if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__):
                    continue
                name = f"{short}.{attr}"
                if name == "families.make_shrinkage":
                    inner = self.wrap(name, fn)
                    wrapped[id(fn)] = functools.wraps(fn)(
                        lambda *a, _f=inner, **k: self.wrap_member(_f(*a, **k))
                    )
                elif name == "montecarlo.sample_model":
                    wrapped[id(fn)] = self.wrap_generator(name, fn)
                else:
                    wrapped[id(fn)] = self.wrap(name, fn, COUNTERS.get(name))
        for short, attr in EXTRA_CALLS:
            fn = getattr(mods[short], attr, None)
            if fn is not None:
                wrapped[id(fn)] = self.wrap(f"{short}.{attr}", fn)
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped and callable(obj):
                    setattr(mod, attr, wrapped[id(obj)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


_DONE = object()


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time, self time and summed count.

    Self time is the span's duration minus the durations of its direct
    children that ran on the same thread.
    """
    child_time: dict[int, float] = defaultdict(float)
    thread_of = {s[0]: s[6] for s in spans}
    for sid, parent, _name, t0, t1, _count, tid in spans:
        if parent and thread_of.get(parent) == tid:
            child_time[parent] += t1 - t0
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "time_s": 0.0, "self_s": 0.0, "count": 0}
    )
    for sid, _parent, name, t0, t1, count, _tid in spans:
        row = out[name]
        row["calls"] += 1
        row["time_s"] += t1 - t0
        row["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        row["count"] += count
    return dict(out)


def merge(rows: list[dict[str, dict[str, float]]]) -> dict[str, dict[str, float]]:
    out: dict[str, dict[str, float]] = {}
    for agg in rows:
        for name, row in agg.items():
            acc = out.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0, "count": 0})
            for key, value in row.items():
                acc[key] += value
    return out
