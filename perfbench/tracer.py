"""Outside-in span tracer for the wassrec package.

``install`` rebinds the public functions of each layer module (every
function named in its ``__all__``, plus ``InteractionTable.by_user``
and the ``cli.cmd_*`` stage functions) to wrappers that record a span:
name, start, end and the index of the enclosing span.  A rebound name
is replaced in every ``wassrec`` namespace that holds the same
function object, so calls made through another module's import are
traced too.  Classes are left alone, so ``isinstance`` keeps working,
and private helpers are never wrapped.  The program's source is not
touched; spans stay in memory until ``dump``.

``summarize`` turns spans into per-function call counts, self time
(span duration minus the time its child spans cover) and per-call
duration quantiles.  ``span_cost`` measures what one span adds to a
call, so a traced run can report its own overhead as spans x cost.
"""

import functools
import importlib
import inspect
import json
import time

import numpy as np

LAYERS = ("dataio", "transport", "wfilter", "wcf", "metrics", "cli")


class Tracer:
    """Spans as [name, start, end, parent] lists, parent -1 at the root."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.iterations = {}

    def wrap(self, name, fn, count_iterations=False):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count_iterations:
                self.iterations[name] = self.iterations.get(name, 0) + result.iterations
            return result

        return traced

    def dump(self, path, **extra) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "iterations": self.iterations, **extra}, fh)


def span_cost(calls=20_000, repeats=5) -> float:
    """Seconds one traced call costs beyond the call itself (best of ``repeats``)."""
    def noop():
        return None

    def per_call(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    costs = [per_call(Tracer().wrap("noop", noop)) - per_call(noop) for _ in range(repeats)]
    return max(min(costs), 0.0)


def _rebind(namespaces, original, wrapped) -> None:
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every public layer function of the ``wassrec`` package."""
    package = importlib.import_module("wassrec")
    modules = {name: importlib.import_module("wassrec." + name) for name in LAYERS}
    namespaces = [package, *modules.values()]
    for short, module in modules.items():
        targets = [(attr, getattr(module, attr)) for attr in module.__all__]
        if short == "cli":
            targets += [(attr, getattr(module, attr))
                        for attr in sorted(vars(module)) if attr.startswith("cmd_")]
        for attr, fn in targets:
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = "%s.%s" % (short, attr)
            wrapped = tracer.wrap(name, fn, count_iterations=(name == "transport.sinkhorn"))
            _rebind(namespaces, fn, wrapped)
    table = modules["dataio"].InteractionTable
    table.by_user = tracer.wrap("dataio.by_user", table.by_user)


def summarize(spans) -> dict:
    """Per span name: calls, self_s, and p50_ms / p99_ms of span duration."""
    duration = np.array([end - start for _, start, end, _ in spans], dtype=np.float64)
    child = np.zeros(len(spans))
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            child[parent] += duration[i]
    by_name = {}
    for i, (name, _, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(i)
    out = {}
    for name, idx in by_name.items():
        d = duration[idx]
        out[name] = {
            "calls": len(idx),
            "self_s": float((d - child[idx]).sum()),
            "p50_ms": float(np.percentile(d, 50)) * 1e3,
            "p99_ms": float(np.percentile(d, 99)) * 1e3,
        }
    return out
