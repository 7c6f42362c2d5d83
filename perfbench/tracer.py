"""Span tracer that wraps mmmkit's public functions from outside the package.

Each call of a wrapped function is a span.  A span's inclusive time is its
duration; its self time is that duration minus the part covered by the spans
it called.  Spans of one query are aggregated per name in memory and read
once, when the query ends.

Wrapping replaces every binding of a function: the attribute it is defined
under and every ``from ... import name`` copy in any ``mmmkit`` module.  A
copy left unwrapped would run untimed, so ``install`` fails if one remains.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

from layers import CACHES, COUNTS, SPANS


def _count_rref(counts, args, result):
    rows, ncols = args
    out, pivots = result
    counts["exactq.rref_int.cells"] += len(rows) * ncols
    counts["exactq.rref_int.rank"] += len(pivots)
    counts["exactq.rref_int.max_rows"] = max(counts["exactq.rref_int.max_rows"], len(rows))
    biggest = max((max(map(abs, row)) for row in out if row), default=0)
    counts["exactq.rref_int.max_bits"] = max(
        counts["exactq.rref_int.max_bits"], biggest.bit_length()
    )


def _pair_counter(key):
    def count(counts, args, result):
        left, right = args
        if type(right) is type(left):
            counts[key] += len(left.terms) * len(right.terms)

    return count


_COUNTERS = {
    "exactq.rref_int": _count_rref,
    "gradedalg.poly_mul": _pair_counter("gradedalg.poly_mul.pairs"),
    "gradedalg.tensor_mul": _pair_counter("gradedalg.tensor_mul.pairs"),
}


class Tracer:
    """Per-name span totals and exact counts for one traced query."""

    def __init__(self):
        self.spans = {}  # name -> [calls, incl_s, self_s, open depth]
        self.counts = dict.fromkeys((name for name, _ in COUNTS), 0)
        self.caches = {}  # name -> lru_cache object
        self._stack = []  # time covered by children, one cell per open span

    def wrap(self, name, fn, count=None):
        """``fn`` wrapped so that each call records a span called ``name``."""
        stat = self.spans[name] = [0, 0.0, 0.0, 0]
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            covered = [0.0]
            stack.append(covered)
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[3] -= 1
                stat[0] += 1
                stat[2] += elapsed - covered[0]
                if not stat[3]:  # nested calls of the same name count once
                    stat[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def report(self):
        caches = {}
        for name, cache in self.caches.items():
            info = cache.cache_info()
            caches[name] = [info.hits, info.misses]
        return {
            "spans": {name: stat[:3] for name, stat in self.spans.items()},
            "counts": dict(self.counts),
            "caches": caches,
        }


def _mmmkit_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "mmmkit" or name.startswith("mmmkit."))
    ]


def _namespaces():
    """Every module and class namespace in mmmkit that can hold a binding."""
    spaces = []
    for module in _mmmkit_modules():
        spaces.append(module)
        for value in vars(module).values():
            if inspect.isclass(value) and value.__module__.startswith("mmmkit"):
                spaces.append(value)
    return spaces


def _resolve(module_name, path):
    """(owner, attribute, raw value) for a dotted path inside a module."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr, vars(owner)[attr]


def install():
    """Wrap every span target and counter in the loaded mmmkit modules."""
    tracer = Tracer()
    for name, module, attr in CACHES:
        tracer.caches[name] = getattr(importlib.import_module(module), attr)

    replaced = []
    for name, module, path, _ in SPANS:
        owner, attr, raw = _resolve(module, path)
        is_classmethod = isinstance(raw, classmethod)
        fn = raw.__func__ if is_classmethod else raw
        wrapped = tracer.wrap(name, fn, _COUNTERS.get(name))
        if inspect.isclass(owner):
            setattr(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
        else:
            for space in _mmmkit_modules():
                for key, value in list(vars(space).items()):
                    if value is fn:
                        setattr(space, key, wrapped)
        replaced.append((name, raw))

    gradedalg = importlib.import_module("mmmkit.gradedalg")
    degree = gradedalg.GeneratorAlphabet.degree
    counts = tracer.counts

    @functools.wraps(degree)
    def counted_degree(self, exponents):
        counts["gradedalg.degree.calls"] += 1
        return degree(self, exponents)

    gradedalg.GeneratorAlphabet.degree = counted_degree
    replaced.append(("gradedalg.degree", degree))

    for space in _namespaces():
        for key, value in vars(space).items():
            for name, raw in replaced:
                if value is raw:
                    raise RuntimeError(
                        f"{name}: {getattr(space, '__name__', space)}.{key} is still unwrapped"
                    )
    return tracer
