"""Span wrappers over singerlab's public functions, for a traced pass.

install() replaces every singerlab module attribute (and class attribute)
bound to one of the functions below with a wrapper that records a span:
calls, total time and self time, where self time is the span's time minus
the time of the spans it encloses.  Spans are aggregated by name in memory
and read out once the pass has ended.  Generators are timed inside their
iterator, one segment per item.

mul_entries and FieldSpec.mul/add are deliberately left unwrapped: they
run millions of times per pass and a wrapper would distort the run.  Time
spent in them is charged to the enclosing span's self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, function or Class.method, span name)
CALLS = [
    ("singerlab.groupgen", "group_closure", "groupgen.closure"),
    ("singerlab.groupgen", "normalizer_of_cyclic", "groupgen.normalizer"),
    ("singerlab.groupgen", "_GenerationCache.generates", "groupgen.cache"),
    ("singerlab.groupgen", "classify_qc", "groupgen.classify_qc"),
    ("singerlab.groupgen", "verify_main1", "groupgen.verify_main1"),
    ("singerlab.groupgen", "verify_main2", "groupgen.verify_main2"),
    ("singerlab.groupgen", "verify_gill", "groupgen.verify_gill"),
    ("singerlab.reflect", "reflection_length", "reflect.reflection_length"),
    ("singerlab.reflect", "is_reflection", "reflect.is_reflection"),
    ("singerlab.reflect", "enumerate_reflections", "reflect.enumerate_reflections"),
    ("singerlab.reflect", "stabilizing_factorization", "reflect.witness"),
    ("singerlab.reflect", "factorizations_in_det_subgroup", "reflect.witness"),
    ("singerlab.matrix", "fixed_space", "matrix.fixed_space"),
    ("singerlab.matrix", "Matrix.inverse", "matrix.inverse"),
    ("singerlab.matrix", "matrix_order", "matrix.matrix_order"),
    ("singerlab.matrix", "char_poly", "matrix.char_poly"),
    ("singerlab.poly", "powmod", "poly.powmod"),
    ("singerlab.poly", "is_irreducible", "poly.is_irreducible"),
    ("singerlab.poly", "is_primitive_poly", "poly.is_primitive_poly"),
    ("singerlab.singer", "is_singer", "singer.is_singer"),
    ("singerlab.singer", "singer_oracles", "singer.singer_oracles"),
    ("singerlab.singer", "normalizing_reflections", "singer.normalizing_reflections"),
    ("singerlab.singer", "singer_equivalence_report", "singer.equivalence_report"),
    ("singerlab.cli", "main", "cli"),
]
GENERATORS = [
    ("singerlab.reflect", "enumerate_minimal_factorizations", "reflect.enumerate"),
    ("singerlab.matrix", "enumerate_gl", "matrix.enumerate_gl"),
]


class Tracer:
    """Aggregated spans and counters of one traced pass."""

    def __init__(self):
        names = [name for _, _, name in CALLS + GENERATORS]
        self.spans = {name: [0, 0.0, 0.0] for name in names}  # calls, total_s, self_s
        self.counts = Counter()
        self._stack = []  # open spans: [name, start, time of enclosed spans]
        self._enumerating = 0

    def _enter(self, name: str, call: bool) -> None:
        if call:
            self.spans[name][0] += 1
        self._stack.append([name, perf_counter(), 0.0])

    def _leave(self) -> None:
        end = perf_counter()
        name, start, enclosed = self._stack.pop()
        took = end - start
        span = self.spans[name]
        span[1] += took
        span[2] += took - enclosed
        if self._stack:
            self._stack[-1][2] += took

    def _call(self, fn, name: str):
        enter, leave = self._enter, self._leave

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter(name, True)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return wrapper

    def _generator(self, fn, name: str):
        def segments(it):
            searching = name == "reflect.enumerate"
            while True:
                self._enter(name, False)
                self._enumerating += searching
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._enumerating -= searching
                    self._leave()
                if searching:
                    self.counts["reflect.factorizations"] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.spans[name][0] += 1
            return segments(fn(*args, **kwargs))
        return wrapper

    def _wrap(self, fn, name: str):
        """The span wrapper for one target, with the counters it feeds."""
        timed = self._call(fn, name)
        counts = self.counts
        if name == "groupgen.closure":
            @functools.wraps(fn)
            def closure(*args, **kwargs):
                result = timed(*args, **kwargs)
                counts["groupgen.closure.elements"] += result.order
                return result
            return closure
        if name == "groupgen.cache":
            closures = self.spans["groupgen.closure"]

            @functools.wraps(fn)
            def lookup(*args, **kwargs):
                before = closures[0]
                verdict = timed(*args, **kwargs)
                counts["groupgen.cache.hits"] += closures[0] == before
                return verdict
            return lookup
        if name == "reflect.reflection_length":
            @functools.wraps(fn)
            def node(*args, **kwargs):
                counts["reflect.search_nodes"] += self._enumerating > 0
                return timed(*args, **kwargs)
            return node
        return timed


def install() -> Tracer:
    """Wrap every target in the loaded singerlab modules; returns the tracer.

    singerlab.cli must already be imported, so that the names it imports
    directly are rebound as well.
    """
    tracer = Tracer()
    rebind = {}
    for targets, make in ((CALLS, tracer._wrap), (GENERATORS, tracer._generator)):
        for module_name, attr, name in targets:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            wrapper = make(fn, name)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                rebind[id(fn)] = (fn, wrapper)
    modules = [m for n, m in sys.modules.items()
               if n == "singerlab" or n.startswith("singerlab.")]
    for module in modules:
        for key, value in list(vars(module).items()):
            target = rebind.get(id(value))
            if target is not None and target[0] is value:
                setattr(module, key, target[1])
    return tracer
