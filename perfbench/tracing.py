"""Spans around the calls into each layer of sfnfa, from outside it.

``Tracer.installed()`` replaces each layer function at every name an sfnfa
module (or the package namespace) binds it to, which is the name its caller
looks up at call time, and puts the originals back on exit.  Each call
records a span: layer, start, end, parent span and item id.  Spans live in
flat arrays so a pass with hundreds of thousands of membership calls stays
small, and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from contextlib import contextmanager


def _found(args, result):
    return int(result is not None)


def _filter_work(args, result):
    k, sigma = args[0], args[1]
    return (1 << k) ** (k * sigma), len(result)


# (layer, module, functions, count(args, result) or None).  The
# constructions are the six that `sfnfa op` offers.
LAYERS = (
    ("automata.accepts", "sfnfa.automata", ("accepts",), None),
    ("automata.enumerate_words", "sfnfa.automata", ("enumerate_words",),
     lambda args, result: len(result)),
    ("automata.canonical_dfa", "sfnfa.automata", ("canonical_dfa",), None),
    ("constructions", "sfnfa.constructions",
     ("union_sf", "concat_sf", "intersect_sf", "star_sf", "reverse_nfa", "complement_sf"),
     None),
    ("suffixfree.is_suffix_free", "sfnfa.suffixfree", ("is_suffix_free",),
     lambda args, result: int(not result.suffix_free)),
    ("bounds.verify_fooling_set", "sfnfa.bounds", ("verify_fooling_set",),
     lambda args, result: len(args[1].pairs)),
    ("bounds.search_fooling_set", "sfnfa.bounds", ("search_fooling_set",), _found),
    ("bounds.nsc_exhaustive", "sfnfa.bounds", ("nsc_exhaustive",), _found),
    ("kernel.filter_tables", "sfnfa._kernel", ("filter_tables",), _filter_work),
    ("serialize", "sfnfa.serialize", ("from_json", "to_json"),
     # bytes read by from_json, or written by to_json
     lambda args, result: len(result if isinstance(result, str) else args[0])),
)
ITEM = "item"  # the benchmark's own span around each item
NAMES = (ITEM,) + tuple(layer for layer, *_ in LAYERS)


class Tracer:
    def __init__(self):
        self._patched = []
        self.item = -1
        self.reset()

    def reset(self):
        self.layer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.item_of = array("l")
        self.extra: dict[int, object] = {}
        self._stack = [-1]

    def _open(self, layer_id: int) -> int:
        idx = len(self.start)
        self.layer.append(layer_id)
        self.parent.append(self._stack[-1])
        self.item_of.append(self.item)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, layer_id, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count is not None:
                tracer.extra[idx] = count(args, result)
            return result

        return traced

    @contextmanager
    def item_span(self, item_index: int):
        self.item = item_index
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)
            self.item = -1

    @contextmanager
    def installed(self):
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sfnfa" or name.startswith("sfnfa."))]
        try:
            for layer_id, (_layer, module, functions, count) in enumerate(LAYERS, start=1):
                mod = importlib.import_module(module)
                for fname in functions:
                    original = getattr(mod, fname)
                    wrapper = self._wrap(layer_id, original, count)
                    for target in modules:
                        for attr, value in list(vars(target).items()):
                            if value is original:
                                setattr(target, attr, wrapper)
                                self._patched.append((target, attr, original))
            yield self
        finally:
            for target, attr, original in reversed(self._patched):
                setattr(target, attr, original)
            self._patched.clear()

    def summary(self) -> dict:
        """Per-layer calls, busy time, self time and counts of the spans
        recorded since the last reset.  Busy time counts a span only when no
        enclosing span belongs to the same layer; self time is a span's
        duration minus the time its direct children cover."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        stats = {name: {"calls": 0, "busy_ns": 0, "self_ns": 0, "count": 0, "count2": 0,
                        "children": {}} for name in NAMES}
        for i in range(n):
            name = NAMES[self.layer[i]]
            st = stats[name]
            st["calls"] += 1
            st["self_ns"] += dur[i] - covered[i]
            p = self.parent[i]
            while p >= 0 and self.layer[p] != self.layer[i]:
                p = self.parent[p]
            if p < 0:
                st["busy_ns"] += dur[i]
            extra = self.extra.get(i)
            if isinstance(extra, tuple):
                st["count"] += extra[0]
                st["count2"] += extra[1]
            elif extra is not None:
                st["count"] += extra
            q = self.parent[i]
            if q >= 0:
                parent_st = stats[NAMES[self.layer[q]]]["children"]
                parent_st[name] = parent_st.get(name, 0) + 1
        return stats

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,layer,start_ns,end_ns,parent,item\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{NAMES[self.layer[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.item_of[i]}\n")
