"""Span recording around the excmono layers, from outside the program.

A `Tracer` wraps the public functions and methods of each layer module
(one layer per module) and records one span per call: name, layer, start,
end, parent span and op id.  Spans stay in memory; `Tracer.dump` returns
them as JSON-ready data when the op ends.  `layer_metrics` turns the
spans of many ops into per-layer self time, call and error counts.

Names bound with `from .x import y` are separate references, so each
consumer module's binding is replaced too; methods are replaced on their
class.  Methods called hundreds of thousands of times per verify-all are
left unwrapped (`HOT`), as is the whole `gaussint` module: a span on each
call would swamp the numbers.  Their time lands in the self time of the
nearest wrapped caller.  Nothing in excmono runs concurrently, so no
layer ever waits on another and there is no wait time to record.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
import types
from collections import defaultdict

LAYERS = ("rootsys", "affine_k", "linalg", "twogroup", "chevalley", "a1lab",
          "rigidity", "verify", "cli")

# Over 50 k calls each in one verify-all: not wrapped.
HOT = frozenset({
    "twogroup.TildeGroup.pairing", "twogroup.TildeGroup.q",
    "twogroup.TildeGroup.mul", "twogroup.TildeGroup.inverse",
    "rigidity.MatrixRep.canon", "rigidity.FiniteGroup.mul",
    "a1lab.FiniteFieldCtx.add", "a1lab.FiniteFieldCtx.sub",
    "a1lab.FiniteFieldCtx.mul", "a1lab.FiniteFieldCtx.inv",
    "a1lab.FiniteFieldCtx.norm", "a1lab.FiniteFieldCtx.chi",
    "a1lab.FiniteFieldCtx.chi_pow", "a1lab.FiniteFieldCtx.embed",
    "a1lab.FiniteFieldCtx.elements", "a1lab.FiniteFieldCtx.units",
    "a1lab.FiniteFieldCtx.is_zero", "a1lab.FiniteFieldCtx.eq",
})

# Hot but counted: a bare call counter, no span.
COUNTED = {
    "rigidity.MatrixRep.mul": "rigidity.mul_calls",
    "rigidity.PermRep.mul": "rigidity.mul_calls",
}

# lru-cached factories whose public cache_info() gives a hit ratio.
CACHED = ("rootsys.root_system", "twogroup.build_tilde_group",
          "chevalley.build_algebra")

# Span fields, in the order they are stored and dumped.
NAME, LAYER, START, END, PARENT, OP, ERROR = range(7)


class Tracer:
    """In-memory spans and counters for one op."""

    def __init__(self, op: int = 0):
        self.op = op
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.values: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._last_exc = None
        self._originals: dict[str, object] = {}

    def wrap(self, layer: str, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, clock(), 0.0, stack[-1] if stack else -1,
                   self.op, False]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # an error counts once, in the span it was raised from
                if exc is not self._last_exc:
                    rec[ERROR] = True
                    self._last_exc = exc
                raise
            finally:
                stack.pop()
                rec[END] = clock()
            if hook is not None:
                hook(self, args, result)
            return result
        return traced

    def counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def install(self, package) -> None:
        """Wrap every layer of `package` (the imported excmono package)."""
        pkg = package.__name__
        modules = {layer: importlib.import_module(f"{pkg}.{layer}")
                   for layer in LAYERS}
        wrappers = {}   # id of original -> wrapper; _originals keeps ids live
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif callable(obj) and name not in HOT:
                    self._originals[name] = obj
                    wrappers[id(obj)] = self.wrap(layer, name, obj)
        consumers = [m for key, m in list(sys.modules.items())
                     if key == pkg or key.startswith(pkg + ".")]
        for mod in consumers:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        plain_init = not dataclasses.is_dataclass(cls)
        for attr, member in list(vars(cls).items()):
            if not isinstance(member, types.FunctionType):
                continue
            if attr.startswith("_") and not (attr == "__init__" and plain_init):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in COUNTED:
                setattr(cls, attr, self.counter(COUNTED[name], member))
            elif name not in HOT:
                setattr(cls, attr, self.wrap(layer, name, member))

    def cache_counts(self) -> dict[str, list[int]]:
        """[hits, misses] of each cached factory, from cache_info()."""
        out = {}
        for name in CACHED:
            fn = self._originals.get(name)
            info = getattr(fn, "cache_info", None)
            if info is not None:
                ci = info()
                out[name] = [ci.hits, ci.misses]
        return out

    def dump(self) -> dict:
        return {"op": self.op, "spans": self.spans,
                "counts": dict(self.counts), "values": dict(self.values),
                "cache": self.cache_counts()}


# ------------------------------------------------------------------ hooks

def _criteria_elapsed(tracer: Tracer, args, results) -> None:
    for res in results:
        tracer.values[f"verify.c{res.number}_s"] += res.elapsed


def _group_order(tracer: Tracer, args, result) -> None:
    tracer.values["rigidity.elements"] += getattr(args[0], "order", 0)


HOOKS = {
    "verify.run_all": _criteria_elapsed,
    "rigidity.FiniteGroup.__init__": _group_order,
}


# ------------------------------------------------------------ arithmetic

def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    `spans` is one op's span list; PARENT is an index into that list.
    """
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        inside = [(max(a, s[START]), min(b, s[END]))
                  for a, b in children.get(i, ()) if b > s[START] and a < s[END]]
        out.append((s[END] - s[START]) - covered(inside))
    return out


def layer_metrics(dumps) -> dict[str, float]:
    """Per-layer and per-name aggregates over the dumps of many ops."""
    out: dict[str, float] = defaultdict(float)
    by_name: dict[str, list] = defaultdict(list)
    for d in dumps:
        spans = d["spans"]
        op_intervals = defaultdict(list)
        for s, self_s in zip(spans, self_times(spans)):
            out[f"{s[LAYER]}.self_s"] += self_s
            out[f"{s[LAYER]}.calls"] += 1
            out[f"{s[LAYER]}.errors"] += bool(s[ERROR])
            op_intervals[s[NAME]].append((s[START], s[END]))
        for name, iv in op_intervals.items():
            # union, so a recursive or nested call is not counted twice
            by_name[name].append((len(iv), covered(iv)))
        for key, n in d["counts"].items():
            out[key] += n
        for key, v in d["values"].items():
            out[key] += v
    for name, parts in by_name.items():
        out[f"{name}#calls"] = sum(n for n, _ in parts)
        out[f"{name}#s"] = sum(t for _, t in parts)
    return dict(out)


def hit_ratio(dumps, name: str) -> float:
    hits = sum(d["cache"].get(name, (0, 0))[0] for d in dumps)
    misses = sum(d["cache"].get(name, (0, 0))[1] for d in dumps)
    return hits / (hits + misses) if hits + misses else 0.0
