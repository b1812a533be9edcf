"""Per-layer tracing from outside the library.

``Tracer.install()`` rebinds the public functions of the chiptree modules
and the public ``MultiGraph`` methods to wrappers defined here;
``restore()`` puts every original back.  Nothing under ``src/`` changes.

A wrapped function records a span (name, start, end, parent span) per
call.  The hottest methods, ``MultiGraph.adjacency`` and friends, are only
counted.  Spans are kept in flat arrays in memory and written once, after
the traced pass, by ``write()``.  Counts that depend on results (strategy
nodes, bags, accepted rank tests, bag insertions) are taken by result
hooks on the wrappers.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter

import chiptree
from chiptree import cli, divisors, formats, gonality, graph, morphism, strategy, treedec

# module short name -> module whose public functions get spans
SPAN_MODULES = {
    "divisors": divisors,
    "gonality": gonality,
    "strategy": strategy,
    "treedec": treedec,
    "morphism": morphism,
    "formats": formats,
    "cli": cli,
}
# MultiGraph methods that get a span; every other public method is counted
GRAPH_SPANS = ("flaps_within",)
# every module whose globals may hold a wrapped function under some name
REBIND_IN = [chiptree, graph, *SPAN_MODULES.values()]

_MARK = "_perfbench_original"


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__):
            yield name, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.counted: dict[str, list[int]] = {}
        self.results = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name, fn, hook=None):
        sid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            extra = hook.before(args, kwargs) if hook else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook:
                hook.after(self.results, result, extra)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _count(self, name, fn):
        cell = self.counted.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- install / restore ---------------------------------------------------

    def install(self):
        assert_clean()
        replace = {}
        for short, mod in SPAN_MODULES.items():
            for name, fn in _public_functions(mod):
                replace[id(fn)] = (fn, self._span(f"{short}.{name}", fn, HOOKS.get(name)))
        for mod in REBIND_IN:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replace and replace[id(obj)][0] is obj:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, replace[id(obj)][1])
        cls = graph.MultiGraph
        for name, fn in list(vars(cls).items()):
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            wrap = self._span if name in GRAPH_SPANS else self._count
            self._patches.append((cls, name, fn))
            setattr(cls, name, wrap(f"graph.{name}", fn))

    def restore(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        assert_clean()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- aggregation -----------------------------------------------------------

    def summary(self) -> dict:
        """Calls, self time (ms) and parent->child call counts per span name."""
        n = len(self.span_name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = Counter()
        self_s = Counter()
        under = Counter()
        for i in range(n):
            name = self.names[names[i]]
            calls[name] += 1
            self_s[name] += ends[i] - starts[i] - child[i]
            p = parents[i]
            if p >= 0:
                under[(name, self.names[names[p]])] += 1
        for name, cell in self.counted.items():
            calls[name] += cell[0]
        return {
            "calls": calls,
            "self_ms": {k: v * 1e3 for k, v in self_s.items()},
            "under": under,
            "results": self.results,
        }

    def write(self, path):
        """Spans as a JSON header line followed by the four raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": [["name", "H"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


def assert_clean():
    """Raise if any wrapper is still bound, i.e. tracing is active."""
    owners = [*REBIND_IN, graph.MultiGraph]
    for owner in owners:
        for name, obj in vars(owner).items():
            if hasattr(obj, _MARK):
                raise RuntimeError(f"tracing wrapper still bound at {name}")


# -- result hooks ------------------------------------------------------------

class _Hook:
    key = ""

    def before(self, args, kwargs):
        return None

    def after(self, results, result, extra):
        results[self.key] += self.measure(result)


class _Accepted(_Hook):
    key = "gonality.has_positive_rank.accepted"

    @staticmethod
    def measure(result):
        return 1 if result else 0


class _Nodes(_Hook):
    key = "strategy.nodes"

    @staticmethod
    def measure(tree):
        return len(tree.nodes)


class _Bags(_Hook):
    key = "treedec.bags"

    @staticmethod
    def measure(td):
        return len(td.bags)


class _BagInsertions(_Hook):
    """Reads the public ``counter=`` list of ``morphism_to_treedec``."""

    key = "morphism.bag_insertions"

    def before(self, args, kwargs):
        counter = args[3] if len(args) >= 4 else kwargs.get("counter")
        if counter is None and len(args) < 4:
            counter = kwargs["counter"] = []
        return counter, len(counter) if counter is not None else 0

    def after(self, results, result, extra):
        counter, start = extra
        if counter is not None:
            results[self.key] += len(counter) - start


HOOKS = {
    "has_positive_rank": _Accepted(),
    "build_mss": _Nodes(),
    "mss_to_treedec": _Bags(),
    "morphism_to_treedec": _BagInsertions(),
}
