"""Span tracing of the ``tritile`` layers for the traced benchmark run.

Installing a :class:`Tracer` replaces every public function of the six
layer modules in each ``tritile`` namespace that holds a reference to it,
and wraps ``ColouredGraph.mono_triangles``, ``ColouredGraph.edge_colour``
and ``Tiling.verify`` on their classes.  A wrapper records a span (name,
start, end, parent) in memory; ``edge_colour`` is so hot that it is only
counted.  The benchmark's own phases open spans too, so that the calls of
one workload step can be told apart.  ``uninstall`` puts every original
back.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("graphs", "constructions", "proofs", "solvers", "verifiers", "cli")

# Bit helpers called inside every solver node; their time stays with the caller.
UNTRACED = {"iter_bits", "mask_of"}
COUNTED = {"graphs.edge_colour"}
# (layer, class, method, span name)
METHODS = (("graphs", "ColouredGraph", "mono_triangles", "graphs.mono_triangles"),
           ("graphs", "ColouredGraph", "edge_colour", "graphs.edge_colour"),
           ("graphs", "Tiling", "verify", "graphs.tiling_verify"))
NODE_COUNTING = {"solvers.max_mixed_tiling", "solvers.max_single_colour_tiling"}


class Tracer:
    """Spans and counts of one traced run, kept in memory until written."""

    def __init__(self):
        self.names: list[str] = []          # span name per id
        self.ids: dict[str, int] = {}
        self.spans: list[list] = []         # [name id, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.nodes: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _open(self, fid: int) -> int:
        index = len(self.spans)
        self.spans.append([fid, time.perf_counter(), 0.0,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def phase(self, name: str):
        """A span around one step of the benchmark itself."""
        index = self._open(self._id("bench." + name))
        try:
            yield
        finally:
            self._close(index)

    def _timed(self, fn, name: str):
        fid = self._id(name)
        count_nodes = name in NODE_COUNTING

        def wrapper(*args, **kwargs):
            index = self._open(fid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count_nodes:
                self.nodes[name] += result.nodes_explored
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: sys.modules["tritile." + layer] for layer in LAYERS}
        namespaces = [sys.modules["tritile"]] + list(modules.values())
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or attr in UNTRACED
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped = self._timed(obj, f"{layer}.{attr}")
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            self._restore.append((ns, key, obj))
                            setattr(ns, key, wrapped)
                        elif isinstance(value, dict):
                            self._replace_in_table(value, obj, wrapped)
        for layer, cls_name, attr, name in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            make = self._counted if name in COUNTED else self._timed
            self._restore.append((cls, attr, original))
            setattr(cls, attr, make(original, name))

    def _replace_in_table(self, table: dict, obj, wrapped) -> None:
        """Dispatch tables such as the CLI's builder map hold references too."""
        for key, value in list(table.items()):
            if value is obj:
                new = wrapped
            elif isinstance(value, tuple) and any(v is obj for v in value):
                new = tuple(wrapped if v is obj else v for v in value)
            else:
                continue
            self._restore.append((table, key, value))
            table[key] = new

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        self.nodes.clear()

    # -- analysis -----------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for fid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (fid, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(self.names[fid], {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child[i]
        for name, count in self.counts.items():
            out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})["calls"] += count
        return out

    def write(self, path: str, meta: dict) -> None:
        """Spans as ``[name, start, end, parent]`` rows plus the run's metadata."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"meta": meta, "names": self.names, "counts": dict(self.counts),
                       "spans": self.spans}, fh, separators=(",", ":"))
