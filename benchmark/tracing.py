"""Spans around calls into kstlab's layers, for the traced benchmark run.

``Tracer.install`` rebinds each instrumented function in every ``kstlab``
module that holds it, so nested calls (``build_gadget`` ->
``sample_bipartite``, ``is_k_choosable`` -> ``find_l_coloring``) are
recorded too.  A span is (name, start, end, parent, op id), kept in memory
in flat arrays and written out when the run ends.  Counters read from the
returned result objects are kept per span name.  The untraced run never
imports this module.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _minor_counts(c, args, res):
    c["nodes"] += res.nodes_expanded
    c["budget_exhausted"] += res.status.value == "budget_exhausted"


def _solve_counts(c, args, res):
    c["vertices"] += args[0].n


def _block_counts(c, args, res):
    c["trials"] += res.trials


def _gadget_counts(c, args, res):
    c["attempts"] += len(res.attempts)
    c["built"] += res.ok


def _assemble_counts(c, args, res):
    c["vertices"] += res.graph.n


def _sweep_counts(c, args, res):
    c["rows"] += len(res)


# (module, attribute, span name, counter hook)
INSTRUMENTED = (
    ("cli", "main", "cli", None),
    ("graph", "parse", "graph.parse", None),
    ("graph", "glue", "graph.ops", None),
    ("graph", "induced_subgraph", "graph.ops", None),
    ("graph", "complement", "graph.ops", None),
    ("minors", "find_kst_minor", "minors.search", _minor_counts),
    ("minors", "oracle_has_minor", "minors.oracle", None),
    ("listcolor", "find_l_coloring", "listcolor.solve", _solve_counts),
    ("listcolor", "is_k_choosable", "listcolor.choosable", None),
    ("construction", "sample_bipartite", "construction.sample", None),
    ("construction", "check_degree_property", "construction.degree", None),
    ("construction", "check_block_property", "construction.block", _block_counts),
    ("construction", "build_gadget", "construction.gadget", _gadget_counts),
    ("construction", "build_counterexample", "construction.assemble", _assemble_counts),
    ("construction", "verify_no_l_coloring_pigeonhole", "construction.pigeonhole", None),
    ("construction", "degree_property_sweep", "construction.sweep", _sweep_counts),
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.errors: dict[str, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.active = False
        self.current_op = -1
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, name: str, fn, hook):
        nid = self._id(name)
        counters = self.counters[name]
        errors = self.errors[name]

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                self.end[idx] = perf_counter()
                self._stack.pop()
                errors[type(exc).__name__] += 1
                raise
            self.end[idx] = perf_counter()
            self._stack.pop()
            if hook is not None:
                hook(counters, args, res)
            return res

        return traced

    def install(self) -> None:
        """Rebind every instrumented function wherever a kstlab module holds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "kstlab" or k.startswith("kstlab."))]
        for mod_name, attr, name, hook in INSTRUMENTED:
            orig = getattr(sys.modules["kstlab." + mod_name], attr)
            wrapped = self.wrap(name, orig, hook)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        graph_cls = sys.modules["kstlab.graph"].Graph
        from_edges = graph_cls.__dict__["from_edges"].__func__
        graph_cls.from_edges = classmethod(self.wrap("graph.ops", from_edges, None))

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self seconds), where self time is a span's
        duration minus the durations of its direct children."""
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent)
        name = np.asarray(self.name)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(name, minlength=len(self.names))
        selfs = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}

    def write(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), name=np.asarray(self.name),
                            parent=np.asarray(self.parent), op=np.asarray(self.op),
                            start=np.asarray(self.start), end=np.asarray(self.end))
