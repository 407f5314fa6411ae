"""Spans around the library's public functions, installed from outside.

`Tracer.installed()` swaps each traced function for a wrapper in every module
of the package that holds a reference to it, including names imported by
value (`discriminate.from_edge_list` is the same object as
`graphs.from_edge_list`), and puts every original back on exit. The program
source is never touched, and untimed code outside the context runs the
unmodified functions.

A span is (name, start, end, parent index, op id, computed work, graph key).
The graph key is the argument's `id()`, which costs nothing to take, so no
hashing lands in the parent's self time. Every graph a traced call sees is
kept alive until its op ends, so an id is never reused within an op. Spans stay in memory and are written once, after the run. Self time is a
span's duration minus the time covered by its children; calls are nested on a
single thread, so children never overlap and their durations simply add.

Computed work (eigh n^3, matmul flops) comes from argument shapes, never from
timers, so it repeats exactly across runs with the same seed. It ignores cache
misses.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from spectrawl import discriminate, gnn, graphs, spectral, wl


def _eigh_work(s, *_, **__):
    n = np.shape(s)[0]
    return n**3, None


def _eigendecompose_work(g, *_, **__):
    return 0, g


def _diag_powers_work(g, depth=10):
    # depth - 1 dense n x n products
    return 2 * g.n**3 * (depth - 1), g


def _stochastic_variance_work(g, h, cfg):
    return 2 * cfg.samples * g.n**2 * (len(h) - 1), None


#: (span name, owner, attribute, computed-work function or None)
TARGETS = (
    ("spectral.eigendecompose", spectral, "eigendecompose", _eigendecompose_work),
    ("spectral.eigh", np.linalg, "eigh", _eigh_work),
    ("spectral.spectra_differ", spectral, "spectra_differ", None),
    ("spectral.check_separability_conditions", spectral, "check_separability_conditions", None),
    ("gnn.diag_powers", gnn, "diag_powers", _diag_powers_work),
    ("gnn.diagonal_module", gnn, "diagonal_module", None),
    ("gnn.stochastic_variance", gnn, "stochastic_variance", _stochastic_variance_work),
    ("wl.wl_distinguish", wl, "wl_distinguish", None),
    ("graphs.graph_init", graphs.Graph, "__init__", None),
    ("graphs.from_edge_list", graphs, "from_edge_list", None),
    ("graphs.apply_permutation", graphs, "apply_permutation", None),
    ("discriminate.discriminate_pair", discriminate, "discriminate_pair", None),
    ("discriminate.embeddings_isomorphic", discriminate, "embeddings_isomorphic", None),
    ("discriminate.csl_classify", discriminate, "csl_classify", None),
)
SPAN_NAMES = tuple(t[0] for t in TARGETS)
OP_SPAN = "op"


def package_modules():
    """The package and each of its loaded submodules."""
    return [m for name, m in sorted(sys.modules.items()) if name == "spectrawl" or name.startswith("spectrawl.")]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op_id = -1
        self._alive: list = []  # graphs seen in the current op, so their ids stay unique

    def _wrap(self, name, fn, work):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            amount, graph = work(*args, **kwargs) if work else (0, None)
            key = None
            if graph is not None:
                self._alive.append(graph)
                key = id(graph)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self._op_id, amount, key, ok)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every reference to each target; restore all of them on exit."""
        replaced = []
        try:
            for name, owner, attr, work in TARGETS:
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, work)
                holders = [owner] + [m for m in package_modules() if m is not owner]
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            replaced.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(replaced):
                setattr(holder, key, original)

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Root span of one op, so untraced library time lands in its self time."""
        self._op_id = op_id
        self._alive = []
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = (OP_SPAN, start, perf_counter(), -1, op_id, 0, None, True)

    def layer_totals(self) -> dict[str, dict]:
        """Per span name: calls, errors, self seconds, computed work, distinct graphs.

        Distinct graphs are counted per op, so repeating the op list does not
        change the distinct/calls ratio.
        """
        child = [0.0] * len(self.spans)
        for _, start, end, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = {n: {"calls": 0, "errors": 0, "self_s": 0.0, "work": 0, "distinct": 0} for n in SPAN_NAMES}
        keys = defaultdict(set)
        for i, (name, start, end, _, op_id, amount, key, ok) in enumerate(self.spans):
            if name == OP_SPAN:
                continue
            t = totals[name]
            t["calls"] += 1
            t["errors"] += not ok
            t["self_s"] += end - start - child[i]
            t["work"] += amount
            if key is not None:
                keys[name, op_id].add(key)
        for (name, _), seen in keys.items():
            totals[name]["distinct"] += len(seen)
        return totals

    def write(self, path) -> None:
        rows = [
            {"name": name, "start": start, "end": end, "parent": parent, "op": op_id, "work": amount, "ok": ok}
            for name, start, end, parent, op_id, amount, _, ok in self.spans
        ]
        with gzip.open(path, "wt") as fh:
            json.dump(rows, fh)
