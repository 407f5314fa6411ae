"""Simple undirected graphs as dense 0/1 adjacency matrices.

Everything downstream (color refinement, spectra, walk counting) operates on
the `Graph` type defined here. Graphs are immutable after construction and
all operations are pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import numbers
import operator
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np


class GraphError(ValueError):
    """Base class for graph construction and I/O errors."""


class SelfLoopError(GraphError):
    def __init__(self, u: int):
        super().__init__(f"self-loop on node {u}")
        self.node = u


class DuplicateEdgeError(GraphError):
    def __init__(self, u: int, v: int):
        super().__init__(f"duplicate edge ({u}, {v})")
        self.edge = (u, v)


class EdgeIndexError(GraphError):
    def __init__(self, u: int, n: int):
        super().__init__(f"node index {u} out of range for n={n}")


class SizeMismatchError(GraphError):
    pass


class TooLargeError(GraphError):
    """Input exceeds a combinatorial-search bound."""


def _check_int(value, name: str, minimum: int, error: type[Exception] = ValueError) -> int:
    """value as an int; raise error naming name unless it is an integer >= minimum.

    A numpy integer is an integer; a bool is not. For minimum 1 the message
    reads "must be positive".
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        bound = "positive" if minimum == 1 else f">= {minimum}"
        raise error(f"{name} must be {bound}, got {value}")
    return int(value)


def _check_positive(value, name: str) -> float:
    """value as a float; raise ValueError naming name unless it is a finite real > 0.

    A bool is not a real here, and neither is a numeric string.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return float(value)


class ParseError(GraphError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True, eq=False)
class Graph:
    """Simple undirected graph: symmetric {0,1} adjacency with zero diagonal.

    The adjacency array is stored as float64 (so it can feed linear algebra
    directly) but every entry is exactly 0.0 or 1.0. The array is marked
    read-only; build modified graphs through the constructors instead.
    """

    n: int
    adjacency: np.ndarray
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "n", _check_int(self.n, "node count", 1, GraphError))
        a = np.asarray(self.adjacency, dtype=np.float64)
        if a.shape != (self.n, self.n):
            raise GraphError(f"adjacency shape {a.shape} does not match n={self.n}")
        if not np.all((a == 0.0) | (a == 1.0)):
            raise GraphError("adjacency entries must be exactly 0 or 1")
        if np.any(np.diag(a) != 0.0):
            raise SelfLoopError(int(np.flatnonzero(np.diag(a))[0]))
        if not np.array_equal(a, a.T):
            raise GraphError("adjacency must be symmetric")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "adjacency", a)

    def __eq__(self, other) -> bool:
        # name is a label, not part of graph identity
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and np.array_equal(self.adjacency, other.adjacency)
        )

    def __hash__(self):
        return hash((self.n, self.adjacency.tobytes()))

    @property
    def degrees(self) -> np.ndarray:
        """Node degrees as float64, read off the cached edge index."""
        return np.diff(self.edge_index[0]).astype(np.float64)

    @cached_property
    def num_edges(self) -> int:
        """Edge count, read off the edge index if it is built, else counted on
        the adjacency: asking for the count builds no index."""
        index = self.__dict__.get("edge_index")  # where cached_property keeps it
        return (np.count_nonzero(self.adjacency) if index is None else len(index[1])) // 2

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR neighbour index (indptr, indices), built once per graph.

        The neighbours of node v are indices[indptr[v]:indptr[v + 1]], in
        ascending order, so indptr[v + 1] - indptr[v] is v's degree and
        len(indices) is the adjacency's nonzero count, twice the edge count.
        Both arrays are int64 and read-only. The graph is immutable, so the
        index is cached on it: neighbors, edges, 1-WL's neighbour lists and
        the sparse closed-walk ladder all read this one copy.
        """
        rows, indices = np.nonzero(self.adjacency)  # row-major: sorted by (row, column)
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        for a in (indptr, indices):
            a.flags.writeable = False
        return indptr, indices

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list with u < v, sorted."""
        indptr, indices = self.edge_index
        us = np.repeat(np.arange(self.n), np.diff(indptr))
        upper = us < indices
        return list(zip(us[upper].tolist(), indices[upper].tolist()))

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbours of node v in ascending order, as a read-only view of the edge index.

        Raises EdgeIndexError for v outside [0, n).
        """
        v = operator.index(v)
        if not 0 <= v < self.n:
            raise EdgeIndexError(v, self.n)
        indptr, indices = self.edge_index
        return indices[indptr[v] : indptr[v + 1]]


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0..n-1}, stored as the image array: i -> mapping[i]."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        m = tuple(_check_int(i, "mapping entry", 0, GraphError) for i in self.mapping)
        if sorted(m) != list(range(len(m))):
            raise GraphError("mapping is not a bijection on {0..n-1}")
        object.__setattr__(self, "mapping", m)

    def __len__(self) -> int:
        return len(self.mapping)

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def random(n: int, rng: np.random.Generator) -> "Permutation":
        """Uniform random permutation of {0..n-1}; GraphError unless n is an integer >= 0."""
        n = _check_int(n, "node count", 0, GraphError)
        return Permutation(tuple(rng.permutation(n).tolist()))

    def compose(self, inner: "Permutation") -> "Permutation":
        """self ∘ inner: i -> self(inner(i))."""
        if len(self) != len(inner):
            raise SizeMismatchError("cannot compose permutations of different length")
        return Permutation(tuple(self.mapping[j] for j in inner.mapping))

    def inverse(self) -> "Permutation":
        return Permutation(tuple(np.argsort(self.mapping).tolist()))


@dataclass(frozen=True)
class GraphCorpusEntry:
    key: str
    graph: Graph
    provenance: str


def from_edge_list(n: int, edges, name: str | None = None) -> Graph:
    """Build a graph from undirected edge pairs.

    Raises SelfLoopError, DuplicateEdgeError, or EdgeIndexError on bad input,
    and GraphError unless n and every endpoint are integers, n >= 1.
    """
    n = _check_int(n, "node count", 1, GraphError)
    a = np.zeros((n, n))
    for u, v in edges:
        # no lower bound here: an integer out of range is an EdgeIndexError below
        u = _check_int(u, "node index", -np.inf, GraphError)
        v = _check_int(v, "node index", -np.inf, GraphError)
        if u == v:
            raise SelfLoopError(u)
        for w in (u, v):
            if not 0 <= w < n:
                raise EdgeIndexError(w, n)
        if a[u, v] != 0.0:
            raise DuplicateEdgeError(u, v)
        a[u, v] = a[v, u] = 1.0
    return Graph(n, a, name)


def apply_permutation(g: Graph, p: Permutation) -> Graph:
    """Relabel nodes: result B satisfies B[p(i), p(j)] = A[i, j]."""
    if len(p) != g.n:
        raise SizeMismatchError(f"permutation length {len(p)} != n={g.n}")
    q = np.asarray(p.mapping)
    b = np.empty_like(g.adjacency)
    b[np.ix_(q, q)] = g.adjacency
    return Graph(g.n, b, g.name)


def is_isomorphic_bruteforce(g1: Graph, g2: Graph, max_n: int = 10) -> bool:
    """Exhaustive isomorphism test, usable as a ground-truth oracle.

    Searches all node bijections (with degree pruning and incremental
    consistency checks, which do not change the answer). Capped at
    n <= max_n because the search is factorial.
    """
    if g1.n != g2.n:
        raise SizeMismatchError(f"graphs have different sizes ({g1.n} vs {g2.n})")
    if g1.n > max_n:
        raise TooLargeError(f"n={g1.n} exceeds brute-force bound {max_n}")
    n = g1.n
    d1, d2 = g1.degrees, g2.degrees
    if sorted(d1.tolist()) != sorted(d2.tolist()):
        return False
    a1, a2 = g1.adjacency, g2.adjacency

    # backtracking over images of nodes 0..n-1 of g1
    image = [-1] * n
    used = [False] * n

    def extend(i: int) -> bool:
        if i == n:
            return True
        for v in range(n):
            if used[v] or d1[i] != d2[v]:
                continue
            if all(a1[i, j] == a2[v, image[j]] for j in range(i)):
                image[i] = v
                used[v] = True
                if extend(i + 1):
                    return True
                used[v] = False
        image[i] = -1
        return False

    return extend(0)


# Built-in example graphs. Node letters A..J map alphabetically to 0..9.
_PRISM_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (0, 4), (1, 5)]
_BIHEXAGON_EDGES = [(4, 2), (2, 0), (0, 1), (1, 3), (3, 5), (5, 4),
                    (4, 6), (6, 8), (8, 9), (9, 7), (7, 5)]
_BIPENTAGON_EDGES = [(4, 2), (2, 0), (0, 1), (1, 3), (3, 4),
                     (5, 4), (5, 7), (7, 9), (9, 8), (8, 6), (6, 5)]


def corpus() -> list[GraphCorpusEntry]:
    """The built-in example graphs used throughout the test suite and demos.

    prism/k33 are 3-regular cospectral-in-degree twins that color refinement
    cannot separate; bihexagon/bipentagon are the 10-node analogue (two fused
    hexagons vs two bridged pentagons).
    """
    k33_edges = [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)]
    return [
        GraphCorpusEntry(
            "prism",
            from_edge_list(6, _PRISM_EDGES, name="prism"),
            "triangular prism (K3 x K2), 3-regular on 6 nodes",
        ),
        GraphCorpusEntry(
            "k33",
            from_edge_list(6, k33_edges, name="k33"),
            "complete bipartite K3,3 on parts {0,2,4} / {1,3,5}",
        ),
        GraphCorpusEntry(
            "bihexagon",
            from_edge_list(10, _BIHEXAGON_EDGES, name="bihexagon"),
            "two hexagons sharing the edge (4,5)",
        ),
        GraphCorpusEntry(
            "bipentagon",
            from_edge_list(10, _BIPENTAGON_EDGES, name="bipentagon"),
            "two pentagons joined by the bridge edge (4,5)",
        ),
    ]


def corpus_graph(key: str) -> Graph:
    for entry in corpus():
        if entry.key == key:
            return entry.graph
    raise KeyError(f"no corpus graph named {key!r}")


def erdos_renyi(n: int, p: float, rng: np.random.Generator, name: str | None = None) -> Graph:
    """G(n, p) sample; handy for randomized cross-checks.

    Raises GraphError unless n is an integer >= 1 and p a real number in
    [0, 1] (not a bool), before any sampling.
    """
    n = _check_int(n, "node count", 1, GraphError)
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0 <= p <= 1:
        raise GraphError(f"p must be a real number in [0, 1], got {p!r}")
    upper = rng.random((n, n)) < p
    a = np.triu(upper, k=1)
    a = (a | a.T).astype(np.float64)
    return Graph(n, a, name)


def save_graph(g: Graph, path) -> None:
    """Write the edge-list text format (see load_graph)."""
    lines = []
    if g.name:
        lines.append(f"# {g.name}")
    lines.append(str(g.n))
    lines.extend(f"{u} {v}" for u, v in g.edges())
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_graph(path) -> Graph:
    """Read the edge-list text format.

    Format: '#' lines are comments; the first non-comment line is N; each
    following non-comment line is "u v" with 0 <= u < v < N. Duplicate and
    self-loop lines are errors, reported with their line number.
    """
    n = None
    a = None
    with open(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            toks = line.split()
            try:
                vals = [int(t) for t in toks]
            except ValueError:
                raise ParseError(line_no, f"non-integer token in {line!r}") from None
            if n is None:
                if len(vals) != 1 or vals[0] <= 0:
                    raise ParseError(line_no, f"expected positive node count, got {line!r}")
                n = vals[0]
                a = np.zeros((n, n))
                continue
            if len(vals) != 2:
                raise ParseError(line_no, f"expected 'u v', got {line!r}")
            u, v = vals
            if u == v:
                raise ParseError(line_no, f"self-loop on node {u}")
            if not (0 <= u < v < n):
                raise ParseError(line_no, f"edge ({u}, {v}) violates 0 <= u < v < {n}")
            if a[u, v] != 0.0:
                raise ParseError(line_no, f"duplicate edge ({u}, {v})")
            a[u, v] = a[v, u] = 1.0
    if n is None:
        raise ParseError(0, "empty file: missing node count")
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return Graph(n, a, name=stem)
