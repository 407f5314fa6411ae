"""Simple undirected graphs, identified by their CSR neighbour index.

Everything downstream (color refinement, spectra, walk counting) operates on
the `Graph` type defined here. Graphs are immutable after construction and
all operations are pure, so values can be shared freely across threads.
"""

from __future__ import annotations

import numbers
import operator
import os
from dataclasses import dataclass

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


def _dense(g, dtype) -> np.ndarray:  # g: anything with n and edge_index
    """A new n x n 0/1 adjacency of dtype, built from g's edge index."""
    indptr, indices = g.edge_index
    a = np.zeros(g.n * g.n, dtype)
    a[np.repeat(np.arange(0, g.n * g.n, g.n), np.diff(indptr)) + indices] = 1  # row-major codes
    return a.reshape(g.n, g.n)


def _first_edge_error(n: int, edges) -> GraphError | None:
    """The error of the first bad edge among integer pairs, or None: a self-loop,
    then an endpoint out of range, then a repeat of an earlier edge."""
    seen = set()
    for u, v in edges:
        if u == v:
            return SelfLoopError(u)
        if not (0 <= u < n and 0 <= v < n):
            return EdgeIndexError(v if 0 <= u < n else u, n)
        if (min(u, v), max(u, v)) in seen:
            return DuplicateEdgeError(u, v)
        seen.add((min(u, v), max(u, v)))
    return None


def _edge_entries(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """Sorted (rows, columns) of both orientations of each edge; a bad list raises its first error."""
    e = np.asarray(edges)
    if e.dtype.kind not in "iu" or e.ndim != 2 or e.shape[1] != 2:
        raise GraphError(f"edges must be an integer array of shape (m, 2), got {e.dtype} of shape {e.shape}")
    # the codes row * n + column below are int64: the largest, top n + top for the
    # largest endpoint top, must stay below 2^63 (a top >= n is out of range, named below)
    top = int(e.max(initial=0))
    if n >= 2**63 or top < n and top * (n + 1) >= 2**63:
        raise GraphError(f"node count {n} is too large: edge codes row * n + column pass int64")
    u, v = e.T.astype(np.int64)  # a uint64 past int64 wraps negative: out of range either way
    bad = np.any((u == v) | (np.minimum(u, v) < 0) | (np.maximum(u, v) >= n))
    # a repeated edge repeats its codes
    codes = np.sort(np.concatenate([u * n + v, v * n + u]))
    if bad or np.any(codes[1:] == codes[:-1]):
        raise _first_edge_error(n, e.tolist())  # the scalar loop runs only to name the error
    return np.divmod(codes, n)


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Simple undirected graph on nodes 0..n-1, identified by n and its edge index.

    Build it from a symmetric {0,1} matrix with zero diagonal, Graph(n, A), or
    from an (m, 2) integer array listing each edge once, Graph(n, edges=e).
    Only the CSR index edge_index = (indptr, indices) is kept: two read-only,
    C-contiguous int64 arrays that own their data (neither is a view of the
    input or of a larger buffer), so a graph holds 8 (n + 1) + 8 nnz bytes of
    index. v's neighbours are indices[indptr[v]:indptr[v + 1]], ascending.
    Nothing else is ever stored on a graph: a dense matrix is built per call
    (adjacency) and lives only as long as its caller holds it.
    """

    n: int
    edge_index: tuple[np.ndarray, np.ndarray]
    name: str | None

    def __init__(self, n: int, adjacency=None, name: str | None = None, *, edges=None):
        n = _check_int(n, "node count", 1, GraphError)
        if (adjacency is None) == (edges is None):
            raise GraphError("give exactly one of adjacency and edges")
        if edges is None:
            a = np.asarray(adjacency, dtype=np.float64)
            if a.shape != (n, n):
                raise GraphError(f"adjacency shape {a.shape} does not match n={n}")
            # sorted row-major codes row * n + column, split into two fresh arrays as
            # the edge branch splits its codes (np.nonzero's would be views of one buffer)
            rows, indices = np.divmod(np.flatnonzero(a), n)
            if not np.all(a[rows, indices] == 1.0):
                raise GraphError("adjacency entries must be exactly 0 or 1")
            if np.any(loops := rows == indices):
                raise SelfLoopError(int(rows[loops][0]))
            if not np.all(a[indices, rows] == 1.0):  # the nonzeros, all 1, are closed under transpose
                raise GraphError("adjacency must be symmetric")
        else:
            rows, indices = _edge_entries(n, edges)
        indptr = np.searchsorted(rows, np.arange(n + 1))  # rows are sorted
        indptr.flags.writeable = indices.flags.writeable = False
        vars(self).update(n=n, edge_index=(indptr, indices), name=name)

    def __eq__(self, other) -> bool:
        # name is a label, not part of graph identity
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and all(map(np.array_equal, self.edge_index, other.edge_index))
        )

    def __hash__(self):
        return hash((self.n, *(a.tobytes() for a in self.edge_index)))

    @property
    def adjacency(self) -> np.ndarray:
        """A new dense read-only float64 0/1 adjacency, built from the edge index on
        every call and not kept: a caller reads it once and drops it. Only the
        eigensolvers, graph_filter and gnn_layer (and so stochastic_variance), and
        is_isomorphic_bruteforce ask."""
        a = _dense(self, np.float64)
        a.flags.writeable = False
        return a

    @property
    def degrees(self) -> np.ndarray:
        """Node degrees as float64, read off the edge index."""
        return np.diff(self.edge_index[0]).astype(np.float64)

    @property
    def num_edges(self) -> int:
        """Edge count, read off the edge index."""
        return len(self.edge_index[1]) // 2

    def _edge_pairs(self) -> np.ndarray:
        """(m, 2) array of the undirected edges (u, v) with u < v, sorted."""
        indptr, indices = self.edge_index
        us = np.repeat(np.arange(self.n), np.diff(indptr))
        return np.column_stack([us, indices])[us < indices]

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list with u < v, sorted."""
        return list(map(tuple, self._edge_pairs().tolist()))

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

    Raises SelfLoopError, DuplicateEdgeError, or EdgeIndexError for the first
    bad edge, and GraphError unless n and every endpoint are integers, n >= 1.
    """
    n = _check_int(n, "node count", 1, GraphError)
    pairs = []
    try:
        for u, v in edges:
            if type(u) is not int or type(v) is not int:  # no lower bound: range is checked below
                u, v = (_check_int(w, "node index", -np.inf, GraphError) for w in (u, v))
            pairs.append((u, v))
        e = np.array(pairs, dtype=np.int64).reshape(-1, 2)  # OverflowError past int64
    except (TypeError, ValueError, OverflowError) as exc:
        # an error among the edges before the failing entry comes first
        raise _first_edge_error(n, pairs) or exc
    return Graph(n, edges=e, name=name)


def apply_permutation(g: Graph, p: Permutation) -> Graph:
    """Relabel nodes: result B satisfies B[p(i), p(j)] = A[i, j]."""
    if len(p) != g.n:
        raise SizeMismatchError(f"permutation length {len(p)} != n={g.n}")
    return Graph(g.n, edges=np.asarray(p.mapping)[g._edge_pairs()], name=g.name)


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
    rows = max(1, (1 << 16) // n)  # row blocks of one n x n draw, in stream order
    blocks = [np.argwhere(np.triu(rng.random((min(rows, n - r), n)) < p, k=r + 1)) + [r, 0]  # j > i
              for r in range(0, n, rows)]
    return Graph(n, edges=np.concatenate(blocks), name=name)


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
    self-loop lines are errors, reported with their line number. The edges
    are collected as pairs, so no n x n matrix is built.
    """
    n = None
    edges = set()
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
                continue
            if len(vals) != 2:
                raise ParseError(line_no, f"expected 'u v', got {line!r}")
            u, v = vals
            if u == v:
                raise ParseError(line_no, f"self-loop on node {u}")
            if not (0 <= u < v < n):
                raise ParseError(line_no, f"edge ({u}, {v}) violates 0 <= u < v < {n}")
            if (u, v) in edges:
                raise ParseError(line_no, f"duplicate edge ({u}, {v})")
            edges.add((u, v))
    if n is None:
        raise ParseError(0, "empty file: missing node count")
    stem = os.path.splitext(os.path.basename(str(path)))[0]
    return Graph(n, edges=np.array(list(edges), dtype=np.int64).reshape(-1, 2), name=stem)
