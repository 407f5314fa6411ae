"""1-WL color refinement with exact multiset relabeling.

Relabeling ranks exact (old color, sorted neighbor color multiset) keys
rather than hash digests, so there are no collision false-negatives. Labels
are assigned canonically (sorted key order), which makes colorings comparable
across graphs refined in one joint step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _check_int


@dataclass(frozen=True, eq=False)
class WLColoring:
    """Refinement history for one graph.

    colors[t] is the length-n integer coloring after t refinement rounds
    (colors[0] is the initialization). stable_at is the first round whose
    refinement left the partition unchanged. signature is the sorted multiset
    of final colors.
    """

    colors: tuple[tuple[int, ...], ...]
    stable_at: int
    signature: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(set(self.colors[-1]))


def _initial_colors(g: Graph, init: str) -> np.ndarray:
    if init == "uniform":
        return np.zeros(g.n, dtype=np.int64)
    if init == "degree":
        return np.unique(g.degrees, return_inverse=True)[1].astype(np.int64)
    raise ValueError(f"unknown init {init!r}; use 'uniform' or 'degree'")


def _refine_step(colorings: list[np.ndarray], neighbor_lists: list[np.ndarray]):
    """One joint refinement round over any number of graphs.

    Each node's key row is its color, then its sorted neighbor colors padded
    with -1 to a common width. Padding after the colors sorts a shorter
    multiset first, as Python orders tuples, so ranking the distinct rows
    gives the canonical labels of the (color, sorted neighbor colors) keys.
    Returns the new colorings (dense labels shared across graphs) and whether
    any partition changed.
    """
    width = max(nbrs.shape[1] for nbrs in neighbor_lists)
    rows = []
    for colors, nbrs in zip(colorings, neighbor_lists):
        row = np.full((len(colors), 1 + width), -1, dtype=np.int64)
        row[:, 0] = colors
        # index -1 reads the appended sentinel, which sorts after every color
        nbr_colors = np.sort(np.append(colors, np.iinfo(np.int64).max)[nbrs], axis=1)
        nbr_colors[nbrs < 0] = -1
        row[:, 1 : 1 + nbrs.shape[1]] = nbr_colors
        rows.append(row)
    keys = np.concatenate(rows)
    order = np.lexsort(keys.T[::-1])
    ranked = keys[order]
    starts = np.ones(len(keys), dtype=bool)
    starts[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    labels = np.empty(len(keys), dtype=np.int64)
    labels[order] = np.cumsum(starts) - 1
    # new colors are functions of old colors, so partitions only refine; a
    # round changes something iff a new label starts inside an old color
    changed = bool(np.any(starts[1:] & (ranked[1:, 0] == ranked[:-1, 0])))
    return np.split(labels, np.cumsum([len(c) for c in colorings])[:-1]), changed


def _neighbor_lists(g: Graph) -> np.ndarray:
    """n x (max degree) neighbor indices, each row left-packed and padded with -1."""
    indptr, indices = g.edge_index
    deg = np.diff(indptr)
    out = np.full((g.n, deg.max(initial=0)), -1, dtype=np.int64)
    out[np.repeat(np.arange(g.n), deg), np.arange(len(indices)) - np.repeat(indptr[:-1], deg)] = indices
    return out


def wl_refine(g: Graph, init: str = "uniform") -> WLColoring:
    """Run color refinement to stability on a single graph."""
    nbrs = _neighbor_lists(g)
    colors = _initial_colors(g, init)
    history = [tuple(colors.tolist())]
    stable_at = g.n
    for step in range(1, g.n + 1):
        (colors,), changed = _refine_step([colors], [nbrs])
        history.append(tuple(colors.tolist()))
        if not changed:
            stable_at = step
            break
    return WLColoring(tuple(history), stable_at, tuple(sorted(history[-1])))


def _joint_refinement(g1: Graph, g2: Graph, init: str = "uniform"):
    """Refine both graphs jointly; their two final colorings, or None once they differ.

    The relabeling is shared between the two graphs so color identifiers are
    directly comparable. None comes as soon as the two color histograms
    differ: first on the degree multisets, which are the histograms after one
    round from the uniform init and are compared before any neighbor list is
    built, then after every joint round. Refinement only splits classes, so a
    class whose counts differ between the graphs always leaves a subclass
    whose counts differ, and the final multisets would differ too.
    """
    colorings = [_initial_colors(g1, init), _initial_colors(g2, init)]

    def same_histogram(a, b) -> bool:  # also False for different node counts
        return np.array_equal(np.sort(a), np.sort(b))

    if not same_histogram(g1.degrees, g2.degrees):
        return None
    nbrs = [_neighbor_lists(g1), _neighbor_lists(g2)]
    for _ in range(g1.n + g2.n + 1):
        colorings, changed = _refine_step(colorings, nbrs)
        if not (changed and same_histogram(*colorings)):
            break
    return colorings if same_histogram(*colorings) else None


def _verified_map(g1: Graph, g2: Graph, colorings) -> np.ndarray | None:
    """An isomorphism g1 -> g2 read off the colorings of _joint_refinement, or None.

    mapping[v] is the image of node v. The candidate pairs the nodes of each
    color in index order: node order1[i] of g1 maps to node order2[i] of g2,
    where each order is a stable sort by color, and the equal histograms make
    this a color-preserving bijection. A class of one node has one choice; a
    larger class is paired arbitrarily, which is why the map is checked
    before use. The check is exact: equal edge counts, and every edge of g1
    lands on an edge of g2 (O(m) adjacency reads). A bijection that maps the
    edges of g1 into an equally large edge set of g2 is an isomorphism. When
    the graphs are isomorphic and every class is a single node, the candidate
    is the one isomorphism, so it passes.
    """
    order1 = np.argsort(colorings[0], kind="stable")
    order2 = np.argsort(colorings[1], kind="stable")
    mapping = np.empty(g1.n, dtype=np.int64)
    mapping[order1] = order2
    (indptr1, indices1), (_, indices2) = g1.edge_index, g2.edge_index
    if len(indices1) != len(indices2):
        return None
    rows = np.repeat(mapping, np.diff(indptr1))  # image of each edge's first node
    if not np.all(g2.adjacency[rows, mapping[indices1]] == 1.0):
        return None
    return mapping


def wl_distinguish(g1: Graph, g2: Graph, init: str = "uniform") -> str:
    """Joint refinement verdict: "distinguished" or "indistinguishable".

    The verdict compares the sorted final color multisets of a joint
    refinement (`_joint_refinement`), which stops as soon as the histograms
    differ; every verdict is the one full refinement gives.
    """
    return "distinguished" if _joint_refinement(g1, g2, init) is None else "indistinguishable"


def wl_feature_matrix(g: Graph, depth: int) -> np.ndarray:
    """Propagated-degree features: column k (1-based) is S^k 1.

    This is what refinement effectively propagates when multiset hashing is
    collision-free; on regular graphs every column is constant, which is the
    whole failure mode.
    """
    depth = _check_int(depth, "depth", 1)
    out = np.empty((g.n, depth))
    x = np.ones(g.n)
    for k in range(depth):
        x = g.adjacency @ x
        out[:, k] = x
    return out
