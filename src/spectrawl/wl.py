"""1-WL color refinement with exact multiset relabeling.

Relabeling ranks exact (old color, sorted neighbor color multiset) keys
rather than hash digests, so there are no collision false-negatives. Labels
are assigned canonically (sorted key order), which makes colorings comparable
across graphs refined in one joint step. The joint refinement of a pair
(`_certify`, behind `wl_distinguish`) mostly ranks integer sums of hashed
color weights instead. Its partition is never finer than 1-WL's, and a sum
round that splits no class is followed by an exact round, so a collision
only delays a split to that round and never changes a verdict.
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
    # one key array, filled in place: fewer large temporaries to fault in
    keys = np.full((sum(len(c) for c in colorings), 1 + width), -1, dtype=np.int64)
    start = 0
    for colors, nbrs in zip(colorings, neighbor_lists):
        row = keys[start : start + len(colors)]
        start += len(colors)
        row[:, 0] = colors
        # index -1 reads the appended sentinel, which sorts after every color
        nbr_colors = np.append(colors, np.iinfo(np.int64).max)[nbrs]
        nbr_colors.sort(axis=1)
        nbr_colors[nbrs < 0] = -1
        row[:, 1 : 1 + nbrs.shape[1]] = nbr_colors
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
    # a row-major mask fill keeps the CSR order: row v takes its deg[v] indices
    out[np.arange(out.shape[1]) < deg[:, None]] = indices
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


def _verified_map(g1: Graph, g2: Graph, colorings) -> np.ndarray | None:
    """An isomorphism g1 -> g2 read off equal-histogram joint colorings, or None.

    mapping[v] is the image of node v. The candidate pairs the nodes of each
    color in index order: node order1[i] of g1 maps to node order2[i] of g2,
    where each order is a stable sort by color, and the equal histograms make
    this a color-preserving bijection. A class of one node has one choice; a
    larger class is paired arbitrarily, which is why the map is checked
    before use. The check is exact: equal edge counts, and every edge of g1
    lands on an edge of g2. A bijection that maps the edges of g1 into an
    equally large edge set of g2 is an isomorphism. When the graphs are
    isomorphic and every class is a single node, the candidate is the one
    isomorphism, so it passes. The sorted codes row n + column of the
    mapped edges are compared with g2's, which its row-major index lists in
    order: no dense adjacency is read or built.
    """
    n = g1.n
    order1 = np.argsort(colorings[0], kind="stable")
    order2 = np.argsort(colorings[1], kind="stable")
    mapping = np.empty(n, dtype=np.int64)
    mapping[order1] = order2
    (indptr1, indices1), (indptr2, indices2) = g1.edge_index, g2.edge_index
    if len(indices1) != len(indices2):
        return None
    rows = np.repeat(mapping, np.diff(indptr1))  # image of each edge's first node
    codes = np.sort(rows * n + mapping[indices1])
    codes2 = np.repeat(np.arange(n) * n, np.diff(indptr2)) + indices2  # sorted, as g2's index is
    return mapping if np.array_equal(codes, codes2) else None


def _color_weights(count: int) -> np.ndarray:
    """Fixed integer weights w[c] < 2^21 of colors 0..count-1, as float64.

    w[c] is the top 21 bits of SplitMix64's output mix of c (Steele, Lea &
    Flood, OOPSLA 2014). A plain multiplicative hash is near linear in c, so
    its sums tie on multisets of equal color totals, such as {a, d} and
    {b, c} with a + d = b + c; the mixed weights have no such relation.
    """
    z = np.arange(count, dtype=np.uint64) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return ((z ^ (z >> np.uint64(31))) >> np.uint64(43)).astype(np.float64)


def _certify(g1: Graph, g2: Graph):
    """Joint colorings with 1-WL's verdict (None: distinguished) and a verified isomorphism g1 -> g2, or None.

    One joint refinement of both graphs. It compares the degree multisets,
    then starts from the degree ranks, which one round from the uniform init
    gives. Most rounds are sum rounds: a node's new color is the joint rank,
    over both graphs, of (color, sum of w[color] over its neighbors), w from
    _color_weights, one bincount over both edge indices, exact in float64 as
    every sum is below n 2^21 < 2^53. A sum round that splits no class is
    followed by one exact round (_refine_step) on the same colors: if that
    splits nothing either, the partition is stable; if it splits a class,
    sum rounds resume. By induction each round's color is a function of
    1-WL's color after as many rounds, the same function on both graphs,
    and the final partition is equitable and refines the degrees, so it is
    1-WL's stable partition of both graphs together. Hence:
    - histograms that differ after any round mean 1-WL's differ at the end:
      distinguished, with no map;
    - once the partition is discrete, the next round would split a class
      iff the color bijection phi is no isomorphism (each color names one
      node, so v's neighbor colors equal phi(v)'s iff phi(N(v)) = N(phi(v))),
      so one edge check (_verified_map) decides it: a passing map is a
      certificate, and a failing one means distinguished;
    - a partition that ends stable but not discrete is indistinguishable,
      and its candidate map gets the same edge check, whose failure proves
      nothing.
    The color names are shared across the graphs but are not 1-WL's labels;
    the partition they name is 1-WL's, and so is the candidate map.
    """
    n = g1.n
    if not np.array_equal(np.sort(g1.degrees), np.sort(g2.degrees)):
        return None, None
    colors = np.concatenate([_initial_colors(g1, "degree"), _initial_colors(g2, "degree")])
    (indptr1, indices1), (indptr2, indices2) = g1.edge_index, g2.edge_index
    owner = np.repeat(np.arange(2 * n), np.concatenate([np.diff(indptr1), np.diff(indptr2)]))
    nbrs, weights, lists = np.concatenate([indices1, indices2 + n]), _color_weights(n), None
    classes, changed = colors.max() + 1, True
    # labels are dense over both graphs, and with equal histograms each graph holds every one
    while changed and 1 < classes < n:
        sums = np.bincount(owner, weights[colors][nbrs], 2 * n).astype(np.int64)
        # (color, sum) as one int64 key in the same order: below n^2 2^21,
        # within int64 for n < 2^21, past any n x n adjacency that fits in memory
        colors = np.unique(colors * (sums.max() + 1) + sums, return_inverse=True)[1]
        if colors.max() + 1 == classes:  # the sums split no class: an exact round decides
            lists = lists or [_neighbor_lists(g1), _neighbor_lists(g2)]
            colorings, changed = _refine_step([colors[:n], colors[n:]], lists)
            colors = np.concatenate(colorings)
        if not np.array_equal(np.bincount(colors[:n], minlength=n), np.bincount(colors[n:], minlength=n)):
            return None, None
        classes = colors.max() + 1
    colorings = [colors[:n], colors[n:]]
    mapping = _verified_map(g1, g2, colorings)
    return (None, None) if mapping is None and classes == n else (colorings, mapping)


def wl_distinguish(g1: Graph, g2: Graph, init: str = "uniform") -> str:
    """Joint 1-WL verdict: "distinguished" or "indistinguishable".

    The verdict is that of _certify's joint refinement. init is checked
    (ValueError on an unknown name) but cannot change the verdict: one round
    from the uniform init gives the degree ranks, and refinement from
    either ends at the same stable partition.
    """
    _initial_colors(g1, init)  # raises on an unknown init
    return "distinguished" if _certify(g1, g2)[0] is None else "indistinguishable"


def wl_feature_matrix(g: Graph, depth: int) -> np.ndarray:
    """Propagated-degree features: column k (1-based) is S^k 1.

    This is what refinement effectively propagates when multiset hashing is
    collision-free; on regular graphs every column is constant, which is the
    whole failure mode. Each product sums x over every node's neighbours on
    the edge index; the counts are integers, exact in float64 below 2^53.
    """
    depth = _check_int(depth, "depth", 1)
    indptr, indices = g.edge_index
    owner = np.repeat(np.arange(g.n), np.diff(indptr))
    out = np.empty((g.n, depth))
    x = np.ones(g.n)
    for k in range(depth):
        x = np.bincount(owner, x[indices], g.n)
        out[:, k] = x
    return out
