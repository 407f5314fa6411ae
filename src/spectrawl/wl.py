"""1-WL color refinement with exact multiset relabeling.

Relabeling ranks exact (old color, sorted neighbor color multiset) keys
rather than hash digests, so there are no collision false-negatives. Labels
are assigned canonically (sorted key order). A round reads the edge index
only: each node's key is its color and its neighbor colors as (color, count)
runs, so a round holds O(n R + m), R the most runs of any node, and no row
padded to the largest degree. Graphs are refined jointly by refining their
disjoint union, one coloring over one edge index, so their colorings share
one set of names. The refinement of a pair's disjoint union
(`_certify`, behind `wl_distinguish`) mostly ranks integer sums of hashed
color weights instead, summed over each graph's own edge index, so the
union's edge index is built only for an exact round. Its partition is never
finer than 1-WL's, and a sum round that splits no class is followed by an
exact round, so a collision only delays a split to that round and never
changes a verdict.
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


def _refine_step(colors: np.ndarray, owner: np.ndarray, nbrs: np.ndarray):
    """One refinement round of one coloring over an edge index.

    Entry e of the index joins node owner[e] to node nbrs[e], owner
    ascending: the index of one graph, or of the disjoint union of several,
    which is one more coloring and index, so refining the union refines them
    jointly. Colors are below the node count n. One sort of the edge codes
    owner n + color[nbr] turns each node's neighbor colors into ascending
    (color, count) runs. A run is one key, color 2n + (count if the run
    ends the node's multiset, else 2n - count), every count below n: within
    a color, a run that ends sorts first, the shorter of two that end first
    and the longer of two that continue first, as Python orders the sorted
    multisets as tuples. So the rows (color, run keys, zero padding to R,
    the most runs of any node) sort as the (color, sorted neighbor colors)
    keys, and their ranks are those keys' canonical labels. np.unique ranks
    the rows as big-endian byte strings, which compare as the rows do: one
    comparison per pair of rows, not one per column. A round holds
    O(n R + m), not O(n max degree). Returns the new coloring (dense labels)
    and whether the partition changed.
    """
    n = len(colors)
    # codes and run keys are below 2 n^2: within int64 for n < 2^31 nodes,
    # whose colors alone would take 16 GiB
    codes = owner * n
    codes += colors[nbrs]
    codes.sort()  # in place: the edge-sized arrays are the largest of the round
    # bool flags, not int64 differences: a pass over the edges costs less
    new = np.ones(len(codes), dtype=bool)
    new[1:] = codes[1:] != codes[:-1]
    first = np.flatnonzero(new)  # each run's first entry
    counts = np.diff(first, append=len(codes))
    node = owner[first]  # the sort keeps the ascending owners in place
    ends = np.ones(len(first), dtype=bool)
    ends[:-1] = node[1:] != node[:-1]
    runs = (codes[first] - node * n) * (2 * n) + np.where(ends, counts, 2 * n - counts)
    per = np.bincount(node, minlength=n)
    keys = np.zeros((n, 1 + per.max(initial=0)), dtype=">u8")
    keys[:, 0] = colors
    # a row-major mask fill keeps the run order: row v takes its per[v] runs
    keys[:, 1:][np.arange(keys.shape[1] - 1) < per[:, None]] = runs
    del codes, new, first, counts, node, ends, runs, per  # before the ranking's copies
    labels = np.unique(keys.view(f"S{keys.itemsize * keys.shape[1]}")[:, 0], return_inverse=True)[1]
    # new colors are functions of old colors, so partitions only refine; a
    # round changes the partition iff it makes more classes
    return labels, bool(labels.max() + 1 > np.count_nonzero(np.bincount(colors)))


def wl_refine(g: Graph, init: str = "uniform") -> WLColoring:
    """Run color refinement to stability on a single graph.

    Every round is exact (_refine_step) over the graph's own edge index.
    """
    owner = np.repeat(np.arange(g.n), np.diff(g.edge_index[0]))
    colors = _initial_colors(g, init)
    history = [tuple(colors.tolist())]
    stable_at = g.n
    for step in range(1, g.n + 1):
        colors, changed = _refine_step(colors, owner, g.edge_index[1])
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
    order: no dense adjacency is read or built. Each code array is built and
    sorted in place, so the check holds two int64 arrays over one graph's
    edge index, and a gather of the same size while the first is built.
    """
    n = g1.n
    order1 = np.argsort(colorings[0], kind="stable")
    order2 = np.argsort(colorings[1], kind="stable")
    mapping = np.empty(n, dtype=np.int64)
    mapping[order1] = order2
    (indptr1, indices1), (indptr2, indices2) = g1.edge_index, g2.edge_index
    if len(indices1) != len(indices2):
        return None
    codes = np.repeat(mapping * n, np.diff(indptr1))  # image of each edge's first node
    codes += mapping[indices1]
    codes.sort()
    codes2 = np.repeat(np.arange(n) * n, np.diff(indptr2))
    codes2 += indices2  # sorted, as g2's index is
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


def _neighbor_sums(graphs, x: np.ndarray) -> np.ndarray:
    """Per node of the disjoint union of graphs, the sum of x over its neighbors, as float64.

    x holds one value per node of the union, graph by graph. Each graph's
    sums are one np.add.reduceat of x gathered over its own edge index, cut
    at the indptr starts of its nonempty rows only: reduceat gives an empty
    row the next entry, not 0, and past the last entry it raises. Rows with
    no neighbors keep 0. No edge array of the union is made, and the
    gathered values of one graph are the only edge-sized array.
    """
    out = np.zeros(len(x))
    start = 0
    for g in graphs:
        indptr, indices = g.edge_index
        rows = np.flatnonzero(np.diff(indptr))
        out[start + rows] = np.add.reduceat(x[start : start + g.n][indices], indptr[rows])
        start += g.n
    return out


def _certify(g1: Graph, g2: Graph):
    """Joint colorings with 1-WL's verdict (None: distinguished) and a verified isomorphism g1 -> g2, or None.

    It refines the disjoint union of both graphs, g2's node v as node n + v,
    held as one degree array and one coloring over both graphs. It compares
    the degree multisets, then starts from the degree ranks, which one round
    from the uniform init gives. Most rounds are sum rounds: a node's new
    color is the rank, over the union, of (color, sum of w[color] over its
    neighbors), w from _color_weights, summed over each graph's own edge
    index (_neighbor_sums), exact in float64 as every partial sum is an
    integer below n 2^21 < 2^53. A sum round that splits no class is
    followed by one exact round (_refine_step) on the same colors, over the
    union's edge index (owner, nbrs), which the first such round builds: if
    that splits nothing either, the partition is stable; if it splits a
    class, sum rounds resume. By induction each round's color is a function of
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
    the partition they name is 1-WL's, and so is the candidate map. A pair
    that runs no exact round holds no edge array of the union, and the union
    is dropped before the edge check, which reads the graphs' own indices.
    """
    n = g1.n
    (indptr1, indices1), (indptr2, indices2) = g1.edge_index, g2.edge_index
    deg = np.concatenate([np.diff(indptr1), np.diff(indptr2)])
    if not np.array_equal(np.sort(deg[:n]), np.sort(deg[n:])):
        return None, None
    colors = np.unique(deg, return_inverse=True)[1]
    weights = _color_weights(n)
    union = None  # the union's edge index, for exact rounds only
    classes, changed = colors.max() + 1, True
    # labels are dense over both graphs, and with equal histograms each graph holds every one
    while changed and 1 < classes < n:
        sums = _neighbor_sums((g1, g2), weights[colors]).astype(np.int64)
        # (color, sum) as one int64 key in the same order: a sum is at most
        # Delta (2^21 - 1), Delta the maximum degree, so a key is below
        # classes (sums.max() + 1) <= n Delta 2^21: within int64 while
        # n Delta <= 2^42, as on every graph below 2^21 nodes
        colors = np.unique(colors * (sums.max() + 1) + sums, return_inverse=True)[1]
        if colors.max() + 1 == classes:  # the sums split no class: an exact round decides
            if union is None:  # g2's node v is node n + v
                union = np.repeat(np.arange(2 * n), deg), np.concatenate([indices1, indices2 + n])
            colors, changed = _refine_step(colors, *union)
        if not np.array_equal(np.bincount(colors[:n], minlength=n), np.bincount(colors[n:], minlength=n)):
            return None, None
        classes = colors.max() + 1
    del union  # the map check needs none of the union
    colorings = [colors[:n], colors[n:]]
    mapping = _verified_map(g1, g2, colorings)
    return (None, None) if mapping is None and classes == n else (colorings, mapping)


def wl_distinguish(g1: Graph, g2: Graph) -> str:
    """Joint 1-WL verdict: "distinguished" or "indistinguishable".

    The verdict is that of _certify's refinement of the disjoint union. It
    takes no initial coloring: one round from the uniform init gives the
    degree ranks, and refinement from either ends at the same stable
    partition, so both would give this verdict.
    """
    return "distinguished" if _certify(g1, g2)[0] is None else "indistinguishable"


def wl_feature_matrix(g: Graph, depth: int) -> np.ndarray:
    """Propagated-degree features: column k (1-based) is S^k 1.

    This is what refinement effectively propagates when multiset hashing is
    collision-free; on regular graphs every column is constant, which is the
    whole failure mode. Each product sums x over every node's neighbours on
    the edge index (_neighbor_sums, the kernel of 1-WL's sum rounds); the
    counts are integers, exact in float64 below 2^53.
    """
    depth = _check_int(depth, "depth", 1)
    out = np.empty((g.n, depth))
    x = np.ones(g.n)
    for k in range(depth):
        x = _neighbor_sums((g,), x)
        out[:, k] = x
    return out
