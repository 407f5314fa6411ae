import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrawl import (
    Graph,
    Permutation,
    apply_permutation,
    csl_base_graph,
    discriminate_pair,
    erdos_renyi,
    from_edge_list,
    is_isomorphic_bruteforce,
    wl_distinguish,
    wl_feature_matrix,
    wl_refine,
)
from spectrawl import graphs, wl

from conftest import full_refinement, random_graph_pairs


def _same_partition(colorings, final):
    """Whether two joint colorings name the same classes of both graphs' nodes, one to one."""
    a, b = np.concatenate(colorings).tolist(), np.concatenate(final).tolist()
    return len(set(zip(a, b))) == len(set(a)) == len(set(b))


def _classes(colors):
    groups = {}
    for v, c in enumerate(colors):
        groups.setdefault(c, set()).add(v)
    return set(frozenset(s) for s in groups.values())


def test_refine_prism_uniform(prism):
    coloring = wl_refine(prism, init="uniform")
    assert coloring.num_classes == 1
    assert coloring.stable_at == 1


def test_refine_path_degree_init():
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    coloring = wl_refine(p3, init="degree")
    assert coloring.stable_at == 1
    assert _classes(coloring.colors[-1]) == {frozenset({0, 2}), frozenset({1})}


def test_refine_bihexagon_classes(bihexagon):
    coloring = wl_refine(bihexagon, init="degree")
    assert _classes(coloring.colors[-1]) == {
        frozenset({0, 1, 8, 9}),
        frozenset({2, 3, 6, 7}),
        frozenset({4, 5}),
    }


def test_degree_init_equals_one_uniform_round(prism, bihexagon):
    for g in (prism, bihexagon):
        assert wl_refine(g, "degree").colors[0] == wl_refine(g, "uniform").colors[1]


def test_distinguish_example_pairs(prism, k33, bihexagon, bipentagon):
    assert wl_distinguish(prism, k33) == "indistinguishable"
    assert wl_distinguish(bihexagon, bipentagon) == "indistinguishable"


def test_distinguish_path_vs_triangle():
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert wl_distinguish(p3, k3) == "distinguished"


def test_distinguish_symmetric_and_sound_on_isomorphic():
    for g, permuted, _ in random_graph_pairs(20, seed=23):
        assert wl_distinguish(g, permuted) == "indistinguishable"
        assert wl_distinguish(permuted, g) == "indistinguishable"
        assert is_isomorphic_bruteforce(g, permuted)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_refinement_monotone_and_halts(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 65))
    g = erdos_renyi(n, 0.15, rng)
    coloring = wl_refine(g)
    assert coloring.stable_at <= n
    class_counts = [len(set(c)) for c in coloring.colors]
    assert class_counts == sorted(class_counts)
    # classes only split: equal colors at step t+1 imply equal colors at t
    for before, after in zip(coloring.colors, coloring.colors[1:]):
        seen = {}
        for c_after, c_before in zip(after, before):
            assert seen.setdefault(c_after, c_before) == c_before


def test_feature_matrix_regular_pair(prism, k33):
    x1 = wl_feature_matrix(prism, 3)
    x2 = wl_feature_matrix(k33, 3)
    np.testing.assert_array_equal(x1, np.tile([3.0, 9.0, 27.0], (6, 1)))
    np.testing.assert_array_equal(x1, x2)  # the information-loss demo


def test_feature_matrix_path():
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    np.testing.assert_array_equal(
        wl_feature_matrix(p3, 2), np.array([[1.0, 2.0], [2.0, 2.0], [1.0, 2.0]])
    )


def test_feature_matrix_equivariant():
    for g, permuted, perm in random_graph_pairs(15, seed=29):
        x = wl_feature_matrix(g, 4)
        xp = wl_feature_matrix(permuted, 4)
        q = np.asarray(perm.mapping)
        np.testing.assert_array_equal(xp[q, :], x)


def test_feature_matrix_depth_validation(prism):
    with pytest.raises(ValueError):
        wl_feature_matrix(prism, 0)


@pytest.mark.parametrize("depth", [2.5, True, "3", None])
def test_feature_matrix_rejects_a_non_integer_depth(prism, depth):
    with pytest.raises(ValueError, match="depth"):
        wl_feature_matrix(prism, depth)


def test_distinguish_checks_init_before_any_shortcut(prism, bihexagon, k33):
    # node counts differ, degree multisets differ, then both equal
    for g1, g2 in ((prism, bihexagon), (prism, from_edge_list(6, [(0, 1)])), (prism, k33)):
        with pytest.raises(ValueError, match="unknown init 'bogus'"):
            wl_distinguish(g1, g2, "bogus")


# Dict-keyed refinement, kept as the oracle for the array-keyed step: keys are
# (color, sorted neighbor color tuple), labels their rank in sorted order.
def _oracle_init(g, init):
    if init == "uniform":
        return [0] * g.n
    degs = g.degrees.astype(int).tolist()
    ranks = {d: i for i, d in enumerate(sorted(set(degs)))}
    return [ranks[d] for d in degs]


def _oracle_step(colorings, neighbor_lists):
    keys_per_graph = [
        [(colors[v], tuple(sorted(colors[u] for u in nbrs[v]))) for v in range(len(colors))]
        for colors, nbrs in zip(colorings, neighbor_lists)
    ]
    table = {key: i for i, key in enumerate(sorted({k for ks in keys_per_graph for k in ks}))}
    new_colorings = [[table[k] for k in ks] for ks in keys_per_graph]
    old_classes = len({c for cs in colorings for c in cs})
    return new_colorings, len(table) != old_classes


def _oracle_nbrs(g):
    return [g.neighbors(v).tolist() for v in range(g.n)]


def _oracle_refine(g, init):
    nbrs = _oracle_nbrs(g)
    colors = _oracle_init(g, init)
    history = [tuple(colors)]
    stable_at = g.n
    for step in range(1, g.n + 1):
        (colors,), changed = _oracle_step([colors], [nbrs])
        history.append(tuple(colors))
        if not changed:
            stable_at = step
            break
    return tuple(history), stable_at, tuple(sorted(history[-1]))


def _oracle_distinguish(g1, g2, init):
    if g1.n != g2.n:
        return "distinguished"
    colorings = [_oracle_init(g1, init), _oracle_init(g2, init)]
    nbrs = [_oracle_nbrs(g1), _oracle_nbrs(g2)]
    for _ in range(g1.n + g2.n + 1):
        colorings, changed = _oracle_step(colorings, nbrs)
        if not changed:
            break
    sig1, sig2 = (tuple(sorted(cs)) for cs in colorings)
    return "indistinguishable" if sig1 == sig2 else "distinguished"


def _oracle_cases():
    rng = np.random.default_rng(53)
    special = [
        Graph(1, np.zeros((1, 1))),
        Graph(5, np.zeros((5, 5))),  # edgeless
        from_edge_list(6, [(i, j) for i in range(6) for j in range(i + 1, 6)]),  # complete
        from_edge_list(7, [(0, j) for j in range(1, 7)]),  # star
        from_edge_list(9, [(0, 1), (1, 2), (3, 4), (5, 6), (6, 7), (7, 5)]),  # disconnected
    ]
    graphs = special + [
        erdos_renyi(int(rng.integers(2, 40)), float(rng.uniform(0.05, 0.6)), rng) for _ in range(100)
    ]
    # relabeled copies make indistinguishable pairs, neighbors in the list mostly distinguished ones
    pairs = [(g, apply_permutation(g, Permutation.random(g.n, rng))) for g in graphs]
    pairs += list(zip(graphs, graphs[1:]))
    return graphs, pairs


def test_refine_matches_dict_keyed_oracle():
    graphs, _ = _oracle_cases()
    for g in graphs:
        for init in ("uniform", "degree"):
            coloring = wl_refine(g, init)
            assert (coloring.colors, coloring.stable_at, coloring.signature) == _oracle_refine(g, init)


def test_distinguish_matches_dict_keyed_oracle():
    _, pairs = _oracle_cases()
    verdicts = []
    for g1, g2 in pairs:
        for init in ("uniform", "degree"):
            verdict = wl_distinguish(g1, g2, init)
            assert verdict == _oracle_distinguish(g1, g2, init)
            verdicts.append(verdict)
            # equal colorings name the stable partition of both graphs
            colorings, _ = wl._certify(g1, g2)
            if colorings is not None:
                assert _same_partition(colorings, full_refinement(g1, g2, init)[2])
    assert {"distinguished", "indistinguishable"} <= set(verdicts)


def test_joint_step_matches_oracle_across_sizes():
    # graphs of different sizes and maximum degrees share one relabeling
    graphs, _ = _oracle_cases()
    for group in (graphs[:5], graphs[5:12], graphs[12:40:3]):
        colorings = [wl._initial_colors(g, "degree") for g in group]
        expected = [_oracle_init(g, "degree") for g in group]
        nbrs = [wl._neighbor_lists(g) for g in group]
        for _ in range(4):
            colorings, changed = wl._refine_step(colorings, nbrs)
            expected, expected_changed = _oracle_step(expected, [_oracle_nbrs(g) for g in group])
            assert [c.tolist() for c in colorings] == expected
            assert changed == expected_changed


def _double_edge_swap(g, rng):
    """g with edges (a, b), (c, d) replaced by (a, d), (c, b): every degree is kept."""
    a = g.adjacency.copy()
    edges = g.edges()
    for _ in range(1000):
        (u, v), (x, y) = (edges[i] for i in rng.choice(len(edges), size=2, replace=False))
        if rng.random() < 0.5:
            x, y = y, x
        if len({u, v, x, y}) == 4 and a[u, y] == 0.0 and a[x, v] == 0.0:
            a[u, v] = a[v, u] = a[x, y] = a[y, x] = 0.0
            a[u, y] = a[y, u] = a[x, v] = a[v, x] = 1.0
            return Graph(g.n, a)
    raise AssertionError("no double-edge swap found")


def _swap_pairs():
    """40 relabeled pairs alternating with 40 pairs one to three double-edge swaps apart."""
    rng = np.random.default_rng(79)
    pairs = []
    for _ in range(40):
        g = erdos_renyi(int(rng.integers(8, 40)), float(rng.uniform(0.15, 0.4)), rng)
        pairs.append((g, apply_permutation(g, Permutation.random(g.n, rng))))
        swapped = g
        for _ in range(int(rng.integers(1, 4))):
            swapped = _double_edge_swap(swapped, rng)
        pairs.append((g, swapped))
    return pairs


def test_early_verdict_matches_full_refinement(count_calls):
    pairs = _swap_pairs()
    steps = count_calls(wl, "_refine_step")
    early_exits = 0
    for g1, g2 in pairs:
        assert sorted(g1.degrees) == sorted(g2.degrees)
        for init in ("uniform", "degree"):
            verdict, rounds, final = full_refinement(g1, g2, init)
            del steps[:]
            colorings, _ = wl._certify(g1, g2)
            # exact rounds run only where the sums split no class
            assert len(steps) <= rounds
            early_exits += len(steps) < rounds
            assert wl_distinguish(g1, g2, init) == verdict
            # equal colorings name the stable partition of both graphs
            assert (colorings is None) == (verdict == "distinguished")
            if colorings is not None:
                assert _same_partition(colorings, final)
    # some swaps are told apart before refinement is stable, some never
    assert early_exits > 0
    verdicts = {full_refinement(g1, g2, "uniform")[0] for g1, g2 in pairs[1::2]}
    assert verdicts == {"distinguished", "indistinguishable"}


def test_sum_collisions_cannot_change_a_verdict(monkeypatch):
    # with every color weight equal, each sum round only recounts the degrees
    # and splits nothing past them: every split is left to the exact rounds
    monkeypatch.setattr(wl, "_color_weights", lambda count: np.ones(count))
    distinguished = certified = 0
    for g1, g2 in _swap_pairs():
        verdict = full_refinement(g1, g2, "uniform")[0]
        colorings, mapping = wl._certify(g1, g2)
        assert wl_distinguish(g1, g2) == verdict
        assert (colorings is None) == (verdict == "distinguished")
        if mapping is not None:
            assert apply_permutation(g1, Permutation(tuple(mapping.tolist()))) == g2
            certified += 1
        distinguished += verdict == "distinguished"
    # a refinement that took a sum round with no split as stable would stop
    # at the degree ranks and call 38 distinguished swap pairs alike
    assert (distinguished, certified) == (38, 40)


def test_rounds_run_only_until_the_answer_is_known(count_calls, prism):
    rng = np.random.default_rng(131)
    steps = count_calls(wl, "_refine_step")
    built = count_calls(wl, "_neighbor_lists")
    # one sum round from the degree ranks makes G(60, 0.5) discrete, so no
    # exact round runs, and the edge check stands in for the round that
    # would confirm it
    g = erdos_renyi(60, 0.5, rng)
    for init in ("uniform", "degree"):
        del steps[:]
        assert wl_distinguish(g, apply_permutation(g, Permutation.random(60, rng)), init) == "indistinguishable"
        assert steps == []
    # a regular pair is stable from the degree ranks: no round, no neighbor list
    del steps[:], built[:]
    csl = csl_base_graph(41, 5)
    for r in (prism, csl):
        for init in ("uniform", "degree"):
            assert wl_distinguish(r, apply_permutation(r, Permutation.random(r.n, rng)), init) == "indistinguishable"
    assert steps == [] and built == []


def _neighbor_degree_swap(g, rng):
    """g with edges (a, b), (c, d) replaced by (a, d), (c, b), where deg a = deg c and deg b = deg d.

    Every node keeps its degree and the multiset of its neighbors' degrees, so
    one refinement round from the degree ranks colors both graphs alike.
    """
    a, deg = g.adjacency.copy(), g.degrees
    edges = g.edges()
    for _ in range(10000):
        (u, v), (x, y) = (edges[i] for i in rng.choice(len(edges), size=2, replace=False))
        if rng.random() < 0.5:
            x, y = y, x
        if len({u, v, x, y}) == 4 and deg[u] == deg[x] and deg[v] == deg[y] and a[u, y] == a[x, v] == 0.0:
            a[u, v] = a[v, u] = a[x, y] = a[y, x] = 0.0
            a[u, y] = a[y, u] = a[x, v] = a[v, x] = 1.0
            return Graph(g.n, a)
    raise AssertionError("no neighbor-degree-preserving swap found")


def test_discrete_partition_that_is_no_isomorphism_is_distinguished(count_calls):
    rng = np.random.default_rng(137)
    checks = count_calls(wl, "_verified_map")
    decided_by_check = 0
    for _ in range(10):
        g = erdos_renyi(int(rng.integers(30, 60)), 0.5, rng)
        h = _neighbor_degree_swap(g, rng)
        for init in ("uniform", "degree"):
            del checks[:]
            assert wl_distinguish(g, h, init) == "distinguished"
            assert full_refinement(g, h, init)[0] == "distinguished"
            # refinement calls the edge check only at a discrete partition
            decided_by_check += len(checks)
    assert decided_by_check == 20  # every pair, at both inits


def test_certificate_refinement_checks_the_map_of_a_discrete_partition(count_calls):
    rng = np.random.default_rng(137)
    checks = count_calls(wl, "_verified_map")
    steps = count_calls(wl, "_refine_step")
    for _ in range(10):
        g = erdos_renyi(int(rng.integers(30, 60)), 0.5, rng)
        h = _neighbor_degree_swap(g, rng)
        del checks[:]
        # the sum rounds are discrete where 1-WL's are, and the failing
        # edge check is the verdict: distinguished, with no map
        assert wl._certify(g, h) == (None, None)
        assert len(checks) == 1
    assert steps == []


def test_discriminate_pair_keeps_the_verdict_of_1_wl():
    rng = np.random.default_rng(139)
    verdicts, certified = [], 0
    for _ in range(30):
        g = erdos_renyi(int(rng.integers(8, 60)), float(rng.uniform(0.1, 0.5)), rng)
        swapped = g
        for _ in range(int(rng.integers(1, 4))):
            swapped = _double_edge_swap(swapped, rng)
        for h in (swapped, apply_permutation(g, Permutation.random(g.n, rng))):
            verdict = full_refinement(g, h, "uniform")[0]
            assert discriminate_pair(g, h).wl == verdict
            verdicts.append(verdict)
            certified += wl._certify(g, h)[1] is not None
    # the sample has both verdicts, and isomorphic pairs whose map is proven
    assert set(verdicts) == {"distinguished", "indistinguishable"} and certified > 0


def test_differing_degrees_build_no_neighbor_lists(count_calls, prism, bihexagon):
    rng = np.random.default_rng(83)
    built = count_calls(wl, "_neighbor_lists")
    for _ in range(20):
        n = int(rng.integers(5, 60))
        g1, g2 = erdos_renyi(n, 0.2, rng), erdos_renyi(n, 0.2, rng)
        if sorted(g1.degrees) == sorted(g2.degrees):
            continue
        for init in ("uniform", "degree"):
            assert wl_distinguish(g1, g2, init) == "distinguished"
            assert _oracle_distinguish(g1, g2, init) == "distinguished"
    assert wl_distinguish(prism, from_edge_list(6, [(0, 1), (2, 3)])) == "distinguished"
    # a regular pair is stable from the start
    assert wl_distinguish(prism, apply_permutation(prism, Permutation.random(6, rng))) == "indistinguishable"
    assert built == []
    # other equal degree multisets do refine
    assert wl_distinguish(bihexagon, apply_permutation(bihexagon, Permutation.random(10, rng))) == "indistinguishable"
    assert len(built) == 2


def test_verified_map_is_an_isomorphism(prism, k33, bihexagon, bipentagon):
    rng = np.random.default_rng(89)
    pairs = [(g, h) for g, h, _ in random_graph_pairs(150, n_max=8, seed=89)]
    for _ in range(300):
        n, p = int(rng.integers(3, 9)), float(rng.uniform(0.2, 0.6))
        pairs.append((erdos_renyi(n, p, rng), erdos_renyi(n, p, rng)))
    hexagon = from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
    triangles = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    # equal colorings without an isomorphism, and a vertex-transitive relabeling
    pairs += [(prism, k33), (hexagon, triangles), (bihexagon, bipentagon)]
    pairs.append((prism, apply_permutation(prism, Permutation((3, 5, 0, 4, 1, 2)))))
    certified = uncertified_isomorphic = 0
    for g1, g2 in pairs:
        mapping = wl._certify(g1, g2)[1]
        if mapping is None:
            uncertified_isomorphic += g1.n == g2.n and is_isomorphic_bruteforce(g1, g2)
            continue
        assert is_isomorphic_bruteforce(g1, g2)
        assert apply_permutation(g1, Permutation(tuple(mapping))) == g2
        certified += 1
    assert certified > 100 and uncertified_isomorphic > 0


def test_discrete_coloring_is_always_certified():
    rng = np.random.default_rng(97)
    discrete = 0
    for _ in range(60):
        n = int(rng.integers(10, 80))
        g = erdos_renyi(n, float(rng.uniform(0.1, 0.5)), rng)
        perm = Permutation.random(n, rng)
        if wl_refine(g).num_classes < n:
            continue
        discrete += 1
        # a discrete coloring leaves one candidate, the relabeling itself
        assert wl._certify(g, apply_permutation(g, perm))[1].tolist() == list(perm.mapping)
    assert discrete >= 30


def test_verified_map_needs_equal_edge_counts():
    path = from_edge_list(3, [(0, 1), (1, 2)])
    triangle = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    uniform = [np.zeros(3, dtype=np.int64)] * 2
    # every edge of the path lands on an edge of the triangle, one is left over
    assert wl._verified_map(path, triangle, uniform) is None
    assert wl._verified_map(triangle, triangle, uniform).tolist() == [0, 1, 2]


@pytest.mark.parametrize("density", [0, 10**9], ids=["all-sparse", "all-dense"])
def test_verified_map_reads_the_same_on_either_plan(monkeypatch, density):
    # sorted edge codes at either density: one answer, and no adjacency built
    rng = np.random.default_rng(109)
    cases = []
    for n, p in ((12, 0.3), (40, 0.1), (60, 0.5)):
        g = erdos_renyi(n, p, rng)
        perm = Permutation.random(n, rng)
        # node v of g1 and node perm(v) of g2 share color v: the relabeling
        # itself, then a map off by one transposition
        colors = np.argsort(perm.mapping)
        cases.append((g, apply_permutation(g, perm), [np.arange(n), colors]))
        colors = colors.copy()
        colors[[0, 1]] = colors[[1, 0]]
        cases.append((g, apply_permutation(g, perm), [np.arange(n), colors]))
    expected = [wl._verified_map(g1, g2, c) is not None for g1, g2, c in cases]
    monkeypatch.setattr(graphs, "_SPARSE_DENSITY", density)
    for (g1, g2, colorings), found in zip(cases, expected):
        g2 = Graph(g2.n, edges=np.array(g2.edges()).reshape(-1, 2))  # a fresh graph, no adjacency yet
        assert (wl._verified_map(g1, g2, colorings) is not None) == found
        assert "adjacency" not in vars(g1) and "adjacency" not in vars(g2)
    assert expected.count(True) == 3


def test_feature_matrix_is_the_adjacency_ladder_from_the_index():
    rng = np.random.default_rng(113)
    for g in [erdos_renyi(n, p, rng) for n, p in ((1, 0.5), (30, 0.2), (200, 0.05), (80, 0.6))]:
        x = wl_feature_matrix(g, 6)
        assert "adjacency" not in vars(g)
        ref, col = np.empty((g.n, 6)), np.ones(g.n)
        for k in range(6):
            col = g.adjacency @ col
            ref[:, k] = col
        np.testing.assert_array_equal(x, ref)
