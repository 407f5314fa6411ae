import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrawl import (
    Graph,
    Permutation,
    apply_permutation,
    corpus,
    corpus_graph,
    erdos_renyi,
    from_edge_list,
    is_isomorphic_bruteforce,
    load_graph,
    save_graph,
)
from spectrawl.discriminate import CslSpec, InvalidSkipError, csl_base_graph
from spectrawl.gnn import closed_walk_count
from spectrawl.graphs import (
    DuplicateEdgeError,
    EdgeIndexError,
    GraphError,
    ParseError,
    SelfLoopError,
    SizeMismatchError,
    TooLargeError,
    _edge_entries,
)

from conftest import random_graph_pairs, traced_peak


def test_from_edge_list_k3():
    g = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    expected = np.ones((3, 3)) - np.eye(3)
    np.testing.assert_array_equal(g.adjacency, expected)


def test_from_edge_list_prism_is_cubic(prism):
    np.testing.assert_array_equal(prism.degrees, np.full(6, 3.0))
    assert prism.num_edges == 9


def test_from_edge_list_errors():
    with pytest.raises(SelfLoopError):
        from_edge_list(3, [(0, 0)])
    with pytest.raises(DuplicateEdgeError):
        from_edge_list(3, [(0, 1), (1, 0)])
    with pytest.raises(EdgeIndexError):
        from_edge_list(3, [(0, 3)])


def test_empty_graph_is_rejected():
    with pytest.raises(GraphError, match="node count must be positive"):
        Graph(0, np.zeros((0, 0)))


@pytest.mark.parametrize("n", [6.0, 2.5, True, "6", None])
def test_node_count_must_be_an_integer(n):
    with pytest.raises(GraphError, match="node count must be an integer"):
        Graph(n, np.zeros((6, 6)))
    with pytest.raises(GraphError, match="node count must be an integer"):
        from_edge_list(n, [])


def test_entry_points_reject_bad_integers_naming_the_parameter(prism):
    """Each integer input raises its entry point's error type, and the message starts with its name."""
    rng = np.random.default_rng(0)
    table = [
        (lambda x: erdos_renyi(x, 0.5, rng), GraphError, "node count"),
        (lambda x: Permutation.random(x, rng), GraphError, "node count"),
        (lambda x: closed_walk_count(prism, 0, x), ValueError, "walk length k"),
        (lambda x: closed_walk_count(prism, x, 2), ValueError, "node v"),
        (lambda x: CslSpec(n=x, skips=()), ValueError, "n"),
        (lambda x: CslSpec(seed=x), ValueError, "seed"),
        (lambda x: CslSpec(copies_per_class=x), ValueError, "copies_per_class"),
        (lambda x: csl_base_graph(41, x), InvalidSkipError, "skip"),
    ]
    wrong = []
    for call, error, name in table:
        for value in (True, 2.5, -1, "3", [1]):
            try:
                call(value)
                wrong.append((name, value, "accepted"))
            except error as exc:
                if not str(exc).startswith(f"{name} must be"):
                    wrong.append((name, value, str(exc)))
            except Exception as exc:  # any other type breaks the documented contract
                wrong.append((name, value, repr(exc)))
    assert wrong == []


def test_node_indices_must_be_integers_not_truncated():
    """Edge endpoints and permutation entries go through the same integer rule; an
    integer out of range is still an EdgeIndexError or a non-bijection."""
    table = [
        (lambda x: from_edge_list(3, [(0, x)]), "node index"),
        (lambda x: from_edge_list(3, [(x, 2)]), "node index"),
        (lambda x: Permutation((x, 0, 2)), "mapping entry"),
    ]
    for call, name in table:
        for value in (True, 1.5, 1.0, np.float64(1.0), "1", None):
            with pytest.raises(GraphError, match=f"^{name} must be an integer"):
                call(value)
    for w in (-1, 3):
        with pytest.raises(EdgeIndexError, match=f"node index {w} out of range for n=3"):
            from_edge_list(3, [(0, w)])
    with pytest.raises(GraphError):
        Permutation((0, 1, 3))
    assert from_edge_list(3, [(np.int64(0), np.int32(2))]).edges() == [(0, 2)]
    assert Permutation((np.int64(1), 0)).mapping == (1, 0)


@pytest.mark.parametrize("p", [1.5, -0.2, float("nan"), float("inf"), True, "0.5", None])
def test_erdos_renyi_rejects_p_outside_the_unit_interval(p):
    with pytest.raises(GraphError, match=r"^p must be a real number in \[0, 1\]"):
        erdos_renyi(5, p, np.random.default_rng(0))


def test_erdos_renyi_takes_p_at_both_ends():
    rng = np.random.default_rng(0)
    assert erdos_renyi(5, 0, rng).num_edges == 0
    assert erdos_renyi(5, np.float64(1.0), rng).num_edges == 10


@pytest.mark.parametrize(
    "n, adjacency, error, message",
    [
        (2, np.zeros((3, 3)), GraphError, "shape"),
        (2, [[0, 2], [2, 0]], GraphError, "exactly 0 or 1"),
        (2, [[1, 0], [0, 0]], SelfLoopError, "self-loop on node 0"),
        (2, [[0, 1], [0, 0]], GraphError, "symmetric"),
    ],
    ids=["shape", "entry-2", "diagonal-1", "asymmetric"],
)
def test_graph_rejects_a_bad_adjacency(n, adjacency, error, message):
    with pytest.raises(error, match=message):
        Graph(n, np.array(adjacency))


def test_numpy_integer_node_count_is_stored_as_int():
    g = Graph(np.int64(3), np.zeros((3, 3)))
    assert type(g.n) is int and g == from_edge_list(np.int32(3), [])


def test_adjacency_is_immutable(prism):
    with pytest.raises(ValueError):
        prism.adjacency[0, 0] = 1.0


def test_apply_permutation_identity(prism):
    assert apply_permutation(prism, Permutation.identity(6)) == prism


def test_apply_permutation_vertex_transitive():
    k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert apply_permutation(k3, Permutation((1, 2, 0))) == k3


def test_apply_permutation_definition():
    g = from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    p = Permutation((2, 0, 3, 1))
    h = apply_permutation(g, p)
    for i in range(4):
        for j in range(4):
            assert h.adjacency[p.mapping[i], p.mapping[j]] == g.adjacency[i, j]


def test_apply_permutation_length_mismatch(prism):
    with pytest.raises(SizeMismatchError):
        apply_permutation(prism, Permutation((0, 1, 2)))


def test_permutation_rejects_non_bijection():
    with pytest.raises(Exception):
        Permutation((0, 0, 1))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_permutation_composition(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    g = erdos_renyi(n, 0.4, rng)
    p = Permutation.random(n, rng)
    q = Permutation.random(n, rng)
    assert apply_permutation(apply_permutation(g, p), q) == apply_permutation(g, q.compose(p))


def test_permutation_compose_needs_equal_lengths():
    with pytest.raises(SizeMismatchError, match="different length"):
        Permutation((1, 0)).compose(Permutation((0, 1, 2)))


def test_permutation_inverse_roundtrip():
    p = Permutation((3, 0, 2, 1))
    assert p.compose(p.inverse()).mapping == tuple(range(4))


def test_bruteforce_prism_vs_k33(prism, k33):
    assert not is_isomorphic_bruteforce(prism, k33)


def test_bruteforce_permuted_copy(prism):
    swapped = apply_permutation(prism, Permutation((3, 1, 2, 0, 4, 5)))
    assert is_isomorphic_bruteforce(prism, swapped)


def test_bruteforce_path_vs_triangle():
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert not is_isomorphic_bruteforce(p3, k3)


def test_bruteforce_bounds(prism):
    with pytest.raises(SizeMismatchError):
        is_isomorphic_bruteforce(prism, from_edge_list(3, []))
    big = erdos_renyi(11, 0.3, np.random.default_rng(0))
    with pytest.raises(TooLargeError):
        is_isomorphic_bruteforce(big, big)


def test_bruteforce_reflexive_and_permutation_invariant():
    for g, permuted, _ in random_graph_pairs(10, seed=5):
        assert is_isomorphic_bruteforce(g, g)
        assert is_isomorphic_bruteforce(g, permuted)
        assert is_isomorphic_bruteforce(permuted, g)


def test_corpus_contents():
    entries = corpus()
    keys = [e.key for e in entries]
    assert keys == ["prism", "k33", "bihexagon", "bipentagon"]
    assert len(set(keys)) == len(keys)
    sizes = {e.key: e.graph.n for e in entries}
    assert sizes == {"prism": 6, "k33": 6, "bihexagon": 10, "bipentagon": 10}


def test_corpus_degree_structure(bihexagon, bipentagon, k33):
    degs = bihexagon.degrees
    assert degs[4] == degs[5] == 3
    assert all(degs[i] == 2 for i in range(10) if i not in (4, 5))
    degs = bipentagon.degrees
    assert degs[4] == degs[5] == 3
    assert all(degs[i] == 2 for i in range(10) if i not in (4, 5))
    # bipartite: no triangles
    a = k33.adjacency
    assert np.trace(a @ a @ a) == 0


def test_corpus_pairs_not_isomorphic(prism, k33, bihexagon, bipentagon):
    assert not is_isomorphic_bruteforce(prism, k33)
    assert not is_isomorphic_bruteforce(bihexagon, bipentagon)


def test_graph_equality_ignores_name(prism):
    clone = Graph(prism.n, prism.adjacency.copy(), name="other")
    assert clone == prism


def test_save_load_roundtrip(tmp_path, prism, bihexagon):
    for g in (prism, bihexagon):
        path = tmp_path / f"{g.name}.txt"
        save_graph(g, path)
        assert load_graph(path) == g


def test_load_builds_no_dense_matrix(tmp_path, float64_builds):
    # a 10 000-node path: an n x n float64 matrix would take 800 MB
    n = 10_000
    path = tmp_path / "path.txt"
    save_graph(from_edge_list(n, [(i, i + 1) for i in range(n - 1)]), path)
    g, peak = traced_peak(lambda: load_graph(path))
    assert (g.n, g.num_edges) == (n, n - 1) and float64_builds == []
    assert peak < 8 * 2**20


def test_load_rejects_self_loop_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 0\n")
    with pytest.raises(ParseError):
        load_graph(path)


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# comment\n3\n0 1\nx y\n")
    with pytest.raises(ParseError) as err:
        load_graph(path)
    assert err.value.line_no == 4


def test_load_enforces_u_less_than_v(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n2 1\n")
    with pytest.raises(ParseError):
        load_graph(path)


def test_load_rejects_duplicate_edge(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3\n0 1\n0 1\n")
    with pytest.raises(ParseError):
        load_graph(path)


@pytest.mark.parametrize(
    "text, line_no, message",
    [
        ("3 4\n0 1\n", 1, "expected positive node count"),
        ("3\n0 1 2\n", 2, "expected 'u v'"),
        ("# only\n# comments\n", 0, "missing node count"),
    ],
    ids=["count-line", "three-tokens", "comments-only"],
)
def test_load_rejects_malformed_lines(tmp_path, text, line_no, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ParseError, match=message) as err:
        load_graph(path)
    assert err.value.line_no == line_no


def test_load_missing_file():
    with pytest.raises(OSError):
        load_graph("/nonexistent/graph.txt")


def test_edge_index_is_cached_sorted_csr():
    g = erdos_renyi(40, 0.2, np.random.default_rng(59))
    indptr, indices = g.edge_index
    assert g.edge_index[0] is indptr and g.edge_index[1] is indices
    assert not indptr.flags.writeable and not indices.flags.writeable
    np.testing.assert_array_equal(np.diff(indptr), g.adjacency.sum(axis=1))
    for v in range(g.n):
        np.testing.assert_array_equal(indices[indptr[v] : indptr[v + 1]], np.flatnonzero(g.adjacency[v]))


def test_degrees_and_edge_count_match_adjacency_sums():
    rng = np.random.default_rng(63)
    graphs = [Graph(1, np.zeros((1, 1))), Graph(4, np.zeros((4, 4)))]
    graphs += [entry.graph for entry in corpus()] + [erdos_renyi(n, 0.3, rng) for n in (2, 30, 120)]
    for g in graphs:
        assert g.degrees.dtype == np.float64
        np.testing.assert_array_equal(g.degrees, g.adjacency.sum(axis=1))
        assert type(g.num_edges) is int and g.num_edges == int(g.adjacency.sum()) // 2


def test_neighbors_and_edges_read_the_edge_index(bihexagon):
    g = erdos_renyi(30, 0.3, np.random.default_rng(61))
    for v in range(g.n):
        np.testing.assert_array_equal(g.neighbors(v), np.flatnonzero(g.adjacency[v]))
    us, vs = np.nonzero(np.triu(g.adjacency))
    assert g.edges() == list(zip(us.tolist(), vs.tolist()))
    np.testing.assert_array_equal(bihexagon.neighbors(np.int64(4)), [2, 5, 6])
    assert Graph(3, np.zeros((3, 3))).edges() == []
    assert Graph(3, np.zeros((3, 3))).neighbors(2).size == 0


@pytest.mark.parametrize("v", [-1, -10, 10, 11])
def test_neighbors_rejects_a_node_out_of_range(bihexagon, v):
    with pytest.raises(EdgeIndexError, match=f"node index {v} out of range for n=10"):
        bihexagon.neighbors(v)


@pytest.mark.parametrize(
    "edges, error, message",
    [
        ([(0, 0), (0, 5)], SelfLoopError, "self-loop on node 0"),
        ([(0, 5), (0, 0)], EdgeIndexError, "node index 5 out of range for n=3"),
        ([(7, 7)], SelfLoopError, "self-loop on node 7"),
        ([(-1, 5)], EdgeIndexError, "node index -1 out of range for n=3"),
        ([(0, 1), (1, 0), (2, 2)], DuplicateEdgeError, r"duplicate edge \(1, 0\)"),
        ([(2, 2), (0, 1), (1, 0)], SelfLoopError, "self-loop on node 2"),
        ([(0, 1), (0, 1.5)], GraphError, "node index must be an integer, got 1.5"),
        ([(0, 0), (0, 1.5)], SelfLoopError, "self-loop on node 0"),
        ([(0, 1), (1, 0), (0, "2")], DuplicateEdgeError, r"duplicate edge \(1, 0\)"),
        ([(0, True)], GraphError, "node index must be an integer, got True"),
        ([(0, 1), (2, 10**30), (1, 1)], EdgeIndexError, f"node index {10**30} out of range for n=3"),
        ([(0, 1), (1, 1), (2, 10**30)], SelfLoopError, "self-loop on node 1"),
        ([(0, 1), (0, 1, 2)], ValueError, r"too many values to unpack \(expected 2\)"),
        ([(1, 1), (0, 1, 2)], SelfLoopError, "self-loop on node 1"),
        (np.array([[0, 1], [1, 2], [2, 1]]), DuplicateEdgeError, r"duplicate edge \(2, 1\)"),
    ],
)
def test_from_edge_list_reports_the_first_bad_edge(edges, error, message):
    with pytest.raises(error, match=f"^{message}$") as err:
        from_edge_list(3, edges)
    assert type(err.value) is error


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"edges": np.array([[0, 1], [1, 1], [0, 7]])}, SelfLoopError, "self-loop on node 1"),
        ({"edges": np.array([[0, 1], [0, 3]])}, EdgeIndexError, "node index 3 out of range for n=3"),
        ({"edges": np.array([[0, 1], [2, 1], [1, 0]])}, DuplicateEdgeError, r"duplicate edge \(1, 0\)"),
        ({"edges": np.array([[0, 2**63 + 5]], dtype=np.uint64)}, EdgeIndexError, f"node index {2**63 + 5} out"),
        ({"edges": np.array([[0.0, 1.0]])}, GraphError, r"edges must be an integer array of shape \(m, 2\)"),
        ({"edges": np.array([[True, False]])}, GraphError, "edges must be an integer array"),
        ({"edges": np.array([0, 1])}, GraphError, "edges must be an integer array"),
        ({"edges": np.array([[0, 1, 2]])}, GraphError, "edges must be an integer array"),
        ({}, GraphError, "give exactly one of adjacency and edges"),
        ({"edges": []}, GraphError, r"integer array of shape \(m, 2\), got float64 of shape \(0,\)"),
        ({"adjacency": np.zeros((3, 3)), "edges": [(0, 1)]}, GraphError, "give exactly one of"),
    ],
)
def test_edge_array_constructor_rejects_bad_edges(kwargs, error, message):
    with pytest.raises(error, match=message) as err:
        Graph(3, **kwargs)
    assert type(err.value) is error


@pytest.mark.parametrize(
    "build",
    [
        lambda: _edge_entries(4 * 10**9, np.array([[3 * 10**9, 3 * 10**9 + 1]])),
        lambda: Graph(10**30, edges=np.array([[0, 1]])),
        lambda: from_edge_list(10**30, [(0, 1)]),
    ],
    ids=["codes-past-int64", "node-count-past-int64", "edge-list-past-int64"],
)
def test_edge_codes_past_int64_are_an_error(build):
    # the codes row * n + column would wrap in int64, or n itself does not fit
    with pytest.raises(GraphError, match=r"^node count \d+ is too large") as err:
        build()
    assert type(err.value) is GraphError


def test_largest_node_count_whose_codes_fit():
    # 3037000499^2 - 1 is the largest code below 2^63 for an edge to node n - 1
    n = 3037000499
    rows, columns = _edge_entries(n, np.array([[n - 1, 0]]))
    assert (rows.tolist(), columns.tolist()) == ([0, n - 1], [n - 1, 0])


def test_constructors_agree_on_one_edge_set(tmp_path):
    rng = np.random.default_rng(103)
    g = erdos_renyi(40, 0.15, rng)
    edges = np.array(g.edges())[rng.permutation(g.num_edges)]  # any order
    flip = rng.random(len(edges)) < 0.5
    edges[flip] = edges[flip, ::-1]  # and either orientation
    p = Permutation.random(g.n, rng)
    save_graph(g, tmp_path / "g.txt")
    built = [
        Graph(g.n, g.adjacency),
        Graph(g.n, edges=edges, name="other"),
        from_edge_list(g.n, edges.tolist()),
        apply_permutation(apply_permutation(g, p), p.inverse()),
        load_graph(tmp_path / "g.txt"),
    ]
    for h in built:
        assert h == g and hash(h) == hash(g)
        for a, b in zip(h.edge_index, g.edge_index):
            assert a.dtype == np.int64 and not a.flags.writeable
            np.testing.assert_array_equal(a, b)
    empty = Graph(3, edges=np.empty((0, 2), dtype=int))
    assert empty == Graph(3, np.zeros((3, 3))) != Graph(3, edges=[(0, 1)])


@pytest.mark.parametrize("n, p", [(1, 0.5), (7, 0.5), (300, 8 / 300), (1100, 0.01), (50, 1.0)])
def test_erdos_renyi_keeps_the_dense_draw(n, p):
    # row blocks of the draw: the same graph, and the generator left in the same state
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    upper = np.triu(ref.random((n, n)) < p, k=1)
    assert erdos_renyi(n, p, rng) == Graph(n, (upper | upper.T).astype(np.float64))
    assert rng.random() == ref.random()


def test_graph_keeps_no_dense_input(float64_builds):
    a = erdos_renyi(30, 0.3, np.random.default_rng(107)).adjacency.copy()
    g = Graph(30, a)
    assert len(float64_builds) == 1  # a's source: the constructor builds nothing dense
    s, t = g.adjacency, g.adjacency  # built from the index on every read, never kept
    assert float64_builds[1:] == [g, g] and set(vars(g)) == {"n", "edge_index", "name"}
    assert s is not t and s is not a and not (s.flags.writeable or t.flags.writeable)
    np.testing.assert_array_equal(s, a)
    np.testing.assert_array_equal(t, a)
