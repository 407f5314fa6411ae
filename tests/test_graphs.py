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
from spectrawl.graphs import (
    DuplicateEdgeError,
    EdgeIndexError,
    GraphError,
    ParseError,
    SelfLoopError,
    SizeMismatchError,
    TooLargeError,
)

from conftest import random_graph_pairs


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


def test_load_missing_file():
    with pytest.raises(OSError):
        load_graph("/nonexistent/graph.txt")


def test_edge_index_is_cached_sorted_csr():
    g = erdos_renyi(40, 0.2, np.random.default_rng(59))
    indptr, indices = g.edge_index
    assert g.edge_index[0] is indptr and g.edge_index[1] is indices
    assert not indptr.flags.writeable and not indices.flags.writeable
    np.testing.assert_array_equal(np.diff(indptr), g.degrees)
    for v in range(g.n):
        np.testing.assert_array_equal(indices[indptr[v] : indptr[v + 1]], np.flatnonzero(g.adjacency[v]))


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
