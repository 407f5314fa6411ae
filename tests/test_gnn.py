from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectrawl import (
    FilterParams,
    Graph,
    LINEAR,
    Nonlinearity,
    Permutation,
    RELU,
    StochasticConfig,
    apply_permutation,
    closed_walk_count,
    constant_input_response,
    corpus,
    corpus_graph,
    diag_powers,
    diagonal_module,
    eigendecompose,
    eigenspace,
    erdos_renyi,
    frequency_response,
    from_edge_list,
    gnn_layer,
    graph_filter,
    isolating_filter,
    self_convolve,
    spectral_diagonal_module,
    stochastic_variance,
)
from spectrawl import gnn, graphs
from spectrawl.discriminate import PAIR_FILTER, csl_base_graph
from spectrawl.gnn import DimensionMismatchError
from spectrawl.graphs import TooLargeError

from conftest import half_power_diag_powers, random_graph_pairs, traced_peak


def test_nonlinearities():
    x = np.array([-2.0, 0.0, 3.0])
    np.testing.assert_array_equal(RELU(x), [0.0, 0.0, 3.0])
    np.testing.assert_array_equal(LINEAR(x), x)
    np.testing.assert_array_equal(Nonlinearity("square")(x), [4.0, 0.0, 9.0])
    leaky = Nonlinearity("leaky_relu")
    np.testing.assert_allclose(leaky(x), [-0.02, 0.0, 3.0])
    with pytest.raises(ValueError):
        Nonlinearity("tanh")


def test_filter_params_validation():
    with pytest.raises(ValueError):
        FilterParams(())
    with pytest.raises(ValueError):
        FilterParams((1.0, np.inf))


@pytest.mark.parametrize("coeffs", [[[1]], ("x",), (1j,), 5])
def test_filter_params_rejects_non_real_coefficients(coeffs):
    with pytest.raises(ValueError, match="filter"):
        FilterParams(coeffs)


def test_graph_filter_identity(prism):
    x = np.arange(6, dtype=float)
    np.testing.assert_array_equal(graph_filter(prism, FilterParams((1.0,)), x), x)


def test_graph_filter_degree(prism):
    z = graph_filter(prism, FilterParams((0.0, 1.0)), np.ones(6))
    np.testing.assert_array_equal(z, np.full(6, 3.0))


def test_graph_filter_two_hops():
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    z = graph_filter(p3, FilterParams((0.0, 0.0, 1.0)), np.array([1.0, 0.0, 0.0]))
    np.testing.assert_array_equal(z, [1.0, 0.0, 1.0])


def test_graph_filter_dimension_mismatch(prism):
    with pytest.raises(DimensionMismatchError):
        graph_filter(prism, FilterParams((1.0,)), np.ones(5))


def test_gnn_layer_identity(prism):
    x = np.arange(12, dtype=float).reshape(6, 2)
    np.testing.assert_array_equal(gnn_layer(prism, x, [np.eye(2)], LINEAR), x)


def test_gnn_layer_two_taps(prism):
    y = gnn_layer(prism, np.ones((6, 1)), [np.eye(1), np.eye(1)], LINEAR)
    np.testing.assert_array_equal(y, np.full((6, 1), 4.0))


@pytest.mark.parametrize(
    "x, taps, message",
    [
        (np.ones((5, 1)), [np.eye(1)], "5 rows, graph has 6 nodes"),
        (np.ones((6, 1)), [], "at least one tap"),
        (np.ones((6, 2)), [np.eye(2), np.ones((2, 1))], "share one shape"),
        (np.ones((6, 2)), [np.eye(3)], "expects 3 input features, got 2"),
        (np.ones(6), [np.eye(2)], "expects 2 input features, got 1"),
    ],
    ids=["rows", "no-taps", "unequal-taps", "tap-width", "vector-is-one-column"],
)
def test_gnn_layer_rejects_mismatched_shapes(prism, x, taps, message):
    with pytest.raises(DimensionMismatchError, match=message):
        gnn_layer(prism, x, taps)


def test_gnn_layer_relu_pair_recovers_signed_input(prism):
    # two relu neurons with opposite signs; their difference is the identity
    x = np.array([[1.0], [-2.0], [0.5], [-0.25], [3.0], [0.0]])
    y = gnn_layer(prism, x, [np.array([[1.0, -1.0]])], RELU)
    np.testing.assert_array_equal(y[:, :1] - y[:, 1:], x)


def test_diag_powers_low_columns(prism, k33):
    for g in (prism, k33):
        x = diag_powers(g, 4)
        np.testing.assert_array_equal(x[:, 0], np.ones(g.n))
        np.testing.assert_array_equal(x[:, 1], np.zeros(g.n))
        np.testing.assert_array_equal(x[:, 2], g.degrees)
    np.testing.assert_array_equal(diag_powers(k33, 4)[:, 3], np.zeros(6))
    np.testing.assert_array_equal(diag_powers(prism, 4)[:, 3], np.full(6, 2.0))


def test_diag_powers_prism_row():
    x = diag_powers(corpus_graph("prism"), 6)
    np.testing.assert_array_equal(x[0], [1.0, 0.0, 3.0, 2.0, 19.0, 30.0])


def test_closed_walk_examples(prism, k33):
    k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    assert closed_walk_count(k3, 0, 3) == 2
    assert closed_walk_count(prism, 0, 4) == 19
    for v in range(6):
        for k in (1, 3, 5):
            assert closed_walk_count(k33, v, k) == 0


def test_closed_walk_rejects_a_node_out_of_range(prism):
    with pytest.raises(ValueError, match="node 6 out of range"):
        closed_walk_count(prism, 6, 2)


def test_closed_walk_bounds():
    big = erdos_renyi(13, 0.2, np.random.default_rng(0))
    with pytest.raises(TooLargeError):
        closed_walk_count(big, 0, 2)
    small = from_edge_list(3, [(0, 1)])
    with pytest.raises(TooLargeError):
        closed_walk_count(small, 0, 9)


def test_diag_powers_match_walk_oracle_small():
    rng = np.random.default_rng(41)
    graphs = [e.graph for e in corpus()] + [
        erdos_renyi(int(rng.integers(3, 9)), 0.35, rng) for _ in range(10)
    ]
    for g in graphs:
        x = diag_powers(g, 7)
        for v in range(g.n):
            for k in range(7):
                assert x[v, k] == closed_walk_count(g, v, k)


def _sequential_diag_powers(g, depth):
    """Reference ladder: diag of S^0, S^1, ... by one product per power."""
    out = np.empty((g.n, depth))
    p = np.eye(g.n)
    for k in range(depth):
        out[:, k] = np.diag(p)
        p = p @ g.adjacency
    return out


def _circulant_1_to_4():
    """Circulant on 300 nodes with jumps 1-4: 2m 40 > n^2, so it takes the dense
    plan, and its walk counts through depth 16 stay below 2^41."""
    return from_edge_list(300, [(i, (i + d) % 300) for i in range(300) for d in (1, 2, 3, 4)])


def test_diag_powers_half_power_ladder_is_exact():
    # integer walk counts below 2^53 are exact in any summation order
    rng = np.random.default_rng(43)
    graphs = [e.graph for e in corpus()] + [erdos_renyi(n, 8 / n, rng) for n in (50, 300)]
    circulant = _circulant_1_to_4()
    assert not gnn._is_sparse(circulant)
    for g in graphs + [circulant]:
        ref = _sequential_diag_powers(g, 16)
        for depth in range(1, 17):
            np.testing.assert_array_equal(diag_powers(g, depth), ref[:, :depth])


def test_diag_powers_half_power_ladder_past_2_53():
    # dense counts pass 2^53 and are rounded; only the rounding may differ
    g = erdos_renyi(200, 0.5, np.random.default_rng(47))
    ref = _sequential_diag_powers(g, 11)
    assert ref.max() > 2.0**53
    np.testing.assert_allclose(diag_powers(g, 11), ref, rtol=1e-13, atol=0)


class _LoggedPower(np.ndarray):
    """A matrix that logs each matrix product formed from it, and from its products."""

    def __matmul__(self, other):
        out = super().__matmul__(other)
        if self.ndim == other.ndim == 2:
            # numpy hands P @ P.T, a transposed view of one buffer, to syrk
            squaring = np.shares_memory(self, other) and other.strides == self.strides[::-1]
            self.log.append((np.array(out), squaring))
        return out

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)


def _log_products(monkeypatch) -> list:
    """Make the S that the dense plan builds per call a _LoggedPower; returns its log."""
    log = []

    def dense(g, dtype):
        s = graphs._dense(g, dtype).view(_LoggedPower)
        s.log = log
        return s

    monkeypatch.setattr(gnn, "_dense", dense)
    return log


def _bare(g):
    """An object with g's n, num_edges and edge_index, and no adjacency."""
    return SimpleNamespace(n=g.n, num_edges=g.num_edges, edge_index=g.edge_index)


def _logged_ladder(monkeypatch, g, depth):
    """diag_powers(g, depth) and its products as (exponent, squaring, rows)."""
    log = _log_products(monkeypatch)
    x = diag_powers(_bare(g), depth)
    powers = [np.linalg.matrix_power(g.adjacency, k) for k in range(depth)]

    def exponent(p):
        return next(k for k in range(depth) if np.array_equal(p, powers[k][: len(p)]))

    return x, [(exponent(p), squaring, len(p)) for p, squaring in log]


def test_diag_powers_forms_squares_then_a_chain(monkeypatch):
    g = erdos_renyi(40, 0.1, np.random.default_rng(3))
    plans = {}
    for d in (3, 5, 6, 7, 10, 13):
        plans[d] = sorted({(e, sq) for e, sq, _ in _logged_ladder(monkeypatch, g, d)[1]})
    # (exponent, formed by squaring): below depth 8 the chain runs from S^2
    assert plans == {
        3: [],
        5: [(2, True)],
        6: [(2, True), (3, False)],
        7: [(2, True), (3, False)],
        10: [(2, True), (4, True), (5, False)],
        13: [(2, True), (4, True), (5, False), (6, False)],
    }


def test_diag_powers_covers_every_depth_at_no_more_cost(monkeypatch):
    # two disjoint cycles: walk counts stay below 2^41, so every entry is exact
    cycles = [(i, (i + 1) % 5) for i in range(5)] + [(5 + i, 5 + (i + 1) % 7) for i in range(7)]
    g = from_edge_list(12, cycles)
    ref = _sequential_diag_powers(g, 41)
    for depth in range(1, 42):
        x, log = _logged_ladder(monkeypatch, g, depth)
        np.testing.assert_array_equal(x, ref[:, :depth])
        # n^3 units: syrk 1, general product 2; a ladder of one general
        # product per power forms S^2..S^h with h = ceil((depth - 1) / 2)
        cost = sum((1 if squaring else 2) * rows / g.n for _, squaring, rows in log)
        assert cost <= 2 * max(0, depth // 2 - 1), depth


@pytest.mark.parametrize("depth", [6, 10, 16])
def test_diag_powers_holds_two_powers_besides_s(depth):
    g = erdos_renyi(600, 8 / 600, np.random.default_rng(5))
    x, peak = traced_peak(lambda: diag_powers(g, depth))
    np.testing.assert_array_equal(x, half_power_diag_powers(g, depth))
    # two n x n powers, the result, and 256 rows of n for the blocks of
    # float32 rows widened to float64 (two blocks of _CHUNK_VALUES values)
    assert peak <= 8 * (2 * g.n**2 + 256 * g.n + depth * g.n) + 65536


@pytest.mark.parametrize("depth", [5, 7, 8, 10, 16])
def test_diag_powers_dense_plan_holds_three_powers_from_depth_8(float64_builds, depth):
    g = _circulant_1_to_4()
    x, peak = traced_peak(lambda: diag_powers(g, depth))
    assert float64_builds == []  # S is built per call as float32, and counted here
    np.testing.assert_array_equal(x, half_power_diag_powers(g, depth))
    if depth >= 8:
        # S, S^2, S^4 and S^5 at once, the result and any widened blocks: no
        # more than the float64 S and three float64 powers held before
        assert peak <= 8 * (4 * g.n**2 + depth * g.n) + 65536
    else:
        # S, S^2 and S^3 as float32, and the result
        assert peak <= 4 * 3 * g.n**2 + 8 * depth * g.n + 65536


@pytest.mark.parametrize("n", [256, 257])
def test_diag_powers_straddle_the_float32_bound_on_complete_graphs(n):
    # Delta = n - 1 = 255, 256 straddle Delta^3 < 2^24: there column 4's row
    # dot leaves float32 and, from depth 8, so does S^4
    g = from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    assert gnn._exact_columns(16, n - 1, 2**24) == (5 if n == 256 else 4)
    ref = half_power_diag_powers(g, 16)
    for depth in range(1, 17):
        x = diag_powers(g, depth)
        np.testing.assert_array_equal(x, ref[:, :depth])
        for k in range(depth):
            walks = ((n - 1) ** k + (n - 1) * (-1) ** k) // n  # closed k-walks at a node of K_n
            if walks < 2**53:
                assert np.all(x[:, k] == walks), (depth, k)


@pytest.mark.parametrize("depth", [2.5, True, "3", None])
def test_diag_powers_rejects_a_non_integer_depth(prism, depth):
    with pytest.raises(ValueError, match="depth"):
        diag_powers(prism, depth)


def _gather_cases():
    """Sparse graphs with isolated nodes, a hub of degree n - 1 and two components, and relabeled copies.

    Sizes straddle the 32-row chunks of the gather plan; every walk count up
    to depth 16 stays below 2^53.
    """
    rng = np.random.default_rng(67)
    a = np.zeros((75, 75))
    a[:70, :70] = erdos_renyi(70, 0.06, rng).adjacency  # 5 isolated nodes, maybe more
    hub = erdos_renyi(60, 0.04, rng).adjacency.copy()
    hub[0, 1:] = hub[1:, 0] = 1.0
    two = np.zeros((90, 90))
    two[:50, :50] = erdos_renyi(50, 0.08, rng).adjacency
    two[50:, 50:] = erdos_renyi(40, 0.1, rng).adjacency
    graphs = [Graph(75, a), Graph(60, hub), Graph(90, two), erdos_renyi(300, 8 / 300, rng)]
    return graphs + [apply_permutation(g, Permutation.random(g.n, rng)) for g in graphs]


def test_diag_powers_gather_plan_is_exact(monkeypatch):
    monkeypatch.setattr(gnn, "_SPARSE_DENSITY", 0)  # every graph takes the gather plan
    for g in _gather_cases():
        ref = _sequential_diag_powers(g, 16)
        assert ref.max() < 2.0**53
        for depth in range(1, 17):
            np.testing.assert_array_equal(diag_powers(g, depth), ref[:, :depth])


def _star(leaves):
    return from_edge_list(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def test_wedge_square_counts_s_squared_exactly():
    # every entry of S^2 is at most the maximum degree Delta: a hub of degree
    # 255 fits uint8, one of degree 256 takes uint16
    stars = [_star(255), _star(256), _star_plus_path(256), _star_plus_path(257)]
    for g in _gather_cases() + [Graph(7, np.zeros((7, 7)))] + stars:
        s2 = gnn._wedge_square(g)
        delta = int(np.diff(g.edge_index[0]).max(initial=0))
        assert s2.dtype == np.min_scalar_type(delta)
        np.testing.assert_array_equal(s2, g.adjacency @ g.adjacency)
    assert [gnn._wedge_square(g).dtype for g in stars] == [np.uint8, np.uint16, np.uint8, np.uint16]


def test_depth_10_gathers_widen_an_integer_s_squared(count_calls):
    # a hub of degree 299: S^2 is uint16, S^3 (entries up to 299^2) is
    # gathered from it in float32, and from S^4 the chain is float64
    g = _star_plus_path(300)
    assert gnn._is_sparse(g)
    products = count_calls(gnn, "_gather_product")
    ref = half_power_diag_powers(g, 10)
    assert ref.max() < 2.0**53
    np.testing.assert_array_equal(diag_powers(g, 10), ref)
    assert [(args[1].dtype, args[2]) for args in products[:2]] == [(np.uint16, np.float32), (np.float32, np.float64)]


def _star_plus_path(n=600):
    """A hub joined to every other node, which also form a path: sparse, with maximum degree n - 1."""
    return from_edge_list(n, [(0, i) for i in range(1, n)] + [(i, i + 1) for i in range(1, n - 1)])


@pytest.mark.parametrize("g", [erdos_renyi(600, 8 / 600, np.random.default_rng(5)), _star_plus_path()])
def test_wedge_square_and_depth_6_hold_one_float32_power(g):
    g.edge_index  # cached with the graph, not counted here
    # S^2 counts into the narrowest type that holds the maximum degree:
    # uint8 on G(600, 8/600), uint16 on the hub of degree 599
    itemsize = np.min_scalar_type(int(np.diff(g.edge_index[0]).max())).itemsize
    for build in (gnn._wedge_square, lambda g: diag_powers(g, 6)):
        _, peak = traced_peak(lambda: build(g))
        # S^2, the depth-6 result, and three blocks of _CHUNK_VALUES float64
        # values: one block's counts and wedge lists, or a block of edge
        # rows from each end, widened
        assert peak <= itemsize * g.n**2 + 8 * 6 * g.n + 3 * 8 * gnn._CHUNK_VALUES


def test_depth_6_reads_column_5_from_edge_dots(monkeypatch, count_calls):
    # depth 7 still forms S^3 by gathers, and reads column 5 off it
    monkeypatch.setattr(gnn, "_SPARSE_DENSITY", 0)  # every graph takes the gather plan
    slots = count_calls(gnn, "_gather_slots")
    edge_dots = count_calls(gnn, "_edge_dots")
    hub = _star_plus_path()
    for g in _gather_cases() + [Graph(7, np.zeros((7, 7))), hub]:
        del slots[:], edge_dots[:]
        six = diag_powers(g, 6)
        assert slots == []
        # Delta^4 >= 2^24 only on the hub of degree 599: its dots widen to float64
        assert [args[3] for args in edge_dots] == [np.float64 if g is hub else np.float32]
        np.testing.assert_array_equal(six, diag_powers(g, 7)[:, :6])
        assert len(slots) == 1


def test_exact_columns_stop_where_the_bound_reaches_the_limit():
    # (depth, Delta, limit, n): the first k with n Delta^(k-1) >= limit, else depth
    cases = [(10, 255, 2**24, 1, 5), (10, 256, 2**24, 1, 4), (4, 255, 2**24, 1, 4),
             (10, 0, 2**24, 1, 10), (16, 32, 2**53, 300, 10), (16, 32, 2**53, 2**53, 1)]
    for depth, delta, limit, n, first in cases:
        assert gnn._exact_columns(depth, delta, limit, n) == first, (depth, delta, limit, n)


def test_gather_chain_switches_to_float64_past_2_24(monkeypatch, count_calls):
    # star K_{1,257}: diag(S^6) at the hub is 257^3 = 16974593, odd and past 2^24,
    # so float32 cannot hold it; every count through depth 13 is below 2^53
    h = 257
    g = from_edge_list(h + 1, [(0, i) for i in range(1, h + 1)])
    monkeypatch.setattr(gnn, "_SPARSE_DENSITY", 0)
    products = count_calls(gnn, "_gather_product")
    s, p = g.adjacency.astype(np.int64), np.eye(g.n, dtype=np.int64)
    ref = np.empty((g.n, 13), dtype=np.int64)
    for k in range(13):
        ref[:, k] = np.diag(p)
        p = p @ s
    assert ref[0, 6] == h**3 > 2**24 and ref.max() < 2**53
    for depth in range(1, 14):
        np.testing.assert_array_equal(diag_powers(g, depth), ref[:, :depth])
    # S^3 (entries up to 257^2) is float32; from S^4 (bound 257^3) the chain is float64
    assert [args[2] for args in products[-4:]] == [np.float32, np.float64, np.float64, np.float64]


def test_diag_powers_sparse_plan_never_reads_adjacency(monkeypatch):
    monkeypatch.setattr(gnn, "_SPARSE_DENSITY", 0)  # every graph takes the gather plan
    for g in _gather_cases():
        for depth in range(1, 17):
            np.testing.assert_array_equal(diag_powers(_bare(g), depth), diag_powers(g, depth))


def _blas_products(monkeypatch, g, depth):
    """(formed by squaring, rows) of each BLAS product diag_powers forms, on an object with no adjacency."""
    log = _log_products(monkeypatch)
    x = diag_powers(_bare(g), depth)
    products = [(squaring, len(p)) for p, squaring in log]
    np.testing.assert_array_equal(x, diag_powers(g, depth))
    return products


def test_diag_powers_plan_follows_density(monkeypatch):
    sparse = erdos_renyi(600, 8 / 600, np.random.default_rng(5))  # as in the memory test
    # the sparse plan counts S^2 from wedges and forms every other power by gathers
    for depth in (10, 16):
        assert _blas_products(monkeypatch, sparse, depth) == []
    for dense in (erdos_renyi(200, 0.5, np.random.default_rng(71)), csl_base_graph(41, 5)):
        n = dense.n
        # no adjacency on the object: the dense plan builds its S from the edge index
        assert _blas_products(monkeypatch, dense, 6) == [(True, n), (False, n)]
        assert _blas_products(monkeypatch, dense, 10) == [(True, n), (True, n), (False, n)]
        assert _blas_products(monkeypatch, dense, 13) == [(True, n), (True, n), (False, n), (False, n)]


def test_sparse_plan_builds_no_adjacency(float64_builds):
    g = erdos_renyi(500, 6 / 500, np.random.default_rng(79))
    assert gnn._is_sparse(g)
    ladders = [diag_powers(g, depth) for depth in range(1, 17)]
    assert float64_builds == []  # the plan choice and every stage read the edge index
    ref = half_power_diag_powers(g, 16)
    for x in ladders:
        np.testing.assert_array_equal(x, ref[:, : x.shape[1]])


def test_diag_powers_gather_plan_builds_one_slot_table(count_calls):
    g = erdos_renyi(700, 6 / 700, np.random.default_rng(73))
    calls = count_calls(gnn, "_gather_slots")
    np.testing.assert_array_equal(diag_powers(g, 16), half_power_diag_powers(g, 16))
    assert len(calls) == 1
    diag_powers(erdos_renyi(100, 0.3, np.random.default_rng(73)), 16)
    assert len(calls) == 1


def test_diagonal_module_reference_outputs(prism, k33, bihexagon, bipentagon):
    np.testing.assert_allclose(
        diagonal_module(prism, PAIR_FILTER, RELU), 10 + 25 / 60, atol=1e-12
    )
    np.testing.assert_allclose(diagonal_module(k33, PAIR_FILTER, RELU), 1.75, atol=1e-12)
    np.testing.assert_allclose(
        diagonal_module(bihexagon, PAIR_FILTER, RELU),
        [7.5, 7.5, 7.25, 7.25, 5.25, 5.25, 7.25, 7.25, 7.5, 7.5],
        atol=1e-12,
    )
    np.testing.assert_allclose(
        diagonal_module(bipentagon, PAIR_FILTER, RELU),
        [7.9, 7.9, 7.65, 7.65, 5.65, 5.65, 7.65, 7.65, 7.9, 7.9],
        atol=1e-12,
    )


def test_diagonal_module_relu_clips(prism):
    np.testing.assert_array_equal(diagonal_module(prism, FilterParams((-1.0,)), RELU), 0.0)


def test_spectral_diagonal_module_matches_spatial():
    rng = np.random.default_rng(7)
    graphs = [e.graph for e in corpus()] + [
        erdos_renyi(int(rng.integers(3, 10)), 0.4, rng) for _ in range(10)
    ]
    for g in graphs:
        spatial = diagonal_module(g, PAIR_FILTER, LINEAR)
        spectral = spectral_diagonal_module(eigendecompose(g), PAIR_FILTER)
        np.testing.assert_allclose(spectral, spatial, atol=1e-8)


def test_spectral_diagonal_module_unit_filter(prism):
    np.testing.assert_allclose(
        spectral_diagonal_module(eigendecompose(prism), FilterParams((1.0,))),
        np.ones(6),
        atol=1e-10,
    )


def test_spectral_diagonal_module_isolating_filter(prism):
    s = eigendecompose(prism)
    mus = [grp.value for grp in s.groups]
    h = isolating_filter(mus, 0)
    space = eigenspace(s, mus[0])
    np.testing.assert_allclose(
        spectral_diagonal_module(s, h), np.diag(space.projector()), atol=1e-9
    )


def test_trace_equals_multiplicity_on_corpus():
    for entry in corpus():
        s = eigendecompose(entry.graph)
        mus = [grp.value for grp in s.groups]
        for target, grp in enumerate(s.groups):
            h = isolating_filter(mus, target)
            y = diagonal_module(entry.graph, h, LINEAR)
            assert y.sum() == pytest.approx(grp.multiplicity, abs=1e-6)


def test_constant_input_response_blind_on_example_pairs(prism, k33, bihexagon, bipentagon):
    np.testing.assert_allclose(
        constant_input_response(prism, PAIR_FILTER, RELU),
        constant_input_response(k33, PAIR_FILTER, RELU),
        atol=1e-12,
    )
    h = FilterParams((0.0, 1.0, 0.0, 1.0))
    np.testing.assert_allclose(
        np.sort(constant_input_response(bihexagon, h, LINEAR)),
        np.sort(constant_input_response(bipentagon, h, LINEAR)),
        atol=1e-12,
    )


def test_constant_input_response_unit(prism):
    np.testing.assert_array_equal(
        constant_input_response(prism, FilterParams((1.0,)), LINEAR), np.ones(6)
    )


def test_self_convolve_examples():
    assert self_convolve(FilterParams((1.0, 1.0))).coeffs == (1.0, 2.0, 1.0)
    assert self_convolve(FilterParams((3.0,))).coeffs == (9.0,)
    assert len(self_convolve(PAIR_FILTER)) == 11


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-2, 2, allow_nan=False), min_size=1, max_size=6),
    st.floats(0.1, 4.0),
)
def test_self_convolve_frequency_identity(coeffs, variance):
    h = FilterParams(tuple(coeffs))
    hh = self_convolve(h, variance)
    for lam in np.linspace(-3, 3, 10):
        expected = variance * frequency_response(h, lam) ** 2
        assert frequency_response(hh, lam) == pytest.approx(expected, abs=1e-9 * max(1, abs(expected)))


def test_stochastic_variance_unit_filter(prism):
    cfg = StochasticConfig(variance=2.0, samples=50_000, seed=5, distribution="gaussian")
    estimate, stderr = stochastic_variance(prism, FilterParams((1.0,)), cfg)
    assert np.all(np.abs(estimate - 2.0) <= 4 * stderr)
    # rademacher inputs with the identity filter have constant square
    cfg = StochasticConfig(variance=2.0, samples=1_000, seed=5, distribution="rademacher")
    estimate, stderr = stochastic_variance(prism, FilterParams((1.0,)), cfg)
    np.testing.assert_allclose(estimate, 2.0, atol=1e-12)
    np.testing.assert_allclose(stderr, 0.0, atol=1e-12)


def test_stochastic_variance_deterministic(prism):
    cfg = StochasticConfig(samples=30_000, seed=123)
    first = stochastic_variance(prism, PAIR_FILTER, cfg)
    second = stochastic_variance(prism, PAIR_FILTER, cfg)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_stochastic_variance_matches_closed_form(prism, bihexagon):
    cases = [
        (prism, StochasticConfig(samples=200_000, seed=0)),
        (bihexagon, StochasticConfig(variance=2.0, samples=50_000, seed=9, distribution="rademacher")),
        (csl_base_graph(41, 5), StochasticConfig(variance=2.0, samples=50_000, seed=9, distribution="rademacher")),
    ]
    for g, cfg in cases:
        closed = diagonal_module(g, self_convolve(PAIR_FILTER, cfg.variance), LINEAR)
        estimate, stderr = stochastic_variance(g, PAIR_FILTER, cfg)
        assert np.all(np.abs(estimate - closed) <= 4 * stderr)


def _horner_variance(g, h, cfg):
    """stochastic_variance's estimate and stderr from one block of the same
    SFC64 stream, filtered by graph_filter's Horner nesting, with a two-pass
    sample variance."""
    rng = np.random.Generator(np.random.SFC64(cfg.seed))
    shape = (cfg.samples, g.n)
    if cfg.distribution == "gaussian":
        x = rng.standard_normal(shape)
    else:
        # value t = j n + i is bit 63 - t mod 64 of raw word t // 64
        words = rng.bit_generator.random_raw(-(-cfg.samples * g.n // 64))
        t = np.arange(cfg.samples * g.n)
        bits = (words[t // 64] >> (63 - t % 64).astype(np.uint64)) & np.uint64(1)
        x = (bits.astype(np.float64) * 2 - 1).reshape(shape)
    z2 = graph_filter(g, h, np.sqrt(cfg.variance) * x.T) ** 2
    return z2.mean(axis=1), np.sqrt(np.var(z2, axis=1, ddof=1) / cfg.samples)


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
@pytest.mark.parametrize("h", [PAIR_FILTER, FilterParams((1.0,))], ids=["pair", "one-tap"])
@pytest.mark.parametrize("name", ["prism", "csl-5"])
def test_stochastic_variance_matches_horner_path(name, h, distribution):
    g = corpus_graph(name) if name == "prism" else csl_base_graph(41, 5)
    # three full sample blocks and a partial one
    samples = 3 * gnn._block_samples(g.n, 10**9) + 7
    cfg = StochasticConfig(variance=2.0, samples=samples, seed=17, distribution=distribution)
    estimate, stderr = stochastic_variance(g, h, cfg)
    ref_estimate, ref_stderr = _horner_variance(g, h, cfg)
    np.testing.assert_allclose(estimate, ref_estimate, rtol=1e-12, atol=0)
    np.testing.assert_allclose(stderr, ref_stderr, rtol=1e-12, atol=0)


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
@pytest.mark.parametrize("chunk_values", [1 << 9, 1 << 14])
def test_stochastic_variance_stream_position_ignores_block_length(monkeypatch, chunk_values, distribution):
    # entry (node i, sample j) is value j n + i of the stream for any block length
    g = csl_base_graph(41, 5)
    cfg = StochasticConfig(variance=2.0, samples=1000, seed=11, distribution=distribution)
    monkeypatch.setattr(gnn, "_CHUNK_VALUES", chunk_values)
    assert gnn._block_samples(g.n, cfg.samples) < cfg.samples
    estimate, stderr = stochastic_variance(g, PAIR_FILTER, cfg)
    ref_estimate, ref_stderr = _horner_variance(g, PAIR_FILTER, cfg)
    np.testing.assert_allclose(estimate, ref_estimate, rtol=1e-12, atol=0)
    np.testing.assert_allclose(stderr, ref_stderr, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "name, coeff",
    [("prism", 0.3), ("prism", 0.7), ("csl-5", 0.3)],
)
def test_stochastic_stderr_is_stable_when_z2_is_constant(name, coeff):
    # a one-tap filter on rademacher input makes every z^2 the same number,
    # so the true standard error is 0; a one-pass variance cancels to ~1e-9
    g = corpus_graph(name) if name == "prism" else csl_base_graph(41, 5)
    cfg = StochasticConfig(variance=2.0, samples=32773, seed=5, distribution="rademacher")
    estimate, stderr = stochastic_variance(g, FilterParams((coeff,)), cfg)
    np.testing.assert_allclose(estimate, 2.0 * coeff**2, rtol=1e-12)
    assert np.all(stderr <= 1e-14 * estimate)


def test_stochastic_variance_one_sample_has_infinite_stderr(prism):
    _, stderr = stochastic_variance(prism, PAIR_FILTER, StochasticConfig(samples=1))
    assert np.all(np.isinf(stderr))


@pytest.mark.parametrize("distribution", ["gaussian", "rademacher"])
def test_stochastic_variance_reuses_its_blocks(distribution):
    g = csl_base_graph(41, 5)
    block = 8 * gnn._CHUNK_VALUES
    peaks = {}
    for samples in (64, 10**4, 10**5):  # the first call warms up lazy imports
        cfg = StochasticConfig(samples=samples, seed=1, distribution=distribution)
        peaks[samples] = traced_peak(lambda: stochastic_variance(g, PAIR_FILTER, cfg))[1]
    assert abs(peaks[10**5] - peaks[10**4]) <= block
    # the input and output blocks, an eighth of a block of sign bits, and H
    # with its Horner temporaries
    assert peaks[10**5] <= 2.5 * block + 4 * 8 * g.n**2


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("variance", {"variance": float("nan")}),
        ("variance", {"variance": float("inf")}),
        ("variance", {"variance": 0.0}),
        ("samples", {"samples": 2.5}),
        ("samples", {"samples": 0}),
        ("seed", {"seed": 1.5}),
        ("seed", {"seed": -1}),
        ("seed", {"seed": True}),
        ("variance", {"variance": True}),
        ("variance", {"variance": "1"}),
        ("variance", {"variance": [1]}),
        ("samples", {"samples": True}),
        ("distribution", {"distribution": "uniform"}),
    ],
)
def test_stochastic_config_rejects_bad_fields(field, kwargs):
    with pytest.raises(ValueError, match=field):
        StochasticConfig(**kwargs)


def test_stochastic_stderr_scales_with_samples(prism):
    _, se_m = stochastic_variance(prism, PAIR_FILTER, StochasticConfig(samples=40_000, seed=3))
    _, se_4m = stochastic_variance(prism, PAIR_FILTER, StochasticConfig(samples=160_000, seed=3))
    ratio = se_m / se_4m
    assert np.all(np.abs(ratio - 2.0) <= 0.4)


def test_gnn_layer_equivariance():
    rng = np.random.default_rng(31)
    for g, permuted, perm in random_graph_pairs(15, seed=31):
        x = rng.standard_normal((g.n, 3))
        taps = [rng.standard_normal((3, 2)) for _ in range(3)]
        q = np.asarray(perm.mapping)
        y = gnn_layer(g, x, taps, RELU)
        y_perm = gnn_layer(permuted, _permute_rows(x, q), taps, RELU)
        np.testing.assert_allclose(y_perm[q, :], y, atol=1e-12)


def _permute_rows(x, q):
    out = np.empty_like(x)
    out[q, :] = x
    return out


def test_diagonal_module_equivariance():
    for g, permuted, perm in random_graph_pairs(15, seed=37):
        q = np.asarray(perm.mapping)
        y = diagonal_module(g, PAIR_FILTER, RELU)
        y_perm = diagonal_module(permuted, PAIR_FILTER, RELU)
        np.testing.assert_array_equal(y_perm[q], y)
