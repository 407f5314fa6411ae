import dataclasses
import inspect
import runpy
from pathlib import Path

import numpy as np
import pytest

from spectrawl import (
    FilterParams,
    abs_eigvec_test,
    apply_permutation,
    check_separability_conditions,
    corpus,
    corpus_graph,
    diag_powers,
    discriminate_pair,
    eigendecompose,
    eigenspace,
    eigenvector_one_products,
    erdos_renyi,
    filter_matrix,
    frequency_response,
    from_edge_list,
    is_isomorphic_bruteforce,
    isolating_filter,
    spectra_differ,
)
from spectrawl import spectral, wl
from spectrawl.discriminate import PAIR_FILTER, PairConfig
from spectrawl.gnn import DimensionMismatchError
from spectrawl.spectral import (
    ConvergenceFailure,
    DegenerateNodesError,
    EigenGroup,
    NoSuchEigenvalueError,
    Spectrum,
)

from conftest import (
    bisect_find_group,
    full_refinement,
    loop_group_indices,
    loop_unmatched_groups,
    random_graph_pairs,
    tuple_rows_isomorphic,
)

SQRT6 = np.sqrt(6.0)


def test_eigendecompose_k2():
    k2 = from_edge_list(2, [(0, 1)])
    s = eigendecompose(k2)
    np.testing.assert_allclose(s.eigenvalues, [-1.0, 1.0], atol=1e-12)


def test_eigendecompose_prism_and_k33(prism, k33):
    np.testing.assert_allclose(
        eigendecompose(prism).eigenvalues, [-2, -2, 0, 0, 1, 3], atol=1e-9
    )
    np.testing.assert_allclose(
        eigendecompose(k33).eigenvalues, [-3, 0, 0, 0, 0, 3], atol=1e-9
    )


def _eigh_raises(s):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _eigh_shifted_values(s, eigh=np.linalg.eigh):
    w, u = eigh(s)
    return w + 0.1, u


def _eigh_duplicate_column(s, eigh=np.linalg.eigh):
    # columns 0 and 1 span prism's -2 eigenspace, so the residual stays small
    w, u = eigh(s)
    u[:, 1] = u[:, 0]
    return w, u


@pytest.mark.parametrize(
    "eigh, message",
    [
        (_eigh_raises, "did not converge"),
        (_eigh_shifted_values, "residual"),
        (_eigh_duplicate_column, "orthogonality"),
    ],
    ids=["linalg-error", "residual", "orthogonality"],
)
def test_eigendecompose_reports_a_failed_solve(prism, monkeypatch, eigh, message):
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    with pytest.raises(ConvergenceFailure, match=message):
        eigendecompose(prism)


def test_spectrum_invariants_on_corpus():
    for entry in corpus():
        g = entry.graph
        s = eigendecompose(g)
        a = g.adjacency
        assert not s.eigenvalues.flags.writeable and not s.eigenvectors.flags.writeable
        # residual and orthogonality
        resid = np.linalg.norm(a @ s.eigenvectors - s.eigenvectors * s.eigenvalues, axis=0)
        assert resid.max() <= 1e-9 * np.linalg.norm(a)
        assert np.max(np.abs(s.eigenvectors.T @ s.eigenvectors - np.eye(g.n))) <= 1e-9
        # reconstruction
        recon = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.T
        assert np.max(np.abs(recon - a)) <= 1e-8 * g.n
        # groups partition the index set, separated by more than the gap tol
        all_idx = sorted(i for grp in s.groups for i in grp.indices)
        assert all_idx == list(range(g.n))
        for grp in s.groups:
            vals = s.eigenvalues[list(grp.indices)]
            assert vals.max() - vals.min() <= 1e-6 * max(1.0, abs(s.eigenvalues).max())
        for g1, g2 in zip(s.groups, s.groups[1:]):
            assert g2.value - g1.value > 1e-6


def test_group_completeness_on_corpus():
    # rows of U have unit norm: projector diagonals sum to the ones vector
    for entry in corpus():
        s = eigendecompose(entry.graph)
        total = np.zeros(entry.graph.n)
        for grp in s.groups:
            basis = s.eigenvectors[:, list(grp.indices)]
            total += np.diag(basis @ basis.T)
        np.testing.assert_allclose(total, 1.0, atol=1e-8)


def test_spectrum_permutation_invariant():
    for g, permuted, _ in random_graph_pairs(10, seed=11):
        w1 = eigendecompose(g).eigenvalues
        w2 = eigendecompose(permuted).eigenvalues
        np.testing.assert_allclose(w1, w2, atol=1e-9)


def test_eigenvector_one_products_six_node_pair(prism, k33):
    for g in (prism, k33):
        products = np.sort(eigenvector_one_products(eigendecompose(g)))
        np.testing.assert_allclose(products[:-1], 0.0, atol=1e-9)
        assert abs(products[-1] - SQRT6) <= 1e-9


def test_eigenvector_one_products_bihexagon(bihexagon):
    s = eigendecompose(bihexagon)
    products = eigenvector_one_products(s)
    nonzero = {
        round(float(s.eigenvalues[i]), 3): round(float(products[i]), 3)
        for i in range(s.n)
        if products[i] > 1e-6
    }
    assert nonzero == {2.303: 3.048, 1.0: 0.816, -1.303: 0.210}


def _multiplicity(g, value, tol=1e-6):
    s = eigendecompose(g)
    grp = s.find_group(value, tol)
    return 0 if grp is None else grp.multiplicity


def test_spectra_differ_prism_k33(prism, k33):
    witness = spectra_differ(prism, k33)
    assert witness is not None
    assert _multiplicity(prism, witness) != _multiplicity(k33, witness)
    assert spectra_differ(eigendecompose(prism), eigendecompose(k33)) == witness
    assert spectra_differ(eigendecompose(prism), k33) == witness


def test_spectra_differ_ten_node_pair(bihexagon, bipentagon):
    witness = spectra_differ(bihexagon, bipentagon)
    assert witness is not None
    assert _multiplicity(bihexagon, witness) != _multiplicity(bipentagon, witness)
    assert spectra_differ(eigendecompose(bihexagon), eigendecompose(bipentagon)) == witness


def test_spectra_differ_isomorphic_none():
    for g, permuted, _ in random_graph_pairs(15, seed=3):
        assert spectra_differ(g, permuted) is None
        assert spectra_differ(eigendecompose(g), eigendecompose(permuted)) is None
        assert is_isomorphic_bruteforce(g, permuted)


def test_spectra_differ_size_mismatch_is_witness(prism):
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    assert spectra_differ(prism, p3) is not None
    assert spectra_differ(eigendecompose(prism), eigendecompose(p3)) == spectra_differ(prism, p3)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), True, "x", [1]])
def test_spectral_matching_rejects_bad_tolerance(prism, tol):
    # with no tolerance check, no group matches and a graph separates from itself
    with pytest.raises(ValueError, match="tolerance"):
        spectra_differ(prism, prism, tol)
    with pytest.raises(ValueError, match="tolerance"):
        check_separability_conditions(prism, prism, np.ones(6), np.ones(6) * 2, tol)
    with pytest.raises(ValueError, match="tolerance"):
        eigenspace(eigendecompose(prism), 3.0, tol)


def test_eigenspace_perron(prism):
    space = eigenspace(eigendecompose(prism), 3.0)
    assert space.basis.shape == (6, 1)
    np.testing.assert_allclose(np.abs(space.basis[:, 0]), 1 / SQRT6, atol=1e-9)


def test_eigenspace_degenerate(prism):
    space = eigenspace(eigendecompose(prism), -2.0)
    assert space.basis.shape == (6, 2)
    np.testing.assert_allclose(space.basis.T @ space.basis, np.eye(2), atol=1e-9)
    np.testing.assert_allclose(space.basis.T @ np.ones(6), 0.0, atol=1e-9)
    # span is invariant under the adjacency
    np.testing.assert_allclose(prism.adjacency @ space.basis, -2.0 * space.basis, atol=1e-9)


def test_eigenspace_missing(prism):
    with pytest.raises(NoSuchEigenvalueError):
        eigenspace(eigendecompose(prism), 7.0)


def test_find_group_nearest_within_tol():
    values = (-1.0, 0.0, 1.0, 2.0)
    groups = tuple(EigenGroup(v, (i,)) for i, v in enumerate(values))
    s = Spectrum(np.array(values), np.eye(4), groups)
    assert s.find_group(0.5, 0.6).value == 0.0  # tie: the lower group
    assert s.find_group(0.6, 0.6).value == 1.0
    assert s.find_group(-1.5, 0.6).value == -1.0  # below every group
    assert s.find_group(2.5, 0.6).value == 2.0  # above every group
    assert s.find_group(3.0, 0.6) is None
    for value in np.random.default_rng(0).uniform(-2.0, 3.0, 200):
        within = [g for g in groups if abs(g.value - value) <= 0.3]
        nearest = min(within, key=lambda g: abs(g.value - value), default=None)
        assert s.find_group(value, 0.3) is nearest


def _bits(groups):
    return [(grp.value.hex(), grp.indices) for grp in groups]


def _grid_values(rng, tol=0.25):
    """1..12 ascending values on a grid of tol / 2: gaps of exactly tol, ties at midpoints."""
    return np.sort(rng.integers(-12, 13, int(rng.integers(1, 13))) * (tol / 2))


def _grid_spectrum(rng, tol=0.25):
    w = _grid_values(rng, tol)
    return Spectrum(w, None, spectral._group_indices(w, tol))


def test_group_indices_match_the_loop():
    rng = np.random.default_rng(11)
    for _ in range(200):
        w = _grid_values(rng)
        assert _bits(spectral._group_indices(w, 0.25)) == _bits(loop_group_indices(w, 0.25))
    # clusters whose means round
    for _ in range(50):
        centers = np.repeat(rng.normal(size=6), rng.integers(1, 5, 6))
        w = np.sort(centers + rng.normal(scale=1e-8, size=len(centers)))
        assert _bits(spectral._group_indices(w, 1e-6)) == _bits(loop_group_indices(w, 1e-6))
    for g in (corpus_graph("prism"), corpus_graph("bihexagon"), erdos_renyi(60, 0.1, rng)):
        w = np.linalg.eigvalsh(g.adjacency)
        tol = spectral.default_group_tol(w)
        assert _bits(spectral._group_indices(w, tol)) == _bits(loop_group_indices(w, tol))


def _same_pairs(new, old):
    return len(new) == len(old) and all(a is c and b is d for (a, b), (c, d) in zip(new, old))


def test_group_lookups_match_the_bisect_loop():
    rng = np.random.default_rng(12)
    spectra = [_grid_spectrum(rng) for _ in range(80)]  # node counts differ between neighbors
    ties = mismatched = 0
    for a, b in zip(spectra, spectra[1:]):
        gv = b._group_values
        queries = np.concatenate([a._group_values, gv, (gv[:-1] + gv[1:]) / 2, gv - 0.25, gv + 0.25])
        for value in np.concatenate([queries, rng.uniform(-2.0, 2.0, 10)]):
            assert b.find_group(value, 0.25) is bisect_find_group(b, value, 0.25)
            dist = np.abs(gv - value)
            ties += int(np.count_nonzero(dist == dist.min()) == 2 and dist.min() <= 0.25)
        for tol in (0.125, 0.25, 0.5):
            old = list(loop_unmatched_groups(a, b, tol))
            assert _same_pairs(list(spectral._unmatched_groups(a, b, tol)), old)
            mismatched += sum(other is not None for _, other in old)
    # the cases the lookup must break the same way: midpoint ties, partners of another multiplicity
    assert ties > 0 and mismatched > 0


def test_row_multisets_match_the_tuple_sort():
    rng = np.random.default_rng(13)
    outcomes = []
    for _ in range(150):
        n, d = int(rng.integers(1, 9)), int(rng.integers(1, 4))
        base = rng.normal(size=(n, d))
        base[rng.random((n, d)) < 0.2] = -0.0
        base[rng.random((n, d)) < 0.1] = -1e-9  # rounds to -0.0
        y1 = base[rng.integers(0, n, n)]  # rows drawn with repeats
        zeros_flipped = np.where(y1 == 0.0, 0.0, y1)
        nudged = y1.copy()
        nudged[rng.integers(0, n), rng.integers(0, d)] += 1e-3
        for y2 in (y1[rng.permutation(n)], zeros_flipped, base[rng.integers(0, n, n)], nudged):
            same = spectral.embeddings_isomorphic(y1, y2)
            assert same == tuple_rows_isomorphic(y1, y2)
            outcomes.append(same)
    empty = np.ones((3, 0))
    assert spectral.embeddings_isomorphic(empty, empty) is tuple_rows_isomorphic(empty, empty) is True
    assert 0 < sum(outcomes) < len(outcomes)


def test_check_separability_conditions_all_ones_inconclusive(prism, k33):
    ones = np.ones((6, 1))
    report = check_separability_conditions(prism, k33, ones, ones)
    assert check_separability_conditions(eigendecompose(prism), eigendecompose(k33), ones, ones) == report
    assert report.verdict == "inconclusive"
    assert not report.cond1_signals_differ
    assert report.cond2_witness is None
    assert report.cond3_witness is None


def test_check_separability_conditions_walk_features_cond1(prism, k33, count_calls):
    compares = count_calls(spectral, "embeddings_isomorphic")
    x1, x2 = diag_powers(prism, 4), diag_powers(k33, 4)
    report = check_separability_conditions(prism, k33, x1, x2)
    assert len(compares) == 1  # condition 1 goes through the one row-multiset comparator
    assert check_separability_conditions(eigendecompose(prism), eigendecompose(k33), x1, x2) == report
    assert report.cond1_signals_differ
    assert report.verdict == "separable"


def test_check_separability_conditions_cond2():
    # exclusive eigenvalue whose eigenspace is visible to the all-ones signal
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    k3 = from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    ones = np.ones((3, 1))
    report = check_separability_conditions(p3, k3, ones, ones)
    assert check_separability_conditions(eigendecompose(p3), eigendecompose(k3), ones, ones) == report
    assert report.cond2_witness is not None
    assert report.verdict == "separable"


def test_check_separability_conditions_cond3():
    # shared eigenvalue 0 with multiplicities 4 vs 2; the all-ones signal has
    # weight on the part of the larger eigenspace outside the shared subspace
    g_empty = from_edge_list(4, [])
    g_edge = from_edge_list(4, [(0, 1)])
    ones = np.ones((4, 1))
    report = check_separability_conditions(g_empty, g_edge, ones, ones)
    assert check_separability_conditions(eigendecompose(g_empty), g_edge, ones, ones) == report
    assert not report.cond1_signals_differ
    assert report.cond2_witness is None
    value, m1, m2, w1, w2 = report.cond3_witness
    assert (abs(value), m1, m2) == (0.0, 4, 2)
    assert w1 == pytest.approx(np.sqrt(2.0))
    assert report.verdict == "separable"
    # swapped: the smaller eigenspace lies inside the larger one, so only the
    # second graph's side has directions outside the shared subspace
    swapped = check_separability_conditions(g_edge, g_empty, ones, ones)
    assert swapped.cond2_witness == pytest.approx((1.0, np.sqrt(2.0)))
    assert swapped.cond3_witness == pytest.approx((0.0, 2, 4, 0.0, np.sqrt(2.0)), abs=1e-12)
    assert swapped.cond3_witness[1:3] == (2, 4)


def test_check_separability_conditions_self_pair(prism):
    x = diag_powers(prism, 4)
    report = check_separability_conditions(prism, prism, x, x)
    assert check_separability_conditions(eigendecompose(prism), prism, x, x) == report
    assert report.verdict == "inconclusive"


def test_check_separability_conditions_dimension_mismatch(prism, k33):
    with pytest.raises(DimensionMismatchError):
        check_separability_conditions(prism, k33, np.ones((5, 1)), np.ones((6, 1)))
    with pytest.raises(DimensionMismatchError):
        check_separability_conditions(
            eigendecompose(prism), eigendecompose(k33), np.ones((5, 1)), np.ones((6, 1))
        )


def test_isolating_filter_two_values():
    h = isolating_filter([1.0, -1.0], 0)
    assert h.coeffs == (0.5, 0.5)


def test_isolating_filter_prism_values():
    mus = [3.0, 1.0, 0.0, -2.0]
    h = isolating_filter(mus, 0)
    np.testing.assert_allclose(h.coeffs, (0.0, -1 / 15, 1 / 30, 1 / 30), atol=1e-12)
    responses = [frequency_response(h, m) for m in mus]
    np.testing.assert_allclose(responses, [1.0, 0.0, 0.0, 0.0], atol=1e-10)


def test_isolating_filter_single_value():
    assert isolating_filter([2.5], 0).coeffs == (1.0,)


@pytest.mark.parametrize("target", [-1, 3])
def test_isolating_filter_rejects_a_target_out_of_range(target):
    with pytest.raises(IndexError, match="out of range"):
        isolating_filter([0.0, 1.0, 2.0], target)


def test_row_comparisons_need_equal_column_counts(prism, k33):
    with pytest.raises(ValueError, match="column count"):
        spectral.embeddings_isomorphic(np.ones((6, 2)), np.ones((6, 1)))
    with pytest.raises(DimensionMismatchError, match="column count"):
        check_separability_conditions(prism, k33, np.ones((6, 2)), np.ones((6, 1)))


def test_isolating_filter_degenerate_nodes():
    with pytest.raises(DegenerateNodesError):
        isolating_filter([1.0, 1.0 + 1e-9], 0)
    # the message names the first close pair in index order
    with pytest.raises(DegenerateNodesError, match=r"nodes 0\.0 and 1e-09 closer"):
        isolating_filter([5.0, 0.0, 3.0, 1e-9, 3.0 + 1e-9], 2)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), True])
def test_isolating_filter_rejects_bad_tolerance(tol):
    # 0, a negative or a NaN tol would switch the degeneracy check off
    with pytest.raises(ValueError, match="tolerance"):
        isolating_filter([1.0, 2.0], 0, tol=tol)


def test_filter_matrix_identity(prism):
    np.testing.assert_array_equal(filter_matrix(prism, FilterParams((1.0,))), np.eye(6))


def test_filter_matrix_perron_projector(prism):
    s = eigendecompose(prism)
    mus = [grp.value for grp in s.groups]
    h = isolating_filter(mus, mus.index(max(mus)))
    np.testing.assert_allclose(filter_matrix(prism, h), np.full((6, 6), 1 / 6), atol=1e-9)


def test_filter_matrix_projector_laws_all_corpus_groups():
    for entry in corpus():
        g = entry.graph
        s = eigendecompose(g)
        mus = [grp.value for grp in s.groups]
        for target, grp in enumerate(s.groups):
            h = isolating_filter(mus, target)
            p = filter_matrix(g, h)
            np.testing.assert_allclose(p, p.T, atol=1e-6)
            np.testing.assert_allclose(p @ p, p, atol=1e-6)
            assert np.trace(p) == pytest.approx(grp.multiplicity, abs=1e-6)


def test_frequency_response_basics():
    assert frequency_response(FilterParams((1.0,)), 123.0) == 1.0
    assert frequency_response(FilterParams((0.0, 1.0)), 3.0) == 3.0
    assert frequency_response(PAIR_FILTER, 3.0) == pytest.approx(45.85, abs=1e-12)


def test_abs_eigvec_test_relabeled_path():
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    relabeled = from_edge_list(3, [(1, 0), (0, 2)])
    assert abs_eigvec_test(p3, relabeled) == "inconclusive"
    assert abs_eigvec_test(eigendecompose(p3), eigendecompose(relabeled)) == "inconclusive"


def test_abs_eigvec_test_decomposes_each_graph_once(count_calls):
    calls = count_calls(spectral, "eigendecompose")
    compares = count_calls(spectral, "embeddings_isomorphic")
    p3 = from_edge_list(3, [(0, 1), (1, 2)])
    relabeled = from_edge_list(3, [(1, 0), (0, 2)])
    assert abs_eigvec_test(p3, relabeled) == "inconclusive"
    assert len(calls) == 2
    assert len(compares) == 1  # |U1| against |U2|, through the one row-multiset comparator


def test_abs_eigvec_test_not_applicable(prism, k33):
    assert abs_eigvec_test(prism, k33) == "not_applicable"
    assert abs_eigvec_test(eigendecompose(prism), eigendecompose(k33)) == "not_applicable"


def test_abs_eigvec_test_random_search_soundness():
    # equal simple spectra on small unweighted graphs essentially only occur
    # for isomorphic pairs; the test must stay sound on those and may flag a
    # genuine non-isomorphic hit as separable if one ever appears
    rng = np.random.default_rng(17)
    hits = 0
    for _ in range(120):
        n = int(rng.integers(4, 7))
        g1 = from_edge_list(n, _random_edges(n, rng))
        g2 = from_edge_list(n, _random_edges(n, rng))
        verdict = abs_eigvec_test(g1, g2)
        assert abs_eigvec_test(eigendecompose(g1), eigendecompose(g2)) == verdict
        if verdict == "not_applicable":
            continue
        hits += 1
        if is_isomorphic_bruteforce(g1, g2):
            assert verdict == "inconclusive"
        else:
            assert verdict == "separable", (
                f"counter-candidate pair: {g1.edges()} vs {g2.edges()}"
            )
    assert hits >= 0  # informational; applicable pairs are rare by nature


def _random_edges(n, rng):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = rng.random(len(pairs)) < 0.45
    return [p for p, keep in zip(pairs, mask) if keep]


# ---------------------------------------------------------------------------
# values-first spectra: eigvalsh checked by the trace identity, no vectors
# ---------------------------------------------------------------------------


def _values_first(g, depth=10):
    return spectral._values_first(g, diag_powers(g, depth))


def _trace_check_graphs():
    return [entry.graph for entry in corpus()] + [erdos_renyi(300, 8 / 300, np.random.default_rng(3))]


@pytest.mark.parametrize("g", _trace_check_graphs(), ids=lambda g: f"{g.name or 'gnp'}-{g.n}")
@pytest.mark.parametrize("depth", [1, 10])
def test_trace_check_catches_a_moved_eigenvalue(monkeypatch, g, depth):
    w = np.linalg.eigvalsh(g.adjacency)
    r = max(1.0, np.abs(w).max())
    walks = diag_powers(g, depth)
    spectral._values_first(g, walks)  # the clean values pass
    for i in (0, g.n // 2, g.n - 1):
        moved = w.copy()
        moved[i] += 1e-6 * r
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda s, moved=moved: moved.copy())
        with pytest.raises(ConvergenceFailure, match="power sum"):
            spectral._values_first(g, walks)


def _benchmark_pairs(seeds):
    """(pair, config) of every op of perfbench's pair_small and pair_large workloads at seeds."""
    build = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"))["build"]
    for seed in seeds:
        for name in ("pair_small", "pair_large"):
            for op in build(name, seed).ops:
                nonlocals = inspect.getclosurevars(op.run).nonlocals
                yield nonlocals["pair"], nonlocals["config"]


def _benchmark_graphs():
    """Every graph of perfbench's pair_small and pair_large workloads at seeds 7 and 11."""
    for pair, _ in _benchmark_pairs((7, 11)):
        yield pair.g1
        yield pair.g2


def test_trace_check_passes_on_benchmark_graphs():
    count = 0
    for g in _benchmark_graphs():
        s = _values_first(g)
        assert s.eigenvectors is None and len(s.eigenvalues) == g.n
        count += 1
    assert count == 2 * 2 * (300 + 8)


def test_benchmark_pairs_form_no_eigenvectors(count_calls):
    # conditions 2 and 3 with a spectral witness decompose both graphs in
    # full, which is cheap only because no benchmark pair looks for them
    # there, with or without the condition test
    eig = count_calls(spectral, "eigendecompose")
    eigh = count_calls(np.linalg, "eigh")
    count = 0
    for pair, config in _benchmark_pairs((7,)):
        for c in (config, dataclasses.replace(config, check_conditions=not config.check_conditions)):
            discriminate_pair(pair.g1, pair.g2, c)
            count += 1
    assert (eig, eigh, count) == ([], [], 2 * (300 + 8))


def test_benchmark_reports_match_refinement_to_stability(monkeypatch):
    # the sum rounds, the degree start and the discrete stop change no report:
    # the reference refines by exact rounds from the uniform init to
    # stability, and its equal colorings' map is checked afterwards
    cases = [
        (pair, c)
        for pair, config in _benchmark_pairs((7,))
        for c in (config, dataclasses.replace(config, check_conditions=not config.check_conditions))
    ]
    reports = [discriminate_pair(pair.g1, pair.g2, c).to_json() for pair, c in cases]

    def reference(g1, g2):
        verdict, _, colorings = full_refinement(g1, g2, "uniform")
        if verdict == "distinguished":
            return None, None
        return colorings, wl._verified_map(g1, g2, colorings)

    monkeypatch.setattr(wl, "_certify", reference)
    assert [discriminate_pair(pair.g1, pair.g2, c).to_json() for pair, c in cases] == reports


def test_benchmark_reports_match_with_every_pair_falling_through(monkeypatch, count_calls):
    # with every color weight equal, every sum round recounts the degrees and
    # splits nothing, so each pair with equal degrees refines by exact rounds
    cases = [
        (pair, c)
        for pair, config in _benchmark_pairs((7,))
        for c in (config, dataclasses.replace(config, check_conditions=not config.check_conditions))
    ]
    reports = [discriminate_pair(pair.g1, pair.g2, c).to_json() for pair, c in cases]
    monkeypatch.setattr(wl, "_color_weights", lambda count: np.ones(count))
    steps = count_calls(wl, "_refine_step")
    assert [discriminate_pair(pair.g1, pair.g2, c).to_json() for pair, c in cases] == reports
    same_degrees = [np.array_equal(np.sort(p.g1.degrees), np.sort(p.g2.degrees)) for p, _ in cases]
    # regular pairs are stable from the degree ranks and run no round
    assert (len(steps), sum(same_degrees)) == (244, 408)


# ---------------------------------------------------------------------------
# power sums: the walk ladder's exact column sums prove spectra apart
# ---------------------------------------------------------------------------


def _admitted(g, depth):
    """The ks below depth whose ladder column sums the power-sum guard trusts."""
    delta = int(g.degrees.max())
    return [k for k in range(depth) if k == 0 or g.n * delta ** (k - 1) < 2**53]


def test_ladder_column_sums_are_the_exact_traces_where_admitted():
    rng = np.random.default_rng(71)
    shapes = ((12, 0.5), (60, 0.1), (150, 8 / 150), (300, 8 / 300), (200, 0.5), (300, 0.5))
    for n, p in shapes:
        g = erdos_renyi(n, p, rng)
        sums = diag_powers(g, 10).sum(axis=0)
        oracle = [len(_admitted(g, d)) for d in range(11)]
        assert [spectral._admitted_columns(g, g, d) for d in range(11)] == oracle
        s, power = g.adjacency.astype(np.int64), np.eye(n, dtype=np.int64)
        for k in _admitted(g, 10):
            assert float(sums[k]).is_integer() and int(sums[k]) == int(np.trace(power)), (n, p, k)
            power = power @ s


def test_admitted_columns_stop_where_the_bound_reaches_2_53():
    # jumps 1-16 on 300 nodes: Delta = 32, and n Delta^(k-1) = 300 * 2^(5(k-1))
    # is below 2^53 through k = 9 and in [2^53, 2^54) at k = 10
    g = from_edge_list(300, [(i, (i + d) % 300) for i in range(300) for d in range(1, 17)])
    assert [spectral._admitted_columns(g, g, d) for d in (9, 10, 11, 16)] == [9, 10, 10, 10]


def test_power_sum_witness_never_separates_isomorphic_pairs():
    rng = np.random.default_rng(73)
    pairs = [(g, h) for g, h, _ in random_graph_pairs(40, seed=74)]
    pairs += [(erdos_renyi(int(n), 0.4, rng), erdos_renyi(int(n), 0.4, rng)) for n in rng.integers(2, 9, 80)]
    isomorphic = separated = 0
    for g1, g2 in pairs:
        witness = spectral._power_sum_witness(g1, g2, diag_powers(g1, 10), diag_powers(g2, 10))
        if is_isomorphic_bruteforce(g1, g2):
            assert witness is None
            isomorphic += 1
        elif witness is not None:
            k, p1, p2 = witness
            assert p1 != p2 and [type(v) for v in witness] == [int, int, int]
            assert [p1, p2] == [round(np.sum(np.linalg.eigvalsh(g.adjacency) ** k)) for g in (g1, g2)]
            separated += 1
    assert isomorphic >= 40 and separated >= 40


def test_power_sum_witness_counts_node_counts_first(prism, bihexagon):
    walks = diag_powers(prism, 6), diag_powers(bihexagon, 6)
    assert spectral._power_sum_witness(prism, bihexagon, *walks) == (0, 6, 10)
    assert spectral._power_sum_witness(prism, bihexagon) == (0, 6, 10)  # from the counts alone


def test_power_sum_guard_cuts_the_dense_ladder():
    # depth-9 closed-walk counts near Delta^8 pass 2^53, so their column sums
    # are not trusted, however far apart they read. p_2 = 2m is read off the
    # edge count, so a doubled column 2 is not read at all
    g = erdos_renyi(400, 0.5, np.random.default_rng(75))
    walks = diag_powers(g, 10)
    last = _admitted(g, 10)[-1]
    assert 3 <= last < 9
    assert spectral._power_sum_witness(g, g, walks, walks) is None
    for k in range(2, 10):  # column 1 is zeros
        doubled = walks.copy()
        doubled[:, k] *= 2
        witness = spectral._power_sum_witness(g, g, walks, doubled)
        expected = (k, int(walks[:, k].sum()), int(doubled[:, k].sum()))
        assert witness == (expected if 2 < k <= last else None), k


def test_group_basis_makes_one_decomposition_on_first_request(count_calls):
    # a values-first spectrum holds no eigenvectors and never gains any; a
    # group's basis is a slice of one eigendecompose, made where a caller
    # passes the graph, however many groups are visited
    g, h = corpus_graph("bihexagon"), corpus_graph("bipentagon")  # 10 simple groups each
    x = diag_powers(g, 3)
    eig = count_calls(spectral, "eigendecompose")
    s = _values_first(g)
    report = check_separability_conditions(s, s, x, x)  # every group matches
    assert report == spectral.ConditionReport(False, None, None, "inconclusive")
    assert eig == [] and s.eigenvectors is None
    assert [f.name for f in dataclasses.fields(Spectrum)] == [
        "eigenvalues", "eigenvectors", "groups", "_group_values", "_group_sizes"
    ]
    features = np.random.default_rng(0).standard_normal((10, 2))
    report = check_separability_conditions(g, h, features, features)
    assert report.cond2_witness is not None  # an unmatched group was visited
    assert [args[0] for args in eig] == [g, h]
    full = eigendecompose(g)
    for grp in full.groups:
        np.testing.assert_array_equal(eigenspace(full, grp.value).basis, full.eigenvectors[:, list(grp.indices)])
    assert len(eig) == 2  # eigenspace slices, and decomposes nothing


def _fail(name):
    def raising(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{name} failed")

    return raising


def _fail_block_check(monkeypatch):
    # a per-group block would be orthonormalised by QR before its check
    monkeypatch.setattr(np.linalg, "qr", _fail("qr"))


def _fail_solve(monkeypatch):
    monkeypatch.setattr(np.linalg, "solve", _fail("solve"))


@pytest.mark.parametrize("fail", [_fail_block_check, _fail_solve])
def test_values_first_fallback_gives_the_eager_report(monkeypatch, count_calls, fail):
    # values-first spectra hold no eigenvectors, so where a spectral witness
    # sends the pair path to conditions 2 and 3, it decomposes each graph once
    # in full: no per-group block is solved for or checked, failing either
    # changes nothing, and the report is the eager one bit for bit on
    # diag_powers(g, depth). The pair's features are the first depth columns
    # of its deeper ladders, a strided slice; the condition test reads them
    # contiguous, so the layout does not move a bit. At depths 1 and 2
    # (columns of ones and zeros) equal node counts fail condition 1
    fail(monkeypatch)
    eig = count_calls(spectral, "eigendecompose")
    rng = np.random.default_rng(5)
    empty4, edge4 = from_edge_list(4, []), from_edge_list(4, [(0, 1)])
    pairs = [(empty4, edge4), (edge4, empty4)]
    pairs += [(erdos_renyi(30, 0.2, rng), erdos_renyi(30, 0.2, rng)) for _ in range(3)]
    witnesses = 0
    for g1, g2 in pairs:
        for depth in (1, 2):
            del eig[:]
            report = discriminate_pair(g1, g2, PairConfig(check_conditions=True, condition_depth=depth))
            assert report.spectral_witness is not None
            assert [args[0] for args in eig] == [g1, g2]
            eager = check_separability_conditions(g1, g2, diag_powers(g1, depth), diag_powers(g2, depth))
            assert report.conditions == eager
            witnesses += (eager.cond2_witness is not None) + (eager.cond3_witness is not None)
    assert witnesses >= 5


def test_condition_report_reads_values_not_layout():
    # the same features as a strided slice of a deeper ladder (as the pair path
    # passes them), a contiguous copy and a Fortran-order copy give one report
    # bit for bit: condition 2's weights ||x^T V|| are formed on contiguous
    # rows, whatever layout the caller holds
    rng = np.random.default_rng(5)
    pairs = [(erdos_renyi(30, 0.2, rng), erdos_renyi(30, 0.2, rng)) for _ in range(3)]
    weights = 0
    for g1, g2 in pairs:
        x1, x2 = diag_powers(g1, len(PAIR_FILTER)), diag_powers(g2, len(PAIR_FILTER))
        for depth in (1, 2):
            y1, y2 = x1[:, :depth], x2[:, :depth]
            reports = [
                check_separability_conditions(g1, g2, f(y1), f(y2))
                for f in (lambda y: y, np.ascontiguousarray, np.asfortranarray)
            ]
            assert not y1.flags.c_contiguous and reports[1:] == reports[:1] * 2
            weights += reports[0].cond2_witness is not None
    assert weights >= 5
