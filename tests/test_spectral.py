import numpy as np
import pytest

from spectrawl import (
    FilterParams,
    abs_eigvec_test,
    apply_permutation,
    check_separability_conditions,
    corpus,
    diag_powers,
    eigendecompose,
    eigenspace,
    eigenvector_one_products,
    filter_matrix,
    frequency_response,
    from_edge_list,
    is_isomorphic_bruteforce,
    isolating_filter,
    spectra_differ,
)
from spectrawl import spectral
from spectrawl.discriminate import PAIR_FILTER
from spectrawl.gnn import DimensionMismatchError
from spectrawl.spectral import DegenerateNodesError, EigenGroup, NoSuchEigenvalueError, Spectrum

from conftest import random_graph_pairs

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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
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


def test_isolating_filter_degenerate_nodes():
    with pytest.raises(DegenerateNodesError):
        isolating_filter([1.0, 1.0 + 1e-9], 0)


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
