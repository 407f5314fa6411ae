import numpy as np
import pytest

from spectrawl import (
    CSL_FILTER,
    CslSpec,
    DiscriminationReport,
    FilterParams,
    LINEAR,
    PairConfig,
    Permutation,
    anonymous_embed,
    apply_permutation,
    check_separability_conditions,
    constant_input_response,
    corpus_graph,
    csl_base_graph,
    csl_classify,
    csl_generate,
    csl_score,
    diag_powers,
    diagonal_module,
    discriminate_pair,
    eigendecompose,
    embeddings_isomorphic,
    erdos_renyi,
    gnn_layer,
    is_isomorphic_bruteforce,
    run_benchmark,
    spectra_differ,
    wl_distinguish,
)
from spectrawl import gnn, spectral
from spectrawl.discriminate import (
    ConfigError,
    ConvLayer,
    DiagLayer,
    InvalidSkipError,
    PAIR_FILTER,
    selector_diag_layer,
)

from conftest import random_graph_pairs

# class scores frozen from an independent recomputation via circulant
# eigenvalue traces: sum_k h_k sum_j lambda_j^k / 1e3
EXPECTED_CLASS_SCORES = {
    2: 73.6155,
    3: -45.96783333333333,
    4: 1.0591666666666666,
    5: -30.592833333333333,
    6: -25.344833333333333,
    9: -26.000833333333333,
    11: -17.554833333333333,
    12: -28.542833333333333,
    13: 16.065166666666666,
    16: -21.162833333333333,
}


def test_embeddings_isomorphic_reference_columns(prism, k33):
    y1 = diagonal_module(prism, PAIR_FILTER)
    y2 = diagonal_module(k33, PAIR_FILTER)
    assert not embeddings_isomorphic(y1, y2, 1e-6)


def test_embeddings_isomorphic_row_permutation():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((8, 3))
    assert embeddings_isomorphic(y, y[rng.permutation(8)], 1e-6)


def test_embeddings_isomorphic_tolerance():
    # values chosen away from rounding boundaries at 6 digits
    y = (np.arange(12, dtype=float) + 0.1).reshape(6, 2)
    assert embeddings_isomorphic(y, y + 1e-7, 1e-6)
    assert not embeddings_isomorphic(y, y + 1e-3, 1e-6)


def test_embeddings_isomorphic_row_count_mismatch():
    assert not embeddings_isomorphic(np.ones((3, 1)), np.ones((4, 1)))


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_embeddings_isomorphic_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        embeddings_isomorphic(np.ones((3, 1)), np.ones((3, 1)), tol)


def test_embeddings_isomorphic_is_the_spectral_comparator():
    from spectrawl import discriminate

    assert discriminate.embeddings_isomorphic is spectral.embeddings_isomorphic
    assert embeddings_isomorphic is spectral.embeddings_isomorphic


def test_discriminate_six_node_pair(prism, k33):
    report = discriminate_pair(prism, k33)
    assert report.wl == "indistinguishable"
    assert report.spectral_verdict == "separable"
    assert report.diag_verdict == "separable"
    assert report.overall == "separable"
    assert sorted(set(np.round(report.diag_outputs[0], 4))) == [10.4167]
    assert sorted(set(report.diag_outputs[1])) == [1.75]


def test_discriminate_ten_node_pair(bihexagon, bipentagon):
    report = discriminate_pair(bihexagon, bipentagon)
    assert report.wl == "indistinguishable"
    assert report.spectral_verdict == "separable"
    assert report.diag_verdict == "separable"
    assert report.overall == "separable"


def test_discriminate_isomorphic_pair(prism):
    permuted = apply_permutation(prism, Permutation((5, 3, 1, 0, 2, 4)))
    report = discriminate_pair(prism, permuted)
    assert report.wl == "indistinguishable"
    assert report.spectral_verdict == "inconclusive"
    assert report.diag_verdict == "inconclusive"
    assert report.overall == "inconclusive"


def test_discriminate_with_condition_check(prism, k33):
    report = discriminate_pair(prism, k33, PairConfig(check_conditions=True))
    assert report.conditions is not None
    assert report.conditions.verdict == "separable"


def test_discriminate_pair_computes_spectrum_and_walks_once(count_calls, prism, k33):
    eig = count_calls(spectral, "eigendecompose")
    walks = count_calls(gnn, "diag_powers")
    discriminate_pair(prism, k33, PairConfig(check_conditions=True))
    assert len(eig) == 2
    assert [args[1] for args in walks] == [10, 10]  # max(len(filter), condition_depth)


def test_discriminate_shared_walks_match_standalone_mechanisms(bihexagon, bipentagon):
    for depth in (3, 10):
        config = PairConfig(check_conditions=True, condition_depth=depth)
        report = discriminate_pair(bihexagon, bipentagon, config)
        x1, x2 = diag_powers(bihexagon, depth), diag_powers(bipentagon, depth)
        assert report.conditions == check_separability_conditions(bihexagon, bipentagon, x1, x2)
        assert report.diag_outputs == (
            tuple(diagonal_module(bihexagon, PAIR_FILTER)),
            tuple(diagonal_module(bipentagon, PAIR_FILTER)),
        )


def test_discriminate_condition_depth_must_be_positive(prism, k33, count_calls):
    calls = count_calls(spectral, "eigendecompose")
    with pytest.raises(ValueError):
        discriminate_pair(prism, k33, PairConfig(check_conditions=True, condition_depth=0))
    assert len(calls) == 0  # rejected before any work


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_pair_config_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        PairConfig(tol=tol)


def test_report_json_roundtrip(prism, k33):
    for config in (PairConfig(), PairConfig(check_conditions=True)):
        report = discriminate_pair(prism, k33, config)
        parsed = DiscriminationReport.from_json(report.to_json())
        assert parsed == report


def test_report_json_schema(prism, k33):
    doc = discriminate_pair(prism, k33).to_dict()
    assert doc["pair"] == ["prism", "k33"]
    assert doc["wl"] in ("indistinguishable", "distinguished")
    assert set(doc["spectral"]) == {"verdict", "witness"}
    assert doc["diag_gnn"]["verdict"] in ("separable", "inconclusive")
    assert doc["overall"] in ("separable", "inconclusive")


def test_csl_spec_validation():
    with pytest.raises(InvalidSkipError):
        CslSpec(skips=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
    with pytest.raises(InvalidSkipError):
        CslSpec(skips=(2, 2, 3, 4, 5, 6, 9, 11, 12, 13))
    with pytest.raises(InvalidSkipError):
        CslSpec(skips=(2, 3, 21))
    assert CslSpec().total_graphs == 150


def test_csl_generate_structure():
    spec = CslSpec()
    dataset = csl_generate(spec)
    assert len(dataset) == 150
    labels = [label for _, label in dataset]
    assert sorted(set(labels)) == list(range(10))
    for g, _ in dataset[::17]:
        np.testing.assert_array_equal(g.degrees, np.full(41, 4.0))
        # constant degree means the all-ones vector is an eigenvector
        np.testing.assert_array_equal(g.adjacency @ np.ones(41), 4.0 * np.ones(41))
    assert dataset[0][0].num_edges == 82


def test_csl_generate_deterministic():
    a = csl_generate(CslSpec(seed=9))
    b = csl_generate(CslSpec(seed=9))
    assert all(x == y for (x, _), (y, _) in zip(a, b))
    c = csl_generate(CslSpec(seed=10))
    assert any(x != y for (x, _), (y, _) in zip(a, c))


def test_csl_copies_share_spectrum():
    spec = CslSpec(copies_per_class=3)
    dataset = [g for g, label in csl_generate(spec) if label == 4]
    spectra = [eigendecompose(g).eigenvalues for g in dataset]
    for w in spectra[1:]:
        np.testing.assert_allclose(w, spectra[0], atol=1e-9)


def test_csl_cross_class_wl_blind():
    g1 = csl_base_graph(41, 2)
    g2 = csl_base_graph(41, 9)
    assert wl_distinguish(g1, g2) == "indistinguishable"


def test_csl_class_scores_match_frozen_values():
    for skip, expected in EXPECTED_CLASS_SCORES.items():
        assert csl_score(csl_base_graph(41, skip)) == pytest.approx(expected, abs=1e-9)


def test_csl_score_permutation_invariant():
    g = csl_base_graph(41, 6)
    rng = np.random.default_rng(2)
    for _ in range(3):
        permuted = apply_permutation(g, Permutation.random(41, rng))
        assert abs(csl_score(permuted) - csl_score(g)) <= 1e-9


def test_csl_classification_is_perfect():
    spec = CslSpec(copies_per_class=5, seed=1)
    dataset = csl_generate(spec)
    accuracy, scores = csl_classify(dataset, spec)
    assert accuracy == 1.0
    # scores are identical for all copies within a class
    by_label = {}
    for (g, label), score in zip(dataset, scores):
        by_label.setdefault(label, set()).add(score)
    assert all(len(s) == 1 for s in by_label.values())


def test_anonymous_embed_selector_layer_is_walk_features(prism, bihexagon):
    for g in (prism, bihexagon):
        x = anonymous_embed(g, [selector_diag_layer(6)])
        np.testing.assert_array_equal(x, diag_powers(g, 6))


def test_anonymous_embed_builds_walk_counts_once(count_calls, prism):
    calls = count_calls(gnn, "diag_powers")
    anonymous_embed(prism, [selector_diag_layer(6)])
    assert len(calls) == 1


def test_anonymous_embed_first_layer_equivalence(prism, bihexagon):
    # stacked-coefficient ConvLayer on walk features == closed-walk module
    h_col = np.asarray(PAIR_FILTER.coeffs).reshape(-1, 1)
    for g in (prism, bihexagon):
        via_conv = anonymous_embed(g, [ConvLayer((h_col,), LINEAR)])
        np.testing.assert_allclose(
            via_conv[:, 0], diagonal_module(g, PAIR_FILTER, LINEAR), atol=1e-12
        )


def test_anonymous_embed_two_layers(prism):
    rng = np.random.default_rng(4)
    layers = [selector_diag_layer(4), ConvLayer((rng.standard_normal((4, 2)),))]
    x = anonymous_embed(prism, layers)
    manual = gnn_layer(prism, diag_powers(prism, 4), layers[1].taps, LINEAR)
    np.testing.assert_allclose(x, manual, atol=1e-12)


def test_anonymous_embed_equivariant(prism):
    permuted = apply_permutation(prism, Permutation((2, 4, 0, 5, 1, 3)))
    layers = [selector_diag_layer(5)]
    assert embeddings_isomorphic(
        anonymous_embed(prism, layers), anonymous_embed(permuted, layers), 1e-9
    )


def test_anonymous_embed_config_errors(prism):
    with pytest.raises(ConfigError):
        anonymous_embed(prism, [])
    with pytest.raises(ConfigError):
        anonymous_embed(prism, [selector_diag_layer(3), selector_diag_layer(3)])
    with pytest.raises(ConfigError):
        anonymous_embed(prism, ["not a layer"])


def test_constant_input_separation_transfers_to_walk_features():
    # a propagation layer on the walk features can reproduce any constant-input
    # response exactly (column 0 of the features is the all-ones vector), so a
    # separation by the constant input is never lost
    rng = np.random.default_rng(8)
    h = FilterParams((0.5, 1.0, -0.25))
    selector = np.zeros((4, 1))
    selector[0, 0] = 1.0
    for _ in range(10):
        g = erdos_renyi(int(rng.integers(3, 9)), 0.4, rng)
        taps = tuple(c * selector for c in h.coeffs)
        via_features = gnn_layer(g, diag_powers(g, 4), taps, LINEAR)[:, 0]
        np.testing.assert_allclose(
            via_features, constant_input_response(g, h, LINEAR), atol=1e-10
        )


def test_converse_fails_on_six_node_pair(prism, k33):
    # walk features separate the pair even though constant inputs cannot
    assert embeddings_isomorphic(
        constant_input_response(prism, PAIR_FILTER),
        constant_input_response(k33, PAIR_FILTER),
        1e-9,
    )
    assert not embeddings_isomorphic(diag_powers(prism, 4), diag_powers(k33, 4), 1e-9)


def test_run_benchmark_corpus_pairs(prism, k33, bihexagon, bipentagon):
    summary = run_benchmark([(prism, k33), (bihexagon, bipentagon)])
    counts = summary.counts()
    assert counts["pairs"] == 2
    assert counts["wl_distinguished"] == 0
    assert counts["spectral_separable"] == 2
    assert counts["diag_separable"] == 2
    assert counts["overall_separable"] == 2
    csv = summary.to_csv()
    assert csv.splitlines()[0] == "pair,wl,spectral,diag,overall,millis"
    assert len(csv.splitlines()) == 3


def test_run_benchmark_empty():
    assert run_benchmark([]).counts()["pairs"] == 0


def test_run_benchmark_records_errors(prism):
    summary = run_benchmark([(prism, object())])
    assert summary.counts()["errors"] == 1
    assert "error" in summary.to_csv()


def test_run_benchmark_sorted_rows(prism, k33, bihexagon, bipentagon):
    summary = run_benchmark([(bihexagon, bipentagon), (prism, k33)])
    assert [r.pair for r in summary.rows] == [("bihexagon", "bipentagon"), ("prism", "k33")]


def test_no_method_separates_isomorphic_pairs():
    for g, permuted, _ in random_graph_pairs(25, seed=43):
        report = discriminate_pair(g, permuted)
        assert report.overall == "inconclusive"


def test_spectral_verdicts_confirmed_by_oracle():
    rng = np.random.default_rng(47)
    for _ in range(20):
        g1 = erdos_renyi(10, 0.3, rng)
        g2 = erdos_renyi(10, 0.3, rng)
        if spectra_differ(g1, g2) is not None:
            assert not is_isomorphic_bruteforce(g1, g2)
