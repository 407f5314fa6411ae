import json

import numpy as np
import pytest

from spectrawl import (
    CSL_FILTER,
    CslSpec,
    DiscriminationReport,
    FilterParams,
    Graph,
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
    from_edge_list,
    gnn_layer,
    is_isomorphic_bruteforce,
    run_benchmark,
    spectra_differ,
    wl_distinguish,
)
from spectrawl import discriminate, gnn, spectral, wl
from spectrawl.discriminate import (
    ConfigError,
    ConvLayer,
    DiagLayer,
    InvalidSkipError,
    PAIR_FILTER,
    selector_diag_layer,
)

from conftest import (
    assert_conditions_agree,
    bisect_find_group,
    half_power_diag_powers,
    loop_group_indices,
    loop_unmatched_groups,
    random_graph_pairs,
    traced_peak,
    tuple_rows_isomorphic,
)

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


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), True, "x", [1]])
def test_embeddings_isomorphic_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        embeddings_isomorphic(np.ones((3, 1)), np.ones((3, 1)), tol)


def test_embeddings_isomorphic_is_the_spectral_comparator():
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


def _cospectral_pair(n=5):
    """Star K1,4 and C4, each padded to n nodes with isolated ones: spectrum {2, -2, 0, ..., 0} for both."""
    star = from_edge_list(n, [(0, v) for v in range(1, 5)], name="star")
    return star, from_edge_list(n, [(0, 1), (1, 2), (2, 3), (3, 0)], name="c4k1")


def test_discriminate_pair_computes_spectrum_and_walks_once(count_calls):
    # every power sum ties, and with 10 nodes the 10 columns stop short of
    # p_10, so the spectrum is built, once per graph
    star, c4k1 = _cospectral_pair(10)
    eig = count_calls(spectral, "eigendecompose")
    values = count_calls(spectral, "_values_first")
    walks = count_calls(gnn, "diag_powers")
    report = discriminate_pair(star, c4k1, PairConfig(check_conditions=True))
    assert report.spectral_verdict == "inconclusive"
    assert len(eig) == 0  # values-first: no full decomposition
    assert [args[0] for args in values] == [star, c4k1]
    assert [args[1] for args in walks] == [10, 10]  # max(len(filter), condition_depth)
    assert [v[1].shape for v in values] == [(10, 10), (10, 10)]  # checked against that ladder


def test_power_sums_separate_without_the_eigensolver(count_calls, prism, k33):
    # an independent sparse pair whose edge counts differ separates by
    # p_2 = 2m, read off the counts at any filter length, and by condition 1,
    # so neither the spectrum nor any eigenvector is formed. trace(S^3) is
    # 6 x the triangle count: 12 for the prism, 0 for K3,3, with equal p_0..p_2,
    # so that pair needs a ladder of at least 4 columns
    lapack = [count_calls(np.linalg, name) for name in ("eigvalsh", "eigh", "solve", "qr", "svd")]
    rng = np.random.default_rng(107)
    g1, g2 = erdos_renyi(300, 8 / 300, rng), erdos_renyi(300, 8 / 300, rng)
    assert g1.num_edges != g2.num_edges
    filters = (PAIR_FILTER, FilterParams((1.0,)), FilterParams((0.5, -1.0)))
    for config in [PairConfig(filter=h, check_conditions=check) for h in filters for check in (False, True)]:
        if len(config.filter) > 3 or config.check_conditions:
            report = discriminate_pair(prism, k33, config)
            assert (report.spectral_verdict, report.spectral_witness) == ("separable", (3, 12, 0))
        report = discriminate_pair(g1, g2, config)
        assert report.spectral_verdict == "separable"
        assert report.spectral_witness == (2, 2 * g1.num_edges, 2 * g2.num_edges)
        assert config.check_conditions is (report.conditions is not None)
    assert lapack == [[]] * 5


def test_discriminate_relabeled_pair_forms_no_eigenvectors(count_calls, prism):
    eig = count_calls(spectral, "eigendecompose")
    solves = count_calls(np.linalg, "solve")
    relabeled = apply_permutation(prism, Permutation((3, 5, 0, 4, 1, 2)))
    report = discriminate_pair(prism, relabeled, PairConfig(check_conditions=True))
    assert report.overall == "inconclusive"
    assert len(eig) == 0 and len(solves) == 0


def _walks_and_spectra(g1, g2, depth):
    w1, w2 = diag_powers(g1, depth), diag_powers(g2, depth)
    return w1, w2, spectral._values_first(g1, w1), spectral._values_first(g2, w2)


def test_discriminate_shared_walks_match_standalone_mechanisms(bihexagon, bipentagon):
    for depth in (3, 10):
        config = PairConfig(check_conditions=True, condition_depth=depth)
        report = discriminate_pair(bihexagon, bipentagon, config)
        w1, w2, s1, s2 = _walks_and_spectra(bihexagon, bipentagon, max(len(PAIR_FILTER), depth))
        x1, x2 = diag_powers(bihexagon, depth), diag_powers(bipentagon, depth)
        assert report.conditions == check_separability_conditions(s1, s2, x1, x2)
        assert report.diag_outputs == (
            tuple(diagonal_module(bihexagon, PAIR_FILTER)),
            tuple(diagonal_module(bipentagon, PAIR_FILTER)),
        )


def _witness_pairs():
    """Pairs whose walk features give condition-2 and condition-3 witnesses."""
    empty4, edge4 = from_edge_list(4, []), from_edge_list(4, [(0, 1)])
    rng = np.random.default_rng(5)
    pairs = [(empty4, edge4), (edge4, empty4)]
    pairs += [(erdos_renyi(30, 0.2, rng), erdos_renyi(30, 0.2, rng)) for _ in range(4)]
    return pairs + [(corpus_graph("bihexagon"), corpus_graph("bipentagon"))]


def test_discriminate_conditions_match_eager_path():
    # where condition 1 holds it decides alone, and no witness is looked for.
    # Where it fails: eigvalsh and eigh are different LAPACK drivers, so same
    # witnesses, values within 1e-12 r, weights within 1e-9 relative. At
    # depths 1 and 2 (columns of ones and zeros) equal node counts fail it
    rng = np.random.default_rng(6)
    pairs = _witness_pairs() + [(erdos_renyi(20, 0.3, rng), erdos_renyi(20, 0.3, rng)) for _ in range(2)]
    witnesses = 0
    for g1, g2 in pairs:
        for depth in (1, 2, 3, 10):
            config = PairConfig(check_conditions=True, condition_depth=depth)
            lazy = discriminate_pair(g1, g2, config).conditions
            x1, x2 = diag_powers(g1, depth), diag_powers(g2, depth)
            eager = check_separability_conditions(g1, g2, x1, x2)
            r = max(1.0, *(np.abs(eigendecompose(g).eigenvalues).max() for g in (g1, g2)))
            abs_tol = 1e-12 * max(np.abs(x1).max(), np.abs(x2).max())
            if eager.cond1_signals_differ:
                assert lazy == spectral.ConditionReport(True, None, None, "separable")
                # the values-first spectra still give the eager witnesses
                s1, s2 = _walks_and_spectra(g1, g2, max(len(PAIR_FILTER), depth))[2:]
                assert_conditions_agree(check_separability_conditions(s1, s2, x1, x2), eager, r, abs_tol=abs_tol)
                continue
            assert_conditions_agree(lazy, eager, r, abs_tol=abs_tol)
            witnesses += (lazy.cond2_witness is not None) + (lazy.cond3_witness is not None)
    assert witnesses >= 15


def test_reports_match_the_reference_loops(monkeypatch):
    rng = np.random.default_rng(17)
    sparse = erdos_renyi(200, 8 / 200, rng)
    dense = erdos_renyi(120, 0.5, rng)
    pairs = [
        (sparse, apply_permutation(sparse, Permutation.random(200, rng))),
        (erdos_renyi(200, 8 / 200, rng), erdos_renyi(200, 8 / 200, rng)),
        (dense, apply_permutation(dense, Permutation.random(120, rng))),
    ]
    config = PairConfig(check_conditions=True)
    reports = [discriminate_pair(g1, g2, config).to_json() for g1, g2 in pairs]
    monkeypatch.setattr(gnn, "diag_powers", half_power_diag_powers)
    monkeypatch.setattr(spectral, "_group_indices", loop_group_indices)
    monkeypatch.setattr(spectral.Spectrum, "find_group", bisect_find_group)
    monkeypatch.setattr(spectral, "_unmatched_groups", loop_unmatched_groups)
    monkeypatch.setattr(spectral, "embeddings_isomorphic", tuple_rows_isomorphic)
    monkeypatch.setattr(discriminate, "embeddings_isomorphic", tuple_rows_isomorphic)
    assert [discriminate_pair(g1, g2, config).to_json() for g1, g2 in pairs] == reports


def test_discriminate_condition_depth_must_be_positive(prism, k33, count_calls):
    calls = count_calls(spectral, "eigendecompose")
    with pytest.raises(ValueError):
        discriminate_pair(prism, k33, PairConfig(check_conditions=True, condition_depth=0))
    assert len(calls) == 0  # rejected before any work


@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("condition_depth", {"condition_depth": 0}),
        ("condition_depth", {"condition_depth": 2.5}),
        ("condition_depth", {"condition_depth": True}),
        ("filter", {"filter": (1.0, 2.0)}),
        ("check_conditions", {"check_conditions": "no"}),
        ("check_conditions", {"check_conditions": 1}),
        ("sigma", {"sigma": 5}),
        ("sigma", {"sigma": "bogus"}),
    ],
)
def test_pair_config_rejects_bad_fields(field, kwargs):
    with pytest.raises(ConfigError, match=field):
        PairConfig(**kwargs)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), True, "x", [1]])
def test_pair_config_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        PairConfig(tol=tol)


def test_report_json_roundtrip(prism, k33):
    # a one-tap filter leaves only p_0 in the ladder, so the witness is an eigenvalue
    one_tap = PairConfig(filter=FilterParams((1.0,)))
    for config in (PairConfig(), PairConfig(check_conditions=True), one_tap):
        report = discriminate_pair(prism, k33, config)
        parsed = DiscriminationReport.from_json(report.to_json())
        assert parsed == report
    assert isinstance(discriminate_pair(prism, k33, one_tap).spectral_witness, float)
    # a triangle plus an isolated node against 4 isolated nodes sets both
    # condition witnesses at depth 1, where condition 1 fails, and condition
    # 3's carries the two multiplicities as ints; the spectral witness is
    # trace(S^2) = 2m, 6 against 0, as a tuple of ints
    g1, g2 = from_edge_list(4, [(0, 1), (0, 3), (1, 3)]), Graph(4, np.zeros((4, 4)))
    report = discriminate_pair(g1, g2, PairConfig(check_conditions=True, condition_depth=1))
    assert report.conditions.cond2_witness is not None
    assert report.conditions.cond3_witness[1:3] == (1, 4)
    assert report.spectral_witness == (2, 6, 0)
    text = report.to_json()
    assert DiscriminationReport.from_json(text) == report
    assert report.to_dict() == json.loads(text)
    assert [type(m) for m in json.loads(text)["conditions"]["cond3_witness"][1:3]] == [int, int]
    assert json.loads(text)["spectral"]["witness"] == [2, 6, 0]
    assert [type(v) for v in DiscriminationReport.from_json(text).spectral_witness] == [int, int, int]


def test_report_json_schema(prism, k33):
    doc = discriminate_pair(prism, k33).to_dict()
    assert doc["pair"] == ["prism", "k33"]
    assert doc["wl"] in ("indistinguishable", "distinguished")
    assert set(doc["spectral"]) == {"verdict", "witness"}
    assert doc["diag_gnn"]["verdict"] in ("separable", "inconclusive")
    assert doc["overall"] in ("separable", "inconclusive")
    assert list(doc) == ["pair", "wl", "spectral", "diag_gnn", "conditions", "overall"]
    conditions = discriminate_pair(prism, k33, PairConfig(check_conditions=True)).to_dict()["conditions"]
    assert list(conditions) == ["cond1_signals_differ", "cond2_witness", "cond3_witness", "verdict"]


def test_report_from_dict_needs_every_condition_field_and_ignores_extras(prism, k33):
    report = discriminate_pair(prism, k33, PairConfig(check_conditions=True))
    doc = report.to_dict()
    doc["conditions"]["note"] = "ignored"
    assert DiscriminationReport.from_dict(doc) == report
    del doc["conditions"]["cond3_witness"]
    with pytest.raises(KeyError):
        DiscriminationReport.from_dict(doc)


def test_csl_spec_validation():
    with pytest.raises(InvalidSkipError):
        CslSpec(skips=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10))
    with pytest.raises(InvalidSkipError):
        CslSpec(skips=(2, 2, 3, 4, 5, 6, 9, 11, 12, 13))
    with pytest.raises(InvalidSkipError):
        CslSpec(skips=(2, 3, 21))
    assert CslSpec().total_graphs == 150
    with pytest.raises(InvalidSkipError, match="skips"):
        CslSpec(skips=5)
    # a JSON config gives a list; the spec keeps a tuple, so it stays hashable
    spec = CslSpec(skips=[2, 3])
    assert spec.skips == (2, 3) and hash(spec) == hash(CslSpec(skips=(2, 3)))


@pytest.mark.parametrize("skip", [2.5, 5.0, "5", True])
def test_csl_skip_must_be_an_integer(skip):
    with pytest.raises(InvalidSkipError, match="skip must be an integer"):
        csl_base_graph(41, skip)
    with pytest.raises(InvalidSkipError, match="skip must be an integer"):
        CslSpec(skips=(2, skip))


@pytest.mark.parametrize("copies", [-1, 2.5])
def test_csl_spec_rejects_bad_copies_per_class(copies):
    with pytest.raises(ValueError, match="copies_per_class"):
        CslSpec(copies_per_class=copies)
    assert CslSpec(copies_per_class=0).total_graphs == 0


@pytest.mark.parametrize(
    "label, skips, message",
    [
        (3, (2, 3), "no class"),
        (-1, (2, 3), "must be >= 0"),
        (0, (), "no class"),
        (1.0, (2, 3), "must be an integer"),
        (True, (2, 3), "must be an integer"),
    ],
    ids=["past-end", "negative", "no-skips", "float", "bool"],
)
def test_csl_classify_rejects_labels_outside_skips(count_calls, label, skips, message):
    # a label with no class used to count as a wrong guess, or die in numpy's argmin
    scored = count_calls(discriminate, "csl_score")
    with pytest.raises(ValueError, match=f"^label.*{message}"):
        csl_classify([(csl_base_graph(41, 2), label)], CslSpec(skips=skips))
    assert scored == []
    assert csl_classify([], CslSpec(skips=skips)) == (0.0, [])


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


@pytest.mark.parametrize("depth", [0, -1, 2.5, True])
def test_selector_diag_layer_rejects_bad_depth(depth):
    with pytest.raises(ValueError, match="depth"):
        selector_diag_layer(depth)


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


_CERTIFIED_CONFIGS = (
    PairConfig(),
    PairConfig(check_conditions=True),
    PairConfig(filter=CSL_FILTER, sigma=LINEAR, check_conditions=True, condition_depth=4),
)


def _relabeled_pairs():
    """Relabeled pairs that 1-WL certifies.

    Refinement makes the three sparse graphs and the dense one discrete. The
    last graph has two leaves on one node, twins that no refinement splits.
    """
    rng = np.random.default_rng(101)
    graphs = [erdos_renyi(n, p, rng) for n, p in ((30, 8 / 30), (120, 8 / 120), (400, 8 / 400), (80, 0.5))]
    twins = np.zeros((32, 32))
    twins[:30, :30] = graphs[0].adjacency
    twins[0, 30:] = twins[30:, 0] = 1.0
    graphs.append(Graph(32, twins))
    return [(g, apply_permutation(g, Permutation.random(g.n, rng))) for g in graphs]


def _dense_relabeled_circulant(n=400):
    """Circulant with each jump 1..n/2 kept with probability 0.5, and a relabeled copy."""
    rng = np.random.default_rng(1)
    a = np.zeros((n, n))
    i = np.arange(n)
    for jump in np.flatnonzero(rng.random(n // 2) < 0.5) + 1:
        a[i, (i + jump) % n] = a[(i + jump) % n, i] = 1.0
    g = Graph(n, a, f"circulant-{n}")
    return g, apply_permutation(g, Permutation.random(n, rng))


def _force_full_path(monkeypatch):
    # keep 1-WL's colorings, drop its certificate
    certify = wl._certify
    monkeypatch.setattr(wl, "_certify", lambda g1, g2: (certify(g1, g2)[0], None))


def test_certified_pair_builds_one_ladder_and_no_spectrum(count_calls):
    values = count_calls(spectral, "_values_first")
    eigvalsh = count_calls(np.linalg, "eigvalsh")
    walks = count_calls(gnn, "diag_powers")
    checks = count_calls(wl, "_verified_map")
    steps = count_calls(wl, "_refine_step")
    exact_rounds = []
    for g1, g2 in _relabeled_pairs():
        for config in _CERTIFIED_CONFIGS:
            del walks[:], checks[:], steps[:]
            report = discriminate_pair(g1, g2, config)
            assert report.overall == "inconclusive"
            assert [(args[0], args[1]) for args in walks] == [(g1, len(config.filter))]
            assert walks[0][0] is g1
            assert len(checks) == 1  # the edge check runs once per pair
            exact_rounds.append(len(steps))
    assert values == [] and eigvalsh == []
    # sum rounds make the four discrete pairs discrete; the twins leave them
    # stable but not discrete, and one exact round confirms it
    assert exact_rounds == [0] * 12 + [1] * 3


def test_certified_reports_match_the_full_path(monkeypatch):
    pairs = _relabeled_pairs()
    reports = [discriminate_pair(g1, g2, c).to_json() for g1, g2 in pairs for c in _CERTIFIED_CONFIGS]
    _force_full_path(monkeypatch)
    assert [discriminate_pair(g1, g2, c).to_json() for g1, g2 in pairs for c in _CERTIFIED_CONFIGS] == reports


def test_uncertified_pairs_take_the_full_path(count_calls, monkeypatch, prism, k33):
    rng = np.random.default_rng(103)
    # separated by power sums, so no spectrum is built
    separated = [(prism, k33), (csl_base_graph(41, 2), csl_base_graph(41, 3))]
    isomorphic = [(prism, apply_permutation(prism, Permutation((3, 5, 0, 4, 1, 2))))]
    for r in (2, 5, 9):
        base = csl_base_graph(41, r)
        isomorphic.append((base, apply_permutation(base, Permutation.random(41, rng))))
    # vertex-transitive, so the candidate map is the identity and fails; its
    # walk counts pass 2^53
    isomorphic.append(_dense_relabeled_circulant())
    pairs = separated + isomorphic
    config = PairConfig(check_conditions=True)
    values = count_calls(spectral, "_values_first")
    reports = []
    for i, (g1, g2) in enumerate(pairs):
        assert wl._certify(g1, g2)[1] is None
        del values[:]
        reports.append(discriminate_pair(g1, g2, config).to_json())
        # the prism's 10 columns hold p_0..p_6, whose tie proves the spectra equal
        spectra_built = i >= len(separated) and g1.n >= 10
        assert [args[0] for args in values] == ([g1, g2] if spectra_built else [])
    _force_full_path(monkeypatch)
    assert [discriminate_pair(g1, g2, config).to_json() for g1, g2 in pairs] == reports


def _independent_sparse_pair(n=300, seed=109):
    rng = np.random.default_rng(seed)
    g1, g2 = erdos_renyi(n, 8 / n, rng), erdos_renyi(n, 8 / n, rng)
    assert g1.num_edges != g2.num_edges
    return g1, g2


@pytest.mark.parametrize(
    "h, depth", [(PAIR_FILTER, 6), (FilterParams((1.0,)), 3), (FilterParams((0.5, -1.0)), 3)]
)
def test_edge_counts_that_differ_cut_the_ladder_to_the_witness(count_calls, h, depth):
    g1, g2 = _independent_sparse_pair()
    walks = count_calls(gnn, "diag_powers")
    report = discriminate_pair(g1, g2, PairConfig(filter=h, check_conditions=True))
    # p_2 = 2m differs: condition 1 is proven at k = 2 < 10, so the ladders
    # stop at max(len(filter), 3) columns instead of condition_depth = 10
    assert [args[1] for args in walks] == [depth, depth]
    assert report.spectral_witness == (2, 2 * g1.num_edges, 2 * g2.num_edges)
    assert report.conditions == spectral.ConditionReport(True, None, None, "separable")


def test_node_counts_that_differ_prove_condition_1_from_one_column(count_calls):
    rng = np.random.default_rng(113)
    g1, g2 = erdos_renyi(30, 0.2, rng), erdos_renyi(31, 0.2, rng)
    walks = count_calls(gnn, "diag_powers")
    compares = count_calls(discriminate, "embeddings_isomorphic")
    for h, depth in ((FilterParams((1.0,)), 1), (PAIR_FILTER, 6)):
        del walks[:], compares[:]
        report = discriminate_pair(g1, g2, PairConfig(filter=h, check_conditions=True, condition_depth=4))
        assert [args[1] for args in walks] == [depth, depth]
        assert report.spectral_witness == (0, 30, 31)
        assert report.conditions == spectral.ConditionReport(True, None, None, "separable")
        assert len(compares) == 1  # the module outputs only, no walk rows


@pytest.mark.parametrize("condition_depth", [1, 2, 3])
def test_edge_counts_decide_condition_1_only_below_condition_depth(count_calls, condition_depth):
    g1, g2 = _independent_sparse_pair(60, 127)
    walks = count_calls(gnn, "diag_powers")
    compares = count_calls(discriminate, "embeddings_isomorphic")
    checks = count_calls(spectral, "check_separability_conditions")
    config = PairConfig(filter=FilterParams((1.0,)), check_conditions=True, condition_depth=condition_depth)
    report = discriminate_pair(g1, g2, config)
    # columns 0 and 1 are the same on every graph of one size: at depth <= 2
    # condition 1 fails on the rows and the spectral conditions are looked for
    assert [args[1] for args in walks] == [condition_depth] * 2
    assert len(compares) == (2 if condition_depth <= 2 else 1)
    assert len(checks) == (1 if condition_depth <= 2 else 0)
    assert report.conditions.cond1_signals_differ is (condition_depth > 2)


def test_depth_rule_reports_match_full_depth_ladders(monkeypatch, prism, k33, bihexagon, bipentagon):
    rng = np.random.default_rng(137)
    pairs = [(prism, k33), (bihexagon, bipentagon), _cospectral_pair(), (prism, corpus_graph("bihexagon"))]
    pairs += [(erdos_renyi(n, 8 / n, rng), erdos_renyi(n, 8 / n, rng)) for n in (20, 50, 150)]
    pairs += [(erdos_renyi(40, 0.1, rng), erdos_renyi(45, 0.1, rng))]
    pairs += [(csl_base_graph(41, 2), csl_base_graph(41, 3))]  # equal n and m
    configs = [
        PairConfig(filter=h, check_conditions=check, condition_depth=d)
        for h in (FilterParams((1.0,)), FilterParams((0.5, -1.0)), PAIR_FILTER, CSL_FILTER)
        for check in (False, True)
        for d in (1, 2, 3, 10)
    ]
    reports = [discriminate_pair(g1, g2, c).to_json() for g1, g2 in pairs for c in configs]
    # the reference: the counts-only witness finds nothing, so every ladder
    # is max(len(filter), condition_depth) deep and condition 1 is decided on
    # rows. The witness over ladders still reads p_0..p_2 from the counts
    ladder_witness = spectral._power_sum_witness
    monkeypatch.setattr(
        spectral, "_power_sum_witness", lambda g1, g2, *walks: ladder_witness(g1, g2, *walks) if walks else None
    )
    assert [discriminate_pair(g1, g2, c).to_json() for g1, g2 in pairs for c in configs] == reports


def test_power_sums_through_p_n_skip_conditions_2_and_3(count_calls, prism, k33, bihexagon):
    # relabeled pairs that 1-WL leaves symmetric, so they take the full path
    # and condition 1 fails. Ladders are max(6, depth) deep and admit every
    # column here; only n < columns covers p_0..p_n, whose tie proves the
    # spectra equal, so the spectral conditions are skipped
    rng = np.random.default_rng(139)
    swap = Permutation((3, 5, 0, 4, 1, 2))  # not an automorphism of either 6-node graph
    csl = csl_base_graph(41, 5)
    pairs = [(g, apply_permutation(g, swap)) for g in (prism, k33)]
    pairs += [(g, apply_permutation(g, Permutation.random(g.n, rng))) for g in (bihexagon, csl)]
    checks = count_calls(spectral, "check_separability_conditions")
    eigvalsh = count_calls(np.linalg, "eigvalsh")
    calls = {}
    for g, h in pairs:
        assert wl._certify(g, h)[1] is None
        for depth in (3, 6, 10):
            del checks[:], eigvalsh[:]
            report = discriminate_pair(g, h, PairConfig(check_conditions=True, condition_depth=depth))
            assert report.conditions == spectral.ConditionReport(False, None, None, "inconclusive")
            assert (report.spectral_verdict, report.spectral_witness) == ("inconclusive", None)
            calls[g.name, depth] = (len(checks), len(eigvalsh))
    # at depth 6 the 6-node pairs sit on the boundary: p_6 is not in the
    # ladder. Where p_0..p_n tie no eigenvalue is computed either
    expected = {(g.name, d): (int(g.n >= max(6, d)), 2 * int(g.n >= max(6, d))) for g, _ in pairs for d in (3, 6, 10)}
    assert calls == expected and sum(c for c, _ in expected.values()) == 10


def _sparse_edge_array(n, rng):
    """Edges of a sparse graph on n nodes, mean degree about 8, drawn as codes u n + v with no n x n array."""
    u, v = np.divmod(np.unique(rng.integers(0, n * n, 8 * n)), n)
    return np.column_stack([u[u < v], v[u < v]])


def test_no_library_call_leaves_state_on_a_graph(count_calls, float64_builds):
    # every reader of the dense adjacency builds it per call and drops it, so
    # afterwards each graph holds its three fields and nothing else
    reached = [count_calls(np.linalg, "eigvalsh"), count_calls(spectral, "check_separability_conditions"),
               count_calls(spectral, "eigendecompose")]
    g1, g2 = _independent_sparse_pair(60, 127)
    # condition 1 fails at depth 2, so conditions 2 and 3 are looked for on
    # values-first spectra, whose unmatched groups form eigenvectors
    config = PairConfig(filter=FilterParams((1.0,)), check_conditions=True, condition_depth=2)
    assert discriminate_pair(g1, g2, config).conditions.separable
    assert all(reached) and g1 in float64_builds and g2 in float64_builds
    g = erdos_renyi(10, 0.4, np.random.default_rng(149))
    h = apply_permutation(g, Permutation.random(10, np.random.default_rng(151)))
    # each direct reader builds a graph's matrix once per call
    for call, reads in [
        (lambda: eigendecompose(g), [g]),
        (lambda: gnn.graph_filter(g, PAIR_FILTER, np.ones(g.n)), [g]),
        (lambda: gnn_layer(g, np.ones((g.n, 2)), [np.eye(2)] * 3), [g]),
        (lambda: gnn.stochastic_variance(g, PAIR_FILTER, gnn.StochasticConfig(samples=64)), [g]),
        (lambda: is_isomorphic_bruteforce(g, h), [g, h]),
    ]:
        float64_builds.clear()
        call()
        assert float64_builds == reads
    for x in (g1, g2, g, h):
        assert set(vars(x)) == {"n", "edge_index", "name"}


def test_sparse_pairs_hold_no_dense_matrix(float64_builds):
    n = 2000
    rng = np.random.default_rng(101)
    g = Graph(n, edges=_sparse_edge_array(n, rng))
    pairs = [(g, apply_permutation(g, Permutation.random(n, rng)), "inconclusive")]
    g1, g2 = (Graph(n, edges=_sparse_edge_array(n, rng)) for _ in range(2))
    pairs.append((g1, g2, "separable"))
    for g1, g2, overall in pairs:
        report, peak = traced_peak(lambda: discriminate_pair(g1, g2))
        assert report.overall == overall
        # the ladder's S^2 (uint8 here, allowed float32's bytes), its result
        # and a few cache-sized blocks: no n x n float64 array, and no dense
        # adjacency read
        assert peak <= 4 * n**2 + 8 * 6 * n + 3 * 8 * gnn._CHUNK_VALUES
        assert float64_builds == []


def test_dense_pairs_hold_no_float64_matrix(float64_builds):
    n = 600
    rng = np.random.default_rng(103)
    g = erdos_renyi(n, 0.5, rng)
    nnz = len(g.edge_index[1])
    ladder = 4 * 3 * n**2 + 8 * 6 * n + 3 * 8 * gnn._CHUNK_VALUES
    pairs = [(g, apply_permutation(g, Permutation.random(n, rng)), "inconclusive", 8 * 3 * nnz),
             (g, erdos_renyi(n, 0.5, rng), "separable", 0)]
    for g1, g2, overall, certificate in pairs:
        report, peak = traced_peak(lambda: discriminate_pair(g1, g2))
        assert report.overall == overall
        # the ladder's S, S^2 and S^3 as float32, its result and three
        # cache-sized blocks. On the certified pair 1-WL comes first, and it
        # holds at most three arrays over one graph's edge index: a sum
        # round's gathered weights, or the map check's two arrays of edge
        # codes and one gather. No exact round runs, so no edge array of the
        # union is built. No n x n float64 array, and no adjacency read
        assert peak <= max(ladder, certificate + 3 * 8 * gnn._CHUNK_VALUES)
        assert float64_builds == []
