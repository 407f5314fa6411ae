"""Pair discrimination pipeline, CSL benchmark, and report serialization.

`discriminate_pair` runs the three mechanisms side by side on a graph pair:
color refinement, grouped-spectrum comparison, and the closed-walk module
with a fixed filter. The CSL half generates the 150-graph circulant benchmark
and classifies it with a single untrained closed-walk score per graph.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import gnn, spectral, wl
from .gnn import FilterParams, Nonlinearity
from .graphs import Graph, Permutation, _check_int, from_edge_list
from .spectral import embeddings_isomorphic


class InvalidSkipError(ValueError):
    pass


class ConfigError(ValueError):
    pass


#: filter used for the worked pair examples: (10, 1, -1/2, 1/3, -1/4, 1/5)
PAIR_FILTER = FilterParams((10.0, 1.0, -1 / 2, 1 / 3, -1 / 4, 1 / 5))

#: alternating-coefficient length-10 filter used for CSL scoring
CSL_FILTER = FilterParams((0.0, 1.0, -1 / 2, 1 / 3, -1 / 4, 1 / 5, -1 / 6, 1 / 7, -1 / 8, 1 / 9))


@dataclass(frozen=True)
class PairConfig:
    """Knobs for discriminate_pair; defaults match the worked examples."""

    filter: FilterParams = PAIR_FILTER
    sigma: Nonlinearity = gnn.RELU
    tol: float = 1e-6               # eigenvalue matching and row-multiset resolution
    check_conditions: bool = False  # also run the three-condition feature test
    condition_depth: int = 10       # closed-walk feature depth for that test

    def __post_init__(self):
        spectral._check_tol(self.tol)
        if not isinstance(self.filter, FilterParams):
            raise ConfigError(f"filter must be a FilterParams, got {type(self.filter).__name__}")
        try:
            object.__setattr__(self, "sigma", gnn.as_nonlinearity(self.sigma))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"sigma must be a Nonlinearity or its name: {exc}") from None
        if not isinstance(self.check_conditions, (bool, np.bool_)):
            raise ConfigError(f"check_conditions must be a bool, got {self.check_conditions!r}")
        _check_int(self.condition_depth, "condition_depth", 1, ConfigError)


@dataclass(frozen=True)
class DiscriminationReport:
    pair: tuple[str, str]
    wl: str                                  # "indistinguishable" | "distinguished"
    spectral_verdict: str                    # "separable" | "inconclusive"
    spectral_witness: float | tuple[int, int, int] | None  # eigenvalue, or (k, p_k(g1), p_k(g2))
    diag_verdict: str                        # "separable" | "inconclusive"
    diag_outputs: tuple[tuple[float, ...], tuple[float, ...]]
    conditions: spectral.ConditionReport | None
    overall: str                             # "separable" | "inconclusive"

    def to_dict(self) -> dict:
        # one key per ConditionReport field, each witness tuple a JSON list
        conditions = None if self.conditions is None else {
            k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self.conditions).items()
        }
        w = self.spectral_witness
        return {
            "pair": list(self.pair),
            "wl": self.wl,
            "spectral": {"verdict": self.spectral_verdict, "witness": list(w) if isinstance(w, tuple) else w},
            "diag_gnn": {"verdict": self.diag_verdict, "outputs": [list(y) for y in self.diag_outputs]},
            "conditions": conditions,
            "overall": self.overall,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(d: dict) -> "DiscriminationReport":
        raw = d.get("conditions")
        conditions = None if raw is None else spectral.ConditionReport(**{
            f.name: tuple(raw[f.name]) if isinstance(raw[f.name], list) else raw[f.name]
            for f in fields(spectral.ConditionReport)
        })
        witness = d["spectral"]["witness"]
        return DiscriminationReport(
            pair=tuple(d["pair"]),
            wl=d["wl"],
            spectral_verdict=d["spectral"]["verdict"],
            spectral_witness=tuple(witness) if isinstance(witness, list) else witness,
            diag_verdict=d["diag_gnn"]["verdict"],
            diag_outputs=tuple(tuple(y) for y in d["diag_gnn"]["outputs"]),
            conditions=conditions,
            overall=d["overall"],
        )

    @staticmethod
    def from_json(text: str) -> "DiscriminationReport":
        return DiscriminationReport.from_dict(json.loads(text))


def _low_power_sum_gap(g1: Graph, g2: Graph) -> int | None:
    """The first k whose power sums p_k are known to differ before any ladder is built.

    p_0, p_1 and p_2 come from the node and edge counts
    (spectral._low_power_sums): 0 when the node counts differ, 2 when only
    the edge counts do, else None.
    """
    gaps = np.flatnonzero(spectral._low_power_sums(g1) != spectral._low_power_sums(g2))
    return int(gaps[0]) if gaps.size else None


def discriminate_pair(g1: Graph, g2: Graph, config: PairConfig = PairConfig()) -> DiscriminationReport:
    """Run color refinement, spectrum comparison, and the closed-walk module.

    overall is "separable" iff at least one method separates the pair; an
    inconclusive report never implies the graphs are isomorphic. Each graph's
    walk counts are computed once and shared by every mechanism.

    The spectral verdict is proven from the walk counts first: their column
    sums are the power sums p_k = trace(S^k) = sum_i lambda_i^k, exact where
    spectral._power_sum_witness admits them, and the first k whose p_k differ
    is the witness (k, p_k(g1), p_k(g2)); no eigenvalue is computed then.
    When every admitted power sum ties, with p_0..p_n among them (n the node
    count, so fewer nodes than admitted columns), Newton's identities make
    the characteristic polynomials equal: the spectra are equal, and the
    spectral verdict is inconclusive with no eigenvalue computed either.
    Only when every admitted p_k ties short of p_n is the spectrum built
    values-first: eigenvalues from eigvalsh, checked against the walk counts
    by the same trace identity (a spectral.ConvergenceFailure when they
    disagree beyond rounding), compared at tol, and the witness is an
    eigenvalue.

    With check_conditions, condition 1 (the walk rows differ as multisets)
    decides alone when it holds. When it fails and p_0..p_n tie, conditions
    2 and 3 cannot hold on the equal spectra, and the report is inconclusive
    without looking for them.
    Otherwise they are looked for on the values-first spectra, which form
    eigenvectors, by one full decomposition per graph, only when some
    eigenvalue group is unmatched. The ladders are condition_depth deep,
    unless the node counts (p_0) or edge counts (p_2 = 2m) differ at some k
    below condition_depth: then column k's sums differ, which proves
    condition 1 without comparing rows, and the ladders stop at
    max(len(filter), k + 1) columns, enough for the same power-sum witness.

    The WL verdict comes from wl._certify, the joint 1-WL refinement that
    wl_distinguish also runs, with a candidate map checked edge for edge
    (wl._verified_map) once per pair, where the colorings tie. Its rounds
    rank exact integer sums of color weights, with an exact 1-WL round
    wherever the sums split no class. A map that passes proves the pair
    isomorphic, and every verdict follows from that: only g1's walk counts
    are built (to depth len(filter)), g2's are g1's rows moved by the map,
    and no eigenvalue is computed. Pairs it does not certify, such as
    vertex-transitive ones, take the full path.
    """
    colorings, mapping = wl._certify(g1, g2)
    wl_verdict = "distinguished" if colorings is None else "indistinguishable"

    conditions = None
    if mapping is not None:
        # a proven isomorphism: equal spectra, walk rows equal up to the map,
        # no condition can hold, so one ladder serves both graphs. Node
        # mapping[v] of g2 takes v's row: g2's rows are x1 at the inverse map
        x1 = gnn.diag_powers(g1, len(config.filter))
        y1 = gnn._walk_readout(x1, config.filter, config.sigma)
        y2 = gnn._walk_readout(x1[np.argsort(mapping)], config.filter, config.sigma)
        witness, spectral_verdict, diag_verdict = None, "inconclusive", "inconclusive"
        if config.check_conditions:
            conditions = spectral.ConditionReport(False, None, None, "inconclusive")
    else:
        d = config.condition_depth if config.check_conditions else 0
        # column k's sums differ, so the walk rows do, at any tol: its entries
        # are small exact integers, which the row compare's rounding keeps.
        # Below d that proves condition 1, and the ladders need k + 1 columns
        k = _low_power_sum_gap(g1, g2)
        rows_differ = k is not None and k < d
        depth = max(len(config.filter), k + 1 if rows_differ else d)
        x1, x2 = gnn.diag_powers(g1, depth), gnn.diag_powers(g2, depth)
        # formed on first call: by the fallback below, or for conditions 2 and 3
        spectra = functools.cache(lambda: (spectral._values_first(g1, x1), spectral._values_first(g2, x2)))

        witness = spectral._power_sum_witness(g1, g2, x1, x2)
        # p_0..p_n tie, which fixes the characteristic polynomial
        spectra_equal = witness is None and spectral._admitted_columns(g1, g2, depth) > g1.n
        if witness is None and not spectra_equal:
            witness = spectral.spectra_differ(*spectra(), config.tol)
        spectral_verdict = "separable" if witness is not None else "inconclusive"

        y1 = gnn._walk_readout(x1, config.filter, config.sigma)
        y2 = gnn._walk_readout(x2, config.filter, config.sigma)
        diag_same = embeddings_isomorphic(y1, y2, config.tol)
        diag_verdict = "inconclusive" if diag_same else "separable"

        if config.check_conditions:
            if rows_differ or not embeddings_isomorphic(x1[:, :d], x2[:, :d], config.tol):
                conditions = spectral.ConditionReport(True, None, None, "separable")
            elif spectra_equal:
                conditions = spectral.ConditionReport(False, None, None, "inconclusive")
            else:
                conditions = spectral.check_separability_conditions(
                    *spectra(), x1[:, :d], x2[:, :d], config.tol
                )

    separable = (
        wl_verdict == "distinguished"
        or spectral_verdict == "separable"
        or diag_verdict == "separable"
        or (conditions is not None and conditions.separable)
    )
    return DiscriminationReport(
        pair=(g1.name or "graph1", g2.name or "graph2"),
        wl=wl_verdict,
        spectral_verdict=spectral_verdict,
        spectral_witness=witness,
        diag_verdict=diag_verdict,
        diag_outputs=(tuple(float(v) for v in y1), tuple(float(v) for v in y2)),
        conditions=conditions,
        overall="separable" if separable else "inconclusive",
    )


# ---------------------------------------------------------------------------
# Circular Skip Link benchmark
# ---------------------------------------------------------------------------

#: conventional skip lengths for the 41-node benchmark: one representative of
#: each of the 10 circulant isomorphism classes
DEFAULT_CSL_SKIPS = (2, 3, 4, 5, 6, 9, 11, 12, 13, 16)


@dataclass(frozen=True)
class CslSpec:
    n: int = 41
    skips: tuple[int, ...] = DEFAULT_CSL_SKIPS
    copies_per_class: int = 15
    seed: int = 0

    def __post_init__(self):
        _check_int(self.n, "n", 1)
        try:
            object.__setattr__(self, "skips", tuple(self.skips))
        except TypeError:
            raise InvalidSkipError(f"skips must be a sequence of integers, got {self.skips!r}") from None
        for i, r in enumerate(self.skips):
            _check_skip(self.n, r)
            if r in self.skips[:i]:
                raise InvalidSkipError(f"skip {r} listed twice")
        _check_int(self.copies_per_class, "copies_per_class", 0)
        _check_int(self.seed, "seed", 0)

    @property
    def total_graphs(self) -> int:
        return len(self.skips) * self.copies_per_class


def _check_skip(n: int, skip) -> None:
    """Raise InvalidSkipError unless skip is an integer with 1 < skip < n/2."""
    if _check_int(skip, "skip", 2, InvalidSkipError) >= n / 2:
        raise InvalidSkipError(f"skip {skip} outside 1 < R < n/2 = {n / 2}")


def csl_base_graph(n: int, skip: int) -> Graph:
    """Circulant on n nodes with cycle edges (i, i+1) and skips (i, i+skip)."""
    _check_skip(n, skip)  # 1 < skip < n/2, so the 2n edges are distinct
    edges = [(i, (i + step) % n) for i in range(n) for step in (1, skip)]
    return from_edge_list(n, edges, name=f"csl-{n}-{skip}")


def csl_generate(spec: CslSpec = CslSpec()) -> list[tuple[Graph, int]]:
    """The benchmark dataset: copies_per_class random relabelings per class.

    Every graph is 4-regular; copies within a class are isomorphic by
    construction. Deterministic in spec.seed.
    """
    rng = np.random.default_rng(spec.seed)
    dataset = []
    for label, skip in enumerate(spec.skips):
        edges = csl_base_graph(spec.n, skip)._edge_pairs()
        for copy in range(spec.copies_per_class):
            q = np.asarray(Permutation.random(spec.n, rng).mapping)
            dataset.append((Graph(spec.n, edges=q[edges], name=f"csl-{spec.n}-{skip}-{copy}"), label))
    return dataset


def csl_score(g: Graph, h: FilterParams = CSL_FILTER) -> float:
    """Scalar 1^T y / 1000 for the linear closed-walk module output y.

    Permutation invariant, so every relabeling of a circulant scores the same.
    """
    y = gnn.diagonal_module(g, h, gnn.LINEAR)
    return float(y.sum() / 1e3)


def csl_classify(
    dataset: list[tuple[Graph, int]], spec: CslSpec = CslSpec()
) -> tuple[float, list[float]]:
    """Nearest-centroid classification by closed-walk score.

    Centroids are the scores of the canonical (unpermuted) class circulants.
    Returns (accuracy, per-graph scores in dataset order). ValueError unless
    every label is an integer index into spec.skips.
    """
    for _, label in dataset:
        if _check_int(label, "label", 0) >= len(spec.skips):
            raise ValueError(f"label {label} has no class among skips {spec.skips}")
    centroids = np.array([csl_score(csl_base_graph(spec.n, r)) for r in spec.skips])
    scores = [csl_score(g) for g, _ in dataset]
    correct = 0
    for (_, label), score in zip(dataset, scores):
        predicted = int(np.argmin(np.abs(centroids - score)))
        correct += predicted == label
    accuracy = correct / len(dataset) if dataset else 0.0
    return accuracy, scores


# ---------------------------------------------------------------------------
# Fixed-parameter embedding pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiagLayer:
    """Input-free first layer: one closed-walk module per output feature."""

    filters: tuple[FilterParams, ...]
    sigma: Nonlinearity = gnn.LINEAR


@dataclass(frozen=True)
class ConvLayer:
    """Standard propagation layer with tap matrices H_0..H_{K-1}."""

    taps: tuple[np.ndarray, ...]
    sigma: Nonlinearity = gnn.LINEAR


def selector_diag_layer(depth: int, sigma: Nonlinearity = gnn.LINEAR) -> DiagLayer:
    """DiagLayer whose k-th filter selects diag(S^k); output = closed-walk features."""
    rows = np.eye(_check_int(depth, "depth", 1))
    return DiagLayer(tuple(FilterParams(row) for row in rows), sigma)


def anonymous_embed(g: Graph, layers) -> np.ndarray:
    """Forward pass through fixed (untrained) layers, from no input at all.

    The first layer either synthesizes its own features (DiagLayer) or is a
    ConvLayer fed the closed-walk features diag(S^0..S^{D-1}) with D taken
    from its tap shape. The two choices agree when the DiagLayer uses
    selector filters. Later layers must be ConvLayers.
    """
    layers = list(layers)
    if not layers:
        raise ConfigError("need at least one layer")
    first = layers[0]
    if isinstance(first, DiagLayer):
        walks = gnn.diag_powers(g, max(len(f) for f in first.filters))
        x = np.stack([gnn._walk_readout(walks, f, first.sigma) for f in first.filters], axis=1)
    elif isinstance(first, ConvLayer):
        d_in = np.atleast_2d(np.asarray(first.taps[0])).shape[0]
        x = gnn.gnn_layer(g, gnn.diag_powers(g, d_in), first.taps, first.sigma)
    else:
        raise ConfigError(f"unsupported first layer {type(first).__name__}")
    for layer in layers[1:]:
        if not isinstance(layer, ConvLayer):
            raise ConfigError("layers after the first must be ConvLayers")
        x = gnn.gnn_layer(g, x, layer.taps, layer.sigma)
    return x


# ---------------------------------------------------------------------------
# Batch benchmarking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BenchmarkRow:
    pair: tuple[str, str]
    wl: str
    spectral: str
    diag: str
    overall: str
    millis: float
    error: str | None = None

    @classmethod
    def from_report(cls, report: DiscriminationReport, millis: float) -> BenchmarkRow:
        verdicts = (report.wl, report.spectral_verdict, report.diag_verdict, report.overall)
        return cls(report.pair, *verdicts, millis)


@dataclass(frozen=True)
class BenchmarkSummary:
    rows: tuple[BenchmarkRow, ...]

    def counts(self) -> dict[str, int]:
        ok = [r for r in self.rows if r.error is None]
        return {
            "pairs": len(self.rows),
            "errors": len(self.rows) - len(ok),
            "wl_distinguished": sum(r.wl == "distinguished" for r in ok),
            "spectral_separable": sum(r.spectral == "separable" for r in ok),
            "diag_separable": sum(r.diag == "separable" for r in ok),
            "overall_separable": sum(r.overall == "separable" for r in ok),
        }

    def to_csv(self) -> str:
        lines = ["pair,wl,spectral,diag,overall,millis"]
        for r in self.rows:
            verdicts = ["error"] * 4 if r.error is not None else [r.wl, r.spectral, r.diag, r.overall]
            lines.append(",".join([f"{r.pair[0]}|{r.pair[1]}", *verdicts, f"{r.millis:.3f}"]))
        return "\n".join(lines) + "\n"


def run_benchmark(pairs, config: PairConfig = PairConfig()) -> BenchmarkSummary:
    """discriminate_pair over many pairs; per-pair errors are recorded, not raised."""
    rows = []
    for g1, g2 in pairs:
        names = (getattr(g1, "name", None) or "graph1", getattr(g2, "name", None) or "graph2")
        start = time.perf_counter()
        try:
            report = discriminate_pair(g1, g2, config)
            row = BenchmarkRow.from_report(report, (time.perf_counter() - start) * 1e3)
        except Exception as exc:  # noqa: BLE001 - deliberately collected
            row = BenchmarkRow(names, "", "", "", "", (time.perf_counter() - start) * 1e3, str(exc))
        rows.append(row)
    rows.sort(key=lambda r: r.pair)
    return BenchmarkSummary(tuple(rows))
