"""Pair discrimination pipeline, CSL benchmark, and report serialization.

`discriminate_pair` runs the three mechanisms side by side on a graph pair:
color refinement, grouped-spectrum comparison, and the closed-walk module
with a fixed filter. The CSL half generates the 150-graph circulant benchmark
and classifies it with a single untrained closed-walk score per graph.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from . import gnn, spectral, wl
from .gnn import FilterParams, Nonlinearity
from .graphs import Graph, from_edge_list
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
        depth = self.condition_depth
        if isinstance(depth, bool) or not isinstance(depth, (int, np.integer)) or depth < 1:
            raise ConfigError(f"condition_depth must be an integer >= 1, got {depth!r}")


@dataclass(frozen=True)
class DiscriminationReport:
    pair: tuple[str, str]
    wl: str                                  # "indistinguishable" | "distinguished"
    spectral_verdict: str                    # "separable" | "inconclusive"
    spectral_witness: float | None
    diag_verdict: str                        # "separable" | "inconclusive"
    diag_outputs: tuple[tuple[float, ...], tuple[float, ...]]
    conditions: spectral.ConditionReport | None
    overall: str                             # "separable" | "inconclusive"

    def to_dict(self) -> dict:
        t1 = None
        if self.conditions is not None:
            t1 = {
                "cond1_signals_differ": self.conditions.cond1_signals_differ,
                "cond2_witness": list(self.conditions.cond2_witness)
                if self.conditions.cond2_witness
                else None,
                "cond3_witness": list(self.conditions.cond3_witness)
                if self.conditions.cond3_witness
                else None,
                "verdict": self.conditions.verdict,
            }
        return {
            "pair": list(self.pair),
            "wl": self.wl,
            "spectral": {"verdict": self.spectral_verdict, "witness": self.spectral_witness},
            "diag_gnn": {
                "verdict": self.diag_verdict,
                "outputs": [list(self.diag_outputs[0]), list(self.diag_outputs[1])],
            },
            "conditions": t1,
            "overall": self.overall,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(d: dict) -> "DiscriminationReport":
        t1 = None
        if d.get("conditions") is not None:
            raw = d["conditions"]
            t1 = spectral.ConditionReport(
                raw["cond1_signals_differ"],
                tuple(raw["cond2_witness"]) if raw["cond2_witness"] else None,
                tuple(raw["cond3_witness"]) if raw["cond3_witness"] else None,
                raw["verdict"],
            )
        return DiscriminationReport(
            pair=tuple(d["pair"]),
            wl=d["wl"],
            spectral_verdict=d["spectral"]["verdict"],
            spectral_witness=d["spectral"]["witness"],
            diag_verdict=d["diag_gnn"]["verdict"],
            diag_outputs=(
                tuple(d["diag_gnn"]["outputs"][0]),
                tuple(d["diag_gnn"]["outputs"][1]),
            ),
            conditions=t1,
            overall=d["overall"],
        )

    @staticmethod
    def from_json(text: str) -> "DiscriminationReport":
        return DiscriminationReport.from_dict(json.loads(text))


def discriminate_pair(g1: Graph, g2: Graph, config: PairConfig = PairConfig()) -> DiscriminationReport:
    """Run color refinement, spectrum comparison, and the closed-walk module.

    overall is "separable" iff at least one method separates the pair; an
    inconclusive report never implies the graphs are isomorphic. Each graph's
    walk counts and spectrum are computed once and shared by every mechanism.

    The spectrum is built values-first: eigenvalues from eigvalsh, checked
    against the walk counts by sum_i lambda_i^k = sum_v diag(S^k)_v (a
    spectral.ConvergenceFailure when they disagree beyond rounding).
    Eigenvectors are formed only for the groups that conditions 2 and 3
    visit, so the default path and relabeled pairs form none.

    When refinement leaves equal colorings, their candidate map is checked
    edge for edge (wl._verified_map). A map that passes proves the pair
    isomorphic, and every verdict follows from that: only g1's walk counts
    are built (to depth len(filter)), g2's are g1's rows moved by the map,
    and no eigenvalue is computed. Pairs it does not certify, such as
    vertex-transitive ones, take the full path.
    """
    colorings = wl._joint_refinement(g1, g2)
    wl_verdict = "distinguished" if colorings is None else "indistinguishable"
    mapping = None if colorings is None else wl._verified_map(g1, g2, colorings)

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
        depth = max(len(config.filter), config.condition_depth if config.check_conditions else 0)
        x1, x2 = gnn.diag_powers(g1, depth), gnn.diag_powers(g2, depth)

        s1, s2 = spectral._values_first(g1, x1), spectral._values_first(g2, x2)
        witness = spectral.spectra_differ(s1, s2, config.tol)
        spectral_verdict = "separable" if witness is not None else "inconclusive"

        y1 = gnn._walk_readout(x1, config.filter, config.sigma)
        y2 = gnn._walk_readout(x2, config.filter, config.sigma)
        diag_same = embeddings_isomorphic(y1, y2, config.tol)
        diag_verdict = "inconclusive" if diag_same else "separable"

        if config.check_conditions:
            d = config.condition_depth
            conditions = spectral.check_separability_conditions(
                s1, s2, x1[:, :d], x2[:, :d], config.tol
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
        spectral_witness=None if witness is None else float(witness),
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
        seen = set()
        for r in self.skips:
            _check_skip(self.n, r)
            if r in seen:
                raise InvalidSkipError(f"skip {r} listed twice")
            seen.add(r)
        c = self.copies_per_class
        if isinstance(c, bool) or not isinstance(c, (int, np.integer)) or c < 0:
            raise ValueError(f"copies_per_class must be an integer >= 0, got {c!r}")

    @property
    def total_graphs(self) -> int:
        return len(self.skips) * self.copies_per_class


def _check_skip(n: int, skip) -> None:
    """Raise InvalidSkipError unless skip is an integer with 1 < skip < n/2."""
    if isinstance(skip, bool) or not isinstance(skip, (int, np.integer)):
        raise InvalidSkipError(f"skip must be an integer, got {skip!r}")
    if not 1 < skip < n / 2:
        raise InvalidSkipError(f"skip {skip} outside 1 < R < n/2 = {n / 2}")


def csl_base_graph(n: int, skip: int) -> Graph:
    """Circulant on n nodes with cycle edges (i, i+1) and skips (i, i+skip)."""
    _check_skip(n, skip)
    edges = set()
    for i in range(n):
        for step in (1, skip):
            u, v = i, (i + step) % n
            edges.add((min(u, v), max(u, v)))
    return from_edge_list(n, sorted(edges), name=f"csl-{n}-{skip}")


def csl_generate(spec: CslSpec = CslSpec()) -> list[tuple[Graph, int]]:
    """The benchmark dataset: copies_per_class random relabelings per class.

    Every graph is 4-regular; copies within a class are isomorphic by
    construction. Deterministic in spec.seed.
    """
    from .graphs import Permutation, apply_permutation

    rng = np.random.default_rng(spec.seed)
    dataset = []
    for label, skip in enumerate(spec.skips):
        base = csl_base_graph(spec.n, skip)
        for copy in range(spec.copies_per_class):
            perm = Permutation.random(spec.n, rng)
            g = apply_permutation(base, perm)
            g = Graph(g.n, g.adjacency, name=f"csl-{spec.n}-{skip}-{copy}")
            dataset.append((g, label))
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
    Returns (accuracy, per-graph scores in dataset order).
    """
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
    filters = []
    for k in range(depth):
        coeffs = [0.0] * depth
        coeffs[k] = 1.0
        filters.append(FilterParams(tuple(coeffs)))
    return DiagLayer(tuple(filters), sigma)


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
            pair = f"{r.pair[0]}|{r.pair[1]}"
            if r.error is not None:
                lines.append(f"{pair},error,error,error,error,{r.millis:.3f}")
            else:
                lines.append(
                    f"{pair},{r.wl},{r.spectral},{r.diag},{r.overall},{r.millis:.3f}"
                )
        return "\n".join(lines) + "\n"


def run_benchmark(pairs, config: PairConfig = PairConfig()) -> BenchmarkSummary:
    """discriminate_pair over many pairs; per-pair errors are recorded, not raised."""
    rows = []
    for g1, g2 in pairs:
        names = (getattr(g1, "name", None) or "graph1", getattr(g2, "name", None) or "graph2")
        start = time.perf_counter()
        try:
            report = discriminate_pair(g1, g2, config)
            millis = (time.perf_counter() - start) * 1e3
            rows.append(
                BenchmarkRow(
                    report.pair, report.wl, report.spectral_verdict,
                    report.diag_verdict, report.overall, millis,
                )
            )
        except Exception as exc:  # noqa: BLE001 - deliberately collected
            millis = (time.perf_counter() - start) * 1e3
            rows.append(BenchmarkRow(names, "", "", "", "", millis, error=str(exc)))
    rows.sort(key=lambda r: r.pair)
    return BenchmarkSummary(tuple(rows))
