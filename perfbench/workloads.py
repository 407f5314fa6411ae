"""The benchmark workloads: inputs made from a seed, ops, and their checks.

Every workload is a fixed list of ops. A run repeats the whole list ("a round")
so each input is timed the same number of times. Inputs are built here with
numpy and handed to the library as `Graph` objects, so a change to the
library's own generators cannot change what is measured.

An op's check returns None when the output is right, or a `Failure`. A failure
marked `known` is the open false-separation defect of dense isomorphic pairs:
it is counted in `failed` and `error_rate` like any other, but it does not make
the run incorrect, so the baseline shows the defect instead of being refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from spectrawl import discriminate, gnn
from spectrawl.graphs import Graph, corpus_graph

#: one representative skip per isomorphism class of 41-node circulants
CSL_SKIPS = (2, 3, 4, 5, 6, 9, 11, 12, 13, 16)
CSL_N = 41
MC_SAMPLES = 1_000_000
MC_SE_BOUND = 5.0


@dataclass(frozen=True)
class Failure:
    reason: str
    known: bool = False


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Failure | None]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    largest_matrix_bytes: int  # for the cache-fit statement in the provenance
    #: fixed tail percentile, or None when a run has too few ops for one
    tail_pct: float | None


# ---------------------------------------------------------------------------
# input generation (numpy only)
# ---------------------------------------------------------------------------


def gnp(n: int, p: float, rng: np.random.Generator, name: str) -> Graph:
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return Graph(n, (upper | upper.T).astype(np.float64), name)


def relabel(g: Graph, rng: np.random.Generator, name: str) -> Graph:
    q = rng.permutation(g.n)
    b = np.empty_like(g.adjacency)
    b[np.ix_(q, q)] = g.adjacency
    return Graph(g.n, b, name)


def circulant(n: int, skip: int, name: str) -> Graph:
    a = np.zeros((n, n))
    i = np.arange(n)
    for step in (1, skip):
        a[i, (i + step) % n] = a[(i + step) % n, i] = 1.0
    return Graph(n, a, name)


# ---------------------------------------------------------------------------
# pair workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairInput:
    g1: Graph
    g2: Graph
    isomorphic: bool
    dense: bool = False
    circulants: bool = False  # both 4-regular on CSL_N nodes


def check_pair(pair: PairInput, report) -> Failure | None:
    if pair.isomorphic:
        if report.overall == "separable":
            return Failure(f"{report.pair}: isomorphic pair declared separable", known=pair.dense)
        return None
    degrees_differ = sorted(pair.g1.degrees) != sorted(pair.g2.degrees)
    if degrees_differ and report.wl != "distinguished":
        return Failure(f"{report.pair}: degree sequences differ but 1-WL missed it")
    if pair.circulants:
        if report.wl != "indistinguishable":
            return Failure(f"{report.pair}: 1-WL separated two 4-regular graphs")
        if report.overall != "separable":
            return Failure(f"{report.pair}: circulants of different classes not separated")
    return None


def pair_op(label: str, pair: PairInput, config) -> Op:
    return Op(
        label,
        lambda: discriminate.discriminate_pair(pair.g1, pair.g2, config),
        lambda report: check_pair(pair, report),
    )


def pair_large(rng: np.random.Generator, tiny: bool = False) -> Workload:
    """Few large pairs with the condition test: dense BLAS work dominates."""
    sparse_sizes, dense_sizes = ((50, 100), (30, 60)) if tiny else ((500, 1000), (300, 600))
    config = discriminate.PairConfig(check_conditions=True)
    ops = []
    for kind, sizes in (("sparse", sparse_sizes), ("dense", dense_sizes)):
        for n in sizes:
            p = 0.5 if kind == "dense" else 8.0 / n
            g = gnp(n, p, rng, f"{kind}-{n}")
            iso = PairInput(g, relabel(g, rng, f"{kind}-{n}-relabeled"), True, kind == "dense")
            ops.append(pair_op(f"{kind}-{n}-iso", iso, config))
            other = PairInput(g, gnp(n, p, rng, f"{kind}-{n}-b"), False)
            ops.append(pair_op(f"{kind}-{n}-indep", other, config))
    return Workload("pair_large", tuple(ops), max(sparse_sizes + dense_sizes) ** 2 * 8, None)


def pair_small(rng: np.random.Generator, tiny: bool = False) -> Workload:
    """Hundreds of small default-config pairs: per-call Python overhead dominates."""
    per_kind = 4 if tiny else 100
    config = discriminate.PairConfig()
    ops = []
    # sizes are a fixed grid, so the seed changes the graphs but not the work
    sizes = [20 + (100 * i) // (per_kind - 1) for i in range(per_kind)]
    for i, n in enumerate(sizes):
        g = gnp(n, min(1.0, 8.0 / n), rng, f"sparse-{n}-{i}")
        pair = PairInput(g, relabel(g, rng, f"sparse-{n}-{i}-relabeled"), True)
        ops.append(pair_op(f"sparse-iso-{i}", pair, config))
    for i, n in enumerate(sizes):
        p = min(1.0, 8.0 / n)
        pair = PairInput(gnp(n, p, rng, f"sparse-{n}-{i}a"), gnp(n, p, rng, f"sparse-{n}-{i}b"), False)
        ops.append(pair_op(f"sparse-indep-{i}", pair, config))
    for i in range(per_kind):
        r1, r2 = (int(r) for r in rng.choice(CSL_SKIPS, size=2))
        g1 = relabel(circulant(CSL_N, r1, ""), rng, f"csl-{r1}-{i}a")
        g2 = relabel(circulant(CSL_N, r2, ""), rng, f"csl-{r2}-{i}b")
        pair = PairInput(g1, g2, r1 == r2, circulants=True)
        ops.append(pair_op(f"csl-{r1}-{r2}-{i}", pair, config))
    return Workload("pair_small", tuple(ops), 120**2 * 8, 99.0)


# ---------------------------------------------------------------------------
# CSL set and Monte-Carlo workloads
# ---------------------------------------------------------------------------


def check_csl(result) -> Failure | None:
    accuracy, scores = result
    if accuracy != 1.0:
        return Failure(f"CSL accuracy {accuracy} below 1.0")
    if len(set(scores)) != len(CSL_SKIPS):
        return Failure(f"CSL set gave {len(set(scores))} distinct scores, not {len(CSL_SKIPS)}")
    return None


def csl_op(seed: int) -> Op:
    spec = discriminate.CslSpec(seed=seed)
    return Op(
        f"csl-seed-{seed}",
        lambda: discriminate.csl_classify(discriminate.csl_generate(spec), spec),
        check_csl,
    )


def csl_sets(rng: np.random.Generator, count: int) -> tuple[Op, ...]:
    return tuple(csl_op(int(s)) for s in rng.integers(0, 2**31, size=count))


def csl(rng: np.random.Generator, tiny: bool = False) -> Workload:
    """Generate and classify the 150-graph CSL set: graph construction plus the classifier."""
    return Workload("csl", csl_sets(rng, 2 if tiny else 8), CSL_N**2 * 8, 95.0)


def mc_op(g: Graph, distribution: str, seed: int, samples: int) -> Op:
    h = discriminate.PAIR_FILTER
    cfg = gnn.StochasticConfig(samples=samples, seed=seed, distribution=distribution)
    closed = gnn.diagonal_module(g, gnn.self_convolve(h), gnn.LINEAR)

    def check(result) -> Failure | None:
        estimate, stderr = result
        z = np.abs(estimate - closed) / stderr
        if not np.all(z <= MC_SE_BOUND):
            return Failure(f"{g.name}/{distribution}: node off by {float(np.max(z)):.2f} SE")
        return None

    return Op(f"{g.name}-{distribution}", lambda: gnn.stochastic_variance(g, h, cfg), check)


def mc_ops(rng: np.random.Generator, tiny: bool) -> tuple[Op, ...]:
    """White-input variance at 10^6 samples: the only caller of the sampler."""
    skip = int(rng.choice(CSL_SKIPS))
    graphs = (corpus_graph("prism"), corpus_graph("bihexagon"), circulant(CSL_N, skip, f"csl-{skip}"))
    samples = 10_000 if tiny else MC_SAMPLES
    return tuple(
        mc_op(g, dist, int(rng.integers(0, 2**31)), samples)
        for g in graphs
        for dist in ("gaussian", "rademacher")
    )


def closed_walk(rng: np.random.Generator, tiny: bool = False) -> Workload:
    """Six 10^6-sample sampler calls, then two CSL sets.

    The sampler calls set the timings: the two CSL sets take about 1 % of the
    summed per-input medians, and the median input is always a sampler call.
    The CSL sets are here so that a traced run of a gated workload covers
    graph construction and the classifier; their end-to-end cost shows only
    in the `csl` workload.
    """
    # the sampler filters blocks of 2^20 float64 values (samples x n)
    return Workload("closed_walk", mc_ops(rng, tiny) + csl_sets(rng, 2), 2**20 * 8, None)


WORKLOADS = {
    "pair_large": pair_large,
    "pair_small": pair_small,
    "csl": csl,
    "closed_walk": closed_walk,
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](np.random.default_rng(seed), tiny)
