"""Anonymous GNN computational kernels.

Polynomial graph filters, the closed-walk ("diagonal") module, white-input
Monte-Carlo variance estimation, and a brute-force walk oracle. None of this
is trainable: the point is that fixed-coefficient modules already produce
node features strong enough to separate graphs that color refinement cannot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.polynomial import polynomial as npoly

from .graphs import Graph, TooLargeError, _check_int, _check_positive, _dense, _is_sparse

if TYPE_CHECKING:  # pragma: no cover
    from .spectral import Spectrum


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class FilterParams:
    """Coefficients h_0..h_{K-1} of a polynomial graph filter sum_k h_k S^k."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        try:
            c = tuple(float(x) for x in self.coeffs)
        except (TypeError, ValueError):
            raise ValueError(f"filter coefficients must be real numbers, got {self.coeffs!r}") from None
        if len(c) < 1:
            raise ValueError("filter needs at least one coefficient")
        if not all(np.isfinite(c)):
            raise ValueError("filter coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    def __len__(self) -> int:
        return len(self.coeffs)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coeffs)


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise activation. kind in {relu, leaky_relu, linear, square}."""

    kind: str
    alpha: float = 0.01  # leaky_relu slope for negative inputs

    _KINDS = ("relu", "leaky_relu", "linear", "square")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown nonlinearity {self.kind!r}; choose from {self._KINDS}")

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if self.kind == "relu":
            return np.maximum(x, 0.0)
        if self.kind == "leaky_relu":
            # exact 0 maps to 0 either way
            return np.where(x >= 0.0, x, self.alpha * x)
        if self.kind == "square":
            return x * x
        return x.copy()

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


RELU = Nonlinearity("relu")
LINEAR = Nonlinearity("linear")
SQUARE = Nonlinearity("square")


def as_nonlinearity(sigma) -> Nonlinearity:
    if isinstance(sigma, Nonlinearity):
        return sigma
    if isinstance(sigma, str):
        aliases = {"leaky": "leaky_relu"}
        return Nonlinearity(aliases.get(sigma, sigma))
    raise TypeError(f"cannot interpret {sigma!r} as a nonlinearity")


@dataclass(frozen=True)
class StochasticConfig:
    """White random input: zero mean, covariance variance * I.

    Both supported distributions are white, which is all the covariance
    identity needs; rademacher is included to demonstrate that the result
    does not depend on gaussianity.
    """

    variance: float = 1.0
    samples: int = 100_000
    seed: int = 0
    distribution: str = "gaussian"

    def __post_init__(self):
        _check_positive(self.variance, "variance")
        _check_int(self.samples, "samples", 1)
        if self.distribution not in ("gaussian", "rademacher"):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        _check_int(self.seed, "seed", 0)


def _horner(matvec, term, order: int):
    """sum_k M^k term(k) for k < order, nested as term(0) + M(term(1) + M(...)).

    matvec applies M and returns a new array. Each term is made only when the
    nesting reaches it and is added into that array, so no step allocates a sum.
    """
    acc = term(order - 1)
    for k in range(order - 2, -1, -1):
        acc = matvec(acc)
        acc += term(k)
    return acc


def graph_filter(g: Graph, h: FilterParams, x: np.ndarray) -> np.ndarray:
    """Apply z = sum_k h_k S^k x by Horner nesting (no explicit matrix powers).

    x may be a vector of length n or an (n, D) feature matrix.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != g.n:
        raise DimensionMismatchError(f"input has {x.shape[0]} rows, graph has {g.n} nodes")
    return _horner(lambda acc: g.adjacency @ acc, lambda k: h.coeffs[k] * x, len(h))


def gnn_layer(g: Graph, x: np.ndarray, taps, sigma=LINEAR) -> np.ndarray:
    """One propagation layer Y = sigma(sum_k S^k X H_k).

    taps is the list [H_0, ..., H_{K-1}] of (D_in, D_out) matrices. Evaluated
    with the same Horner nesting as graph_filter.
    """
    sigma = as_nonlinearity(sigma)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.shape[0] != g.n:
        raise DimensionMismatchError(f"input has {x.shape[0]} rows, graph has {g.n} nodes")
    hs = [np.atleast_2d(np.asarray(hk, dtype=np.float64)) for hk in taps]
    if not hs:
        raise DimensionMismatchError("need at least one tap matrix")
    for hk in hs:
        if hk.shape != hs[0].shape:
            raise DimensionMismatchError("all tap matrices must share one shape")
        if hk.shape[0] != x.shape[1]:
            raise DimensionMismatchError(
                f"tap expects {hk.shape[0]} input features, got {x.shape[1]}"
            )
    return sigma(_horner(lambda acc: g.adjacency @ acc, lambda k: x @ hs[k], len(hs)))


#: rows that a gather product accumulates at a time
_GATHER_ROWS = 32
#: float64 values per block (512 KiB) of sampled inputs, widened powers, wedge
#: counts and edge rows: small enough to stay in cache
_CHUNK_VALUES = 1 << 16


def _exact_columns(depth: int, delta: int, limit: int, n: int = 1) -> int:
    """The first column k of a depth-deep walk ladder whose values may reach limit, else depth.

    A closed walk of length k >= 1 is fixed by its first k - 1 steps, so with
    delta the maximum degree every entry of S^k is at most delta^(k-1), and
    so is every partial sum of the nonnegative integers behind it; a sum of
    column k over n nodes is at most n delta^(k-1). Integers below 2^24 are
    exact in float32 and below 2^53 in float64, so with limit at that bound
    every column before the one returned is exact. Column 0 always is.
    """
    return next((k for k in range(1, depth) if n * delta ** (k - 1) >= limit), depth)


def _gather_slots(g: Graph) -> list:
    """Slot table of the gather product, one entry per chunk of _GATHER_ROWS rows.

    An entry is (first row, the chunk's rows in descending degree order,
    slots): slot t holds the t-th neighbour of every row of degree > t, and
    those rows are a prefix of the sorted rows, so slot t adds into a prefix.
    """
    indptr, indices = g.edge_index
    table = []
    for r in range(0, g.n, _GATHER_ROWS):
        deg = np.diff(indptr[r : r + _GATHER_ROWS + 1])
        order = np.argsort(-deg, kind="stable")
        first, deg = indptr[r + order], deg[order]
        slots = [indices[first[: np.count_nonzero(deg > t)] + t] for t in range(deg.max(initial=0))]
        table.append((r, order, slots))
    return table


def _gather_product(slots, p: np.ndarray, dtype) -> np.ndarray:
    """S p for a power p of S, by gathers over a slot table (_gather_slots), as dtype.

    Each result row sums the rows of p at its neighbours, one slot at a time
    over a chunk of rows: m n additions for m nonzeros, against 2 n^3 flops
    by BLAS. The sums run in dtype, which may be wider than p's.
    """
    out = np.empty(p.shape, dtype)
    acc = np.empty((_GATHER_ROWS, p.shape[1]), dtype)
    for r, order, chunk_slots in slots:
        acc[: len(order)] = 0.0
        for nbrs in chunk_slots:
            acc[: len(nbrs)] += p[nbrs]
        out[r + order] = acc[: len(order)]
    return out


def _wedge_square(g: Graph) -> np.ndarray:
    """S^2 from the edge index, as float32: entry (i, j) counts the wedges i - k - j.

    Rows are counted a block of about _CHUNK_VALUES entries at a time: the
    wedges of the block's rows, k's neighbours j for each edge (i, k), are
    listed straight from the index and counted by one bincount, the sum of
    squared degrees additions in all. Every count is at most n - 1, so the
    block's float64 counts cast exactly into the float32 result, and no
    other n x n buffer is made.
    """
    indptr, indices = g.edge_index
    n = g.n
    deg = np.diff(indptr)
    out = np.empty((n, n), np.float32)
    block = max(1, _CHUNK_VALUES // n)
    for r in range(0, n, block):
        rows = min(block, n - r)
        k = indices[indptr[r] : indptr[r + rows]]  # the middle node of each edge's wedges
        lens = deg[k]
        # the block's t-th wedge ends at the neighbour of k at index position
        # indptr[k] + t - (the block's wedges before its edge's first)
        cells = np.repeat(indptr[k] - (np.cumsum(lens) - lens), lens)
        cells += np.arange(len(cells))
        cells = indices[cells]
        cells += np.repeat(np.repeat(np.arange(rows) * n, deg[r : r + rows]), lens)  # + i's row offset
        out[r : r + rows] = np.bincount(cells, minlength=rows * n).reshape(rows, n)
    return out


def _row_dots(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two arrays of one dtype, one BLAS dot per row.

    No n x n temporary, and past 2^53 it rounds less than a running sum
    (np.einsum) does.
    """
    return (p[:, None, :] @ q[:, :, None])[:, 0, 0]


def _edge_dots(owner: np.ndarray, indices: np.ndarray, p: np.ndarray, dtype) -> np.ndarray:
    """diag(S^5) from S^2 = p: entry i is the sum over i's edges (i, l) of <p_i, p_l>.

    S^5 = S S^2 S^2, and S^2 is symmetric. One dot per undirected edge, in
    dtype over rows of p taken a block of about _CHUNK_VALUES values at a
    time, is credited to both ends by a float64 bincount. A dot is an entry
    of S^4 and a sum one of diag(S^5), so with Delta the maximum degree
    every partial sum is an integer at most Delta^4: exact in float32 below
    2^24, and in float64 below 2^53.
    """
    once = owner < indices
    i, l = owner[once], indices[once]
    dots = np.empty(len(i))
    block = max(1, _CHUNK_VALUES // p.shape[1])
    for r in range(0, len(i), block):
        e = slice(r, r + block)
        dots[e] = _row_dots(p[i[e]].astype(dtype, copy=False), p[l[e]].astype(dtype, copy=False))
    return np.bincount(i, dots, len(p)) + np.bincount(l, dots, len(p))


def diag_powers(g: Graph, depth: int = 10) -> np.ndarray:
    """Closed-walk count features: column k of the result is diag(S^k).

    Column 0 is all ones, column 1 all zeros (no self-loops), column 2 the
    degrees, column 3 twice the per-node triangle count, and so on. Entries
    are stored as float64: they are exact nonnegative integers while every
    count stays below 2^53, and rounded past that bound. Below it the two
    plans described below give the same bits: integer sums are exact in any
    order.

    S is symmetric, so diag(S^k) is the row-wise dot product of S^a and S^b
    for any a + b = k. Both plans share one chain: from a power P = S^(j-1),
    each step forms Q = S^j = S P and reads diag(S^(2j-1)) and diag(S^(2j))
    as row dots of P Q and Q Q, then drops P. The plans, chosen from the
    graph's edge count by graphs._is_sparse, both read column 2, the
    degrees, off the edge index, and differ only in how the chain starts
    and in the product by S:

    - dense, nnz * 40 > n^2: BLAS on S, built per call from the edge index
      as a float32 0/1 matrix and never cached; the graph's float64
      adjacency is not read. S^2 = S S^T is a squaring, which numpy
      dispatches to the symmetric rank-k update (syrk): half the 2 n^3
      flops of a general product (gemm). Below depth 8 the chain starts
      from S^2, so depths 6 and 7 cost 1 syrk and 1 gemm. From depth 8,
      S^4 = S^2 (S^2)^T by syrk and S^5 = S^4 S are formed whole, and the
      chain starts from S^5; depth 10 costs 2 syrk and 1 gemm, 4 n^3
      flops. This plan holds S, S^2 and S^3 below depth 8, and S, S^2, S^4
      and S^5 from there: at most the bytes of four n x n float64 arrays,
      and of one and a half while every power is float32.
    - sparse, nnz * 40 <= n^2: from the edge index alone; no n x n
      adjacency is built. S^2 is counted from the wedges i - k - j (sum of
      squared degrees additions), column 3 is S^2 summed over each node's
      edges, and the chain starts from S^2. Its product is a gather: row i
      of S P is the sum of P's rows at i's neighbours, m n additions for
      m = nnz. Nodes are sorted by degree in chunks of 32 rows and the sums
      run one neighbour slot at a time over a prefix of each chunk. At
      depth 6 no chain runs: column 5 is read from S^2 alone by one dot per
      edge (`_edge_dots`), m n / 2 products where S^3 costs m n additions
      and the row dots n^2 more, and the plan holds one n x n float32
      power. From depth 7 the chain forms S^3 for diag(S^6) anyway, and
      column 5 costs n^2 more by row dots. This plan holds no more than the
      bytes of two n x n float64 powers at any depth.

    Precision, with Delta the maximum degree (`_exact_columns`): every entry
    of S^j, and every gather sum, BLAS partial sum or row dot behind it, is
    a nonnegative integer at most Delta^(j-1). Both plans follow one rule:

    - S^2 (entries at most Delta < 2^24) and every S^j with
      Delta^(j-1) < 2^24 are float32, summed in float32, and exact; from
      the first j past that bound the chain is float64. The dense plan
      widens S once for it, and S^2 before squaring it when S^4 is past
      the bound.
    - The row dot giving diag(S^k), or the edge dots giving diag(S^5) at
      depth 6, run in float32 only while both operands are float32 and
      Delta^(k-1) < 2^24. Otherwise they run in float64, on rows of float32
      operands widened a cache-sized block at a time.

    A float32 power halves its bytes. The gathers are bound by memory
    traffic, which cuts the product's time to 0.5x-0.65x (n = 1000 to
    2000), and BLAS runs float32 at about twice the float64 rate (ssyrk
    2.4 ms against dsyrk 5.0 ms at n = 600, one thread). No inexact float32
    value is ever formed, and the result is float64 either way: the same
    bits as an all-float64 chain, as every float64 product and row dot is
    the one that chain forms, on the same values.

    At n >= 1000 the 40 sits near the measured depth-10 crossover. Below
    that the float32 dense plan wins depth 10 from sparser graphs, about
    d = n/64 at n = 500 and n/100 at n = 300. At depth 6, where the sparse
    plan forms no S^3, the sparse plan stays the faster past the 40, to
    about d = n/32. Sparse / dense time of diag_powers on G(n, d/n), depth
    6 / depth 10, one BLAS thread, slot table and float32 S included where
    built, the plans interleaved, min of 11, on a shared 2-vCPU machine:

        n      d = n/100   n/64        n/45        n/40        n/32        n/24
        300    0.54/1.00   0.59/1.19   0.68/1.55   0.68/1.55   0.79/1.68   1.28/2.17
        500    0.26/0.83   0.34/1.02   0.44/1.23   0.50/1.34   0.62/1.42   0.82/1.66
        1000   0.17/0.53   0.23/0.69   0.33/0.91   0.38/0.91   0.48/1.16   1.16/1.45
        2000   0.16/0.51   0.25/0.63   0.70/0.90   0.87/0.97   1.01/1.19   1.46/1.50
    """
    depth = _check_int(depth, "depth", 1)
    n = g.n
    out = np.zeros((n, depth))  # column 1 stays 0: no self-loops
    out[:, 0] = 1.0

    def dots(k: int, p: np.ndarray, q: np.ndarray) -> None:
        # column k as the row dots of p and q: in their dtype when both are
        # float64, or both float32 below the exact bound; else in float64
        if k >= depth:
            return
        if p.dtype == q.dtype and (p.dtype == np.float64 or k < exact):
            out[:, k] = _row_dots(p, q)
            return
        block = max(1, _CHUNK_VALUES // n)  # float32 rows widened a block at a time
        for r in range(0, n, block):
            rows = slice(r, r + block)
            a = p[rows].astype(np.float64, copy=False)
            out[rows, k] = _row_dots(a, a if q is p else q[rows].astype(np.float64, copy=False))

    if depth <= 2:
        return out
    indptr, indices = g.edge_index
    deg = np.diff(indptr)
    out[:, 2] = deg
    if depth <= 3:
        return out
    exact = _exact_columns(depth, int(deg.max(initial=0)), 2**24)  # float32's bound
    first = 3  # the chain starts from p = S^2
    if _is_sparse(g):  # sparse start
        p = _wedge_square(g)
        owner = np.repeat(np.arange(n), deg)
        out[:, 3] = np.bincount(owner, p[owner, indices], n)  # S^2 summed over each node's edges
        dots(4, p, p)
        if depth == 6:  # column 5 alone, by edge dots: no S^3 and no slot table
            out[:, 5] = _edge_dots(owner, indices, p, np.float32 if 5 < exact else np.float64)
            return out
        slots = _gather_slots(g) if depth > 5 else None

        def times_s(p: np.ndarray, j: int) -> np.ndarray:
            return _gather_product(slots, p, np.float32 if j < exact else np.float64)

    else:  # dense start
        s = _dense(g, np.float32)

        def times_s(p: np.ndarray, j: int) -> np.ndarray:
            nonlocal s
            if j >= exact:  # S widened once
                s = s.astype(np.float64, copy=False)
            return p.astype(s.dtype, copy=False) @ s  # sgemm or dgemm

        p = s @ s.T  # S^2 by ssyrk
        dots(3, s, p)
        dots(4, p, p)
        if depth > 7:  # S^4 by squaring, then S^5: the chain starts from S^5
            p = p.astype(np.float32 if 4 < exact else np.float64, copy=False)  # S^2, as wide as S^4
            s4 = p @ p.T  # ssyrk or dsyrk
            q = times_s(s4, 5)
            for k, a, b in ((5, s, s4), (6, p, s4), (7, p, q), (8, s4, s4), (9, s4, q), (10, q, q)):
                dots(k, a, b)
            del s4  # the chain holds S, P and Q alone: never more than four n x n arrays
            p, first = q, 6

    for j in range(first, depth // 2 + 1):
        q = times_s(p, j)  # S^j
        dots(2 * j - 1, p, q)
        dots(2 * j, q, q)
        p = q
    return out


def closed_walk_count(g: Graph, v: int, k: int, *, max_n: int = 12, max_k: int = 8) -> int:
    """Count length-k walks v -> ... -> v by direct enumeration.

    Independent oracle for diag(S^k): walks are enumerated over the adjacency
    list with revisits allowed, never through matrix arithmetic. Exponential,
    hence the (n, k) caps. ValueError unless k is an integer >= 0 and v a
    node index.
    """
    k = _check_int(k, "walk length k", 0)
    if g.n > max_n or k > max_k:
        raise TooLargeError(f"enumeration bound exceeded (n={g.n} > {max_n} or k={k} > {max_k})")
    v = _check_int(v, "node v", 0)
    if v >= g.n:
        raise ValueError(f"node {v} out of range")
    nbrs = [g.neighbors(i).tolist() for i in range(g.n)]

    def walks(u: int, remaining: int) -> int:
        if remaining == 0:
            return 1 if u == v else 0
        return sum(walks(w, remaining - 1) for w in nbrs[u])

    return walks(v, k)


def diagonal_module(g: Graph, h: FilterParams, sigma=RELU) -> np.ndarray:
    """y = sigma(sum_k h_k diag(S^k)): the no-input closed-walk module."""
    return _walk_readout(diag_powers(g, len(h)), h, sigma)


def _walk_readout(walks: np.ndarray, h: FilterParams, sigma) -> np.ndarray:
    """sigma(sum_k h_k diag(S^k)) from closed-walk counts of any depth >= len(h)."""
    return as_nonlinearity(sigma)(walks[:, : len(h)] @ h.as_array())


def spectral_diagonal_module(s: "Spectrum", h: FilterParams) -> np.ndarray:
    """Frequency-domain form sum_n h~(lambda_n) |u_n|^2, pre-nonlinearity.

    Cross-validation path for diagonal_module: both must agree to ~1e-8 even
    though one never touches eigenvectors and the other never touches matrix
    powers.
    """
    responses = npoly.polyval(s.eigenvalues, h.as_array())
    return (s.eigenvectors**2) @ responses


def constant_input_response(g: Graph, h: FilterParams, sigma=RELU) -> np.ndarray:
    """y1 = sigma(sum_k h_k S^k 1): what a GNN sees from the all-ones input.

    Provided to demonstrate the information loss on graphs whose decisive
    eigenvectors are orthogonal to the all-ones vector.
    """
    sigma = as_nonlinearity(sigma)
    return sigma(graph_filter(g, h, np.ones(g.n)))


def self_convolve(h: FilterParams, variance: float = 1.0) -> FilterParams:
    """Coefficients h'_k = variance * sum_{m+l=k} h_m h_l (length 2K-1).

    The variance of a length-K filter driven by white noise equals the
    no-input filter with these coefficients.
    """
    c = np.asarray(h.coeffs)
    return FilterParams(tuple(variance * np.convolve(c, c)))


def _block_samples(n: int, samples: int) -> int:
    """Samples per block of stochastic_variance: whole groups of 64, so a
    block of rademacher signs ends on a raw word; about _CHUNK_VALUES values,
    and no more groups than samples needs."""
    return min(max(64, _CHUNK_VALUES // n // 64 * 64), -(-samples // 64) * 64)


def stochastic_variance(
    g: Graph, h: FilterParams, cfg: StochasticConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of var[z] for z = filtered white input.

    Draws cfg.samples white vectors, filters each, and returns the per-node
    empirical mean of z^2 together with its standard error. The expectation
    equals diagonal_module(g, self_convolve(h, cfg.variance), linear).

    The filter is linear and fixed, so it is formed once as the n x n matrix
    H = sqrt(variance) * sum_k h_k S^k (by graph_filter on the identity) and
    each block of unit-variance samples is filtered by one product with H.
    With K taps that costs 2(K-1) n^3 flops to form H plus 2 samples n^2 to
    filter. The input and output blocks are allocated once per call and
    filled in place.

    The generator is SFC64 seeded by cfg.seed, consumed in sample-major
    order: entry (node i, sample j) is value j n + i of the stream, whatever
    the block length, so repeated calls are bit-identical. Gaussian values
    come from standard_normal. Rademacher values take 64 signs from each raw
    64-bit word: value t is bit 63 - t mod 64 of word t // 64 (the words
    read as one bit string, most significant bit first), 1 meaning +1 and 0
    meaning -1. Forming H changes only the rounding of z, never the stream.

    The variance behind the standard error is merged from per-block means
    and sums of squared deviations (Chan, Golub & LeVeque, Amer. Statist.
    1983), so it does not cancel when z^2 barely varies; with one sample it
    is undefined and the standard error is infinite.
    """
    n, m_total = g.n, cfg.samples
    filt = graph_filter(g, h, np.diag(np.full(n, np.sqrt(cfg.variance))))
    rng = np.random.Generator(np.random.SFC64(cfg.seed))

    chunk = _block_samples(n, m_total)
    x = np.empty((chunk, n))
    # z^2 node-major, so each node's samples in a block are one contiguous row
    z_buf = np.empty(n * chunk)
    ones = np.ones(chunk)
    mean = np.zeros(n)
    m2 = np.zeros(n)
    done = 0
    while done < m_total:
        m = min(chunk, m_total - done)
        xb, zb = x[:m], z_buf[: n * m].reshape(n, m)
        if cfg.distribution == "gaussian":
            rng.standard_normal(out=xb)
        else:
            words = rng.bit_generator.random_raw(-(-m * n // 64)).astype(">u8")
            bits = np.unpackbits(words.view(np.uint8), count=m * n)
            np.multiply(bits.reshape(m, n), 2.0, out=xb)
            xb -= 1.0
        np.matmul(filt, xb.T, out=zb)  # column j is z = H x for sample j
        np.square(zb, out=zb)
        block_mean = zb @ ones[:m]
        block_mean /= m
        zb -= block_mean[:, None]
        np.square(zb, out=zb)
        delta = block_mean - mean
        mean += delta * (m / (done + m))
        m2 += zb @ ones[:m]
        m2 += delta**2 * (done * m / (done + m))
        done += m

    if m_total > 1:
        stderr = np.sqrt(m2 / (m_total - 1) / m_total)
    else:
        stderr = np.full(n, np.inf)
    return mean, stderr


def _closed_form_deviation(
    g: Graph, h: FilterParams, cfg: StochasticConfig, estimate: np.ndarray, stderr: np.ndarray
) -> tuple[np.ndarray, float]:
    """The closed form of var[z], and the worst |estimate - closed form| in
    standard errors, each standard error floored at the rounding bound.

    z^2 can be constant (a one-tap filter on rademacher input), so the
    standard error can be 0 or a few ulps and plain rounding would read as
    a huge deviation. The floor bounds that rounding, per node: a b-sample
    block mean by b eps of the estimate, each of the B merges by eps of it,
    and the readout sum_k h'_k diag(S^k) of K' terms by K' eps
    sum_k |h'_k| diag(S^k).
    """
    hh = self_convolve(h, cfg.variance)
    walks = diag_powers(g, len(hh))
    closed = _walk_readout(walks, hh, LINEAR)
    block = _block_samples(g.n, cfg.samples)
    merges = -(-cfg.samples // block)
    readout = len(hh) * (walks @ np.abs(hh.as_array()))
    floor = np.finfo(np.float64).eps * ((block + merges) * np.abs(estimate) + readout)
    return closed, float(np.max(np.abs(estimate - closed) / np.maximum(stderr, floor)))
