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

from .graphs import Graph, TooLargeError, _check_int, _check_positive

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


#: rows of S^5 that diag_powers forms at a time by BLAS
_ROW_BLOCK = 256
#: rows that a gather product accumulates at a time
_GATHER_ROWS = 32
#: diag_powers gathers when nnz * _GATHER_DENSITY <= n^2, i.e. mean degree <= n / 64
_GATHER_DENSITY = 64


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


def _times_s(s: np.ndarray, slots, p: np.ndarray, rows: slice = slice(None)) -> np.ndarray:
    """Rows of S p for a power p of S; S p = p S, as powers of S commute.

    Without a slot table this is one BLAS product, p[rows] @ S, or S S^T
    (syrk) when p is S itself. With one, each result row sums the rows of p
    at its neighbours, one slot at a time over a chunk of rows: m n additions
    for m nonzeros, against 2 n^3 flops by BLAS. rows must start on a chunk.
    """
    if slots is None:
        return p[rows] @ (p.T if p is s else s)
    r0, r1, _ = rows.indices(len(p))
    out = np.empty((r1 - r0, p.shape[1]))
    acc = np.empty((_GATHER_ROWS, p.shape[1]))
    for r, order, chunk_slots in slots[r0 // _GATHER_ROWS : -(-r1 // _GATHER_ROWS)]:
        acc[: len(order)] = 0.0
        for nbrs in chunk_slots:
            acc[: len(nbrs)] += p[nbrs]
        out[r - r0 + order] = acc[: len(order)]
    return out


def diag_powers(g: Graph, depth: int = 10) -> np.ndarray:
    """Closed-walk count features: column k of the result is diag(S^k).

    Column 0 is all ones, column 1 all zeros (no self-loops), column 2 the
    degrees, column 3 twice the per-node triangle count, and so on. Entries
    are stored as float64: they are exact nonnegative integers while every
    count stays below 2^53, and rounded past that bound. Below it the two
    plans described below give the same bits: integer sums are exact in any
    order.

    S is symmetric, so diag(S^k) is the row-wise dot product of S^a and S^b
    for any a + b = k. The powers formed besides S are:

    - depth <= 3: none;
    - depth 4-5: S^2;
    - depth 6-7: S^2 and S^4;
    - deeper: S^2, S^4, then S^5, S^6, ..., S^max(5, depth // 2), each the
      previous power times S.

    S^4 is the squaring S^2 (S^2)^T, which numpy dispatches to the symmetric
    rank-k update (syrk): half the 2 n^3 flops of a general product (gemm).
    The products by S (S^2 = S S, S^5 = S S^4 one row block at a time, and
    S^(j+1) = S S^j past depth 11) follow one of two plans, chosen from the
    graph's own density:

    - dense, nnz * 64 > n^2: BLAS. S^2 = S S^T is a syrk, the others gemm;
      depth 10 costs 2 syrk and 1 gemm, 4 n^3 flops in all.
    - sparse, nnz * 64 <= n^2: gathers over the cached edge index. Row i of
      S P is the sum of P's rows at i's neighbours, m n additions for m = nnz.
      Nodes are sorted by degree in chunks of 32 rows and the sums run one
      neighbour slot at a time over a prefix of each chunk.

    The 64 sits above the measured crossover (depth 10 on sparse G(n, d/n),
    one BLAS thread, slot table included): for n = 300 to 1000 the plans
    break even near mean degree n / 45, and from n / 64 on the gathers are
    1.1x to 1.4x faster; at n = 2000 and degree 8 (n / 250), 2.1x to 2.5x.
    At n = 150 the per-slot overhead makes the gathers 1.2x to 1.3x slower,
    at under a millisecond for either plan.

    S^5 is formed one row block at a time (256 rows by BLAS, 128 by gathers,
    whose two chunk buffers take the rest), so no more than two n x n powers
    are alive besides S at any depth.
    """
    depth = _check_int(depth, "depth", 1)
    s = g.adjacency
    out = np.empty((g.n, depth))
    out[:, 0] = 1.0
    if depth > 1:
        out[:, 1] = np.diag(s)

    def dots(k: int, p: np.ndarray, q: np.ndarray, rows=slice(None)) -> None:
        # diag(S^k) on rows from the matching rows of two powers; one BLAS dot
        # per row: no n x n temporary, and past 2^53 it rounds less than a
        # running sum (np.einsum) does
        if k < depth:
            out[rows, k] = (p[:, None, :] @ q[:, :, None])[:, 0, 0]

    dots(2, s, s)
    if depth <= 3:
        return out
    sparse = np.count_nonzero(s) * _GATHER_DENSITY <= g.n**2
    slots = _gather_slots(g) if sparse else None
    s2 = _times_s(s, slots, s)
    dots(3, s, s2)
    dots(4, s2, s2)
    if depth > 5:
        s4 = s2 @ s2.T  # syrk
        dots(5, s, s4)
        dots(6, s2, s4)
        dots(8, s4, s4)
    if depth > 7:
        # S^5 = S S^4 one row block at a time. Up to depth 11 it feeds only
        # row dots; deeper, each block is kept in the rows of S^2 that its
        # row dots have just spent, and the chain S^6, S^7, ... starts from it
        block = 4 * _GATHER_ROWS if sparse else _ROW_BLOCK
        for r in range(0, g.n, block):
            rows = slice(r, r + block)
            s5 = _times_s(s, slots, s4, rows)
            dots(7, s2[rows], s5, rows)
            dots(9, s4[rows], s5, rows)
            dots(10, s5, s5, rows)
            if depth > 11:
                s2[rows] = s5
            del s5  # before the next block is formed
        p = s2  # S^(j-1) and S^j slide up from here
        del s2, s4
        for j in range(6, depth // 2 + 1):
            q = _times_s(s, slots, p)
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


# float64 values per sample block (512 KiB): small enough to stay in cache
_CHUNK_VALUES = 1 << 16


def stochastic_variance(
    g: Graph, h: FilterParams, cfg: StochasticConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Monte-Carlo estimate of var[z] for z = filtered white input.

    Draws cfg.samples white vectors, filters each, and returns the per-node
    empirical mean of z^2 together with its standard error. The expectation
    equals diagonal_module(g, self_convolve(h, cfg.variance), linear).

    The filter is linear and fixed, so it is formed once as the n x n matrix
    H = sqrt(variance) * sum_k h_k S^k (by graph_filter on the identity) and
    each block of unit-variance samples is filtered by one product x @ H.
    With K taps that costs 2(K-1) n^3 flops to form H plus 2 samples n^2 to
    filter.

    Sampling is counter-based (Philox keyed by cfg.seed) and consumed in
    sample-major order, so entry (node i, sample j) is a pure function of
    (seed, i, j, n); repeated calls are bit-identical. Forming H changes only
    the rounding of z, never the random stream.
    """
    n, m_total = g.n, cfg.samples
    # a polynomial in symmetric S is symmetric, so with samples as rows the
    # filtered block is x @ filt
    filt = graph_filter(g, h, np.diag(np.full(n, np.sqrt(cfg.variance))))
    rng = np.random.Generator(np.random.Philox(cfg.seed))

    sum_z2 = np.zeros(n)
    sum_z4 = np.zeros(n)
    chunk = max(1, _CHUNK_VALUES // n)
    ones = np.ones(chunk)
    done = 0
    while done < m_total:
        m = min(chunk, m_total - done)
        if cfg.distribution == "gaussian":
            x = rng.standard_normal((m, n))
        else:
            x = rng.integers(0, 2, size=(m, n)).astype(np.float64)
            x *= 2.0
            x -= 1.0
        z2 = x @ filt
        np.square(z2, out=z2)
        sum_z2 += ones[:m] @ z2
        sum_z4 += ones[:m] @ np.square(z2, out=z2)
        done += m

    estimate = sum_z2 / m_total
    if m_total > 1:
        sample_var = (sum_z4 - m_total * estimate**2) / (m_total - 1)
        stderr = np.sqrt(np.maximum(sample_var, 0.0) / m_total)
    else:
        stderr = np.full(n, np.inf)
    return estimate, stderr
