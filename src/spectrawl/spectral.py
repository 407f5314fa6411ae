"""Adjacency eigendecomposition and spectral separability tests.

A `Spectrum` carries eigenvalues sorted ascending, an orthonormal eigenvector
matrix, and the partition of eigenvalue indices into near-degenerate groups.
`eigendecompose` builds it from one `eigh` call; `discriminate_pair` first
compares the exact power sums (`_power_sums`), and only when they tie builds
it values-first, eigenvalues only (`_values_first`). A spectrum is a plain
value: nothing fills in its eigenvectors later, so a condition test that
needs them is given the graphs, or `eigendecompose`'s spectra.
On top of that this module builds the separability machinery: grouped-spectrum
comparison, the three-condition feature test, eigenvalue-isolating polynomial
filters, and the absolute-eigenvector test for equal simple spectra.

Eigenvector signs are arbitrary; every exposed quantity is an absolute value,
a norm, or a quadratic form, so signs never leak into results.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .gnn import DimensionMismatchError, FilterParams, _exact_columns, graph_filter
from .graphs import Graph, _check_positive

EPS_RESID = 1e-9
EPS_ORTH = 1e-9


class ConvergenceFailure(RuntimeError):
    """The dense symmetric eigensolver did not converge."""


class NoSuchEigenvalueError(ValueError):
    pass


class DegenerateNodesError(ValueError):
    """Two interpolation nodes coincide within tolerance."""


def default_group_tol(eigenvalues: np.ndarray) -> float:
    """Grouping tolerance 1e-6 * max(1, spectral radius)."""
    radius = float(np.max(np.abs(eigenvalues))) if len(eigenvalues) else 0.0
    return 1e-6 * max(1.0, radius)


@dataclass(frozen=True)
class EigenGroup:
    value: float               # representative (mean of the group)
    indices: tuple[int, ...]   # column indices into the eigenvector matrix

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues, eigenvectors and eigenvalue groups of one graph.

    `eigendecompose` fills every field from one `eigh` call. A values-first
    spectrum (`_values_first`, built inside `discriminate_pair`) has
    eigenvectors None, and keeps them None: it serves the grouped-spectrum
    comparison and a condition test whose groups all match, which reads no
    eigenvector.

    The group values and multiplicities are also held as two arrays, made
    once when the spectrum is built; every group lookup (`find_group`,
    `_unmatched_groups`) searches them with `_nearest_groups`.
    """

    eigenvalues: np.ndarray      # ascending, length n
    eigenvectors: np.ndarray | None  # orthogonal, column i pairs with eigenvalue i; None: not formed
    groups: tuple[EigenGroup, ...]
    _group_values: np.ndarray = field(init=False, repr=False)  # ascending, one per group
    _group_sizes: np.ndarray = field(init=False, repr=False)   # multiplicities

    def __post_init__(self):
        values = np.array([grp.value for grp in self.groups], dtype=np.float64)
        sizes = np.array([grp.multiplicity for grp in self.groups], dtype=np.intp)
        object.__setattr__(self, "_group_values", values)
        object.__setattr__(self, "_group_sizes", sizes)

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def _nearest_groups(self, values: np.ndarray, tol: float) -> np.ndarray:
        """Index of the group nearest each value within tol, or -1 where none is.

        Group values ascend, so only the two groups around a value's insertion
        point can be nearest; an exact tie goes to the lower one.
        """
        gv = self._group_values
        if not len(gv):
            return np.full(len(values), -1)
        i = np.searchsorted(gv, values)
        lo, hi = np.maximum(i - 1, 0), np.minimum(i, len(gv) - 1)
        d_lo, d_hi = np.abs(gv[lo] - values), np.abs(gv[hi] - values)
        upper = d_hi < d_lo
        return np.where(np.where(upper, d_hi, d_lo) <= tol, np.where(upper, hi, lo), -1)

    def find_group(self, value: float, tol: float) -> EigenGroup | None:
        i = int(self._nearest_groups(np.array([value], dtype=np.float64), tol)[0])
        return self.groups[i] if i >= 0 else None


@dataclass(frozen=True, eq=False)
class Eigenspace:
    value: float
    basis: np.ndarray  # (n, multiplicity), orthonormal columns

    @property
    def multiplicity(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.T


def _group_indices(w: np.ndarray, tol: float) -> tuple[EigenGroup, ...]:
    """Split ascending w into groups at every gap wider than tol; a group's value is its mean."""
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(w) > tol) + 1, [len(w)])).tolist()
    return tuple(
        EigenGroup(float(w[lo]) if hi - lo == 1 else float(np.mean(w[lo:hi])), tuple(range(lo, hi)))
        for lo, hi in zip(bounds[:-1], bounds[1:])
    )


def eigendecompose(g: Graph) -> Spectrum:
    """Dense symmetric eigendecomposition S = U diag(w) U^T.

    Deterministic for a fixed input: eigenvalues come back ascending and each
    eigenvector is sign-fixed so that its largest-magnitude entry is positive.
    Residual and orthogonality are checked against EPS_RESID / EPS_ORTH, and
    eigenvalues are grouped at default_group_tol.
    """
    s = g.adjacency
    try:
        w, u = np.linalg.eigh(s)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc

    # sign convention: first entry of maximal magnitude made positive
    flip = u[np.argmax(np.abs(u), axis=0), np.arange(g.n)] < 0
    u[:, flip] = -u[:, flip]

    resid = np.linalg.norm(s @ u - u * w, axis=0)
    norm_s = max(np.linalg.norm(s), 1.0)
    if np.any(resid > EPS_RESID * norm_s):
        raise ConvergenceFailure(f"residual {resid.max():.3e} exceeds bound")
    orth = np.max(np.abs(u.T @ u - np.eye(g.n)))
    if orth > EPS_ORTH:
        raise ConvergenceFailure(f"eigenvector orthogonality off by {orth:.3e}")

    w.flags.writeable = False
    u.flags.writeable = False
    return Spectrum(w, u, _group_indices(w, default_group_tol(w)))


def _spectrum(g: Graph | Spectrum) -> Spectrum:
    return g if isinstance(g, Spectrum) else eigendecompose(g)


def _values_first(g: Graph, walks: np.ndarray) -> Spectrum:
    """Spectrum of g from eigvalsh alone, checked against g's closed-walk counts.

    walks holds diag(S^k) in column k, as `gnn.diag_powers` returns it. The
    eigenvalues are checked by the trace identity sum_i lambda_i^k = p_k
    (`_power_sums`) instead of the residual and orthogonality checks of
    `eigendecompose`, which need eigenvectors. None are formed, then or later.
    """
    try:
        w = np.linalg.eigvalsh(g.adjacency)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    _check_power_sums(w, _power_sums(g, walks), walks.shape[1])
    w.flags.writeable = False
    return Spectrum(w, None, _group_indices(w, default_group_tol(w)))


def _check_power_sums(w: np.ndarray, traces: np.ndarray, depth: int) -> None:
    """Raise ConvergenceFailure unless |p_k - t_k| <= b_k for every k < len(traces).

    p_k = sum_i w_i^k and t_k = traces[k] = trace(S^k). eigvalsh is backward
    stable, so by Weyl each computed eigenvalue is within about n eps r of an
    exact one (r = max(1, max |w|)), which moves p_k by at most
    n eps r sum_i k |w_i|^(k-1) to first order. Forming the powers and the
    two sums, and a walk ladder of depth K that rounds past 2^53, add at most
    (n + K) eps (sum_i |w_i|^k + |t_k|). b_k is the sum of the two terms.
    """
    n, eps = len(w), np.finfo(np.float64).eps
    r = max(1.0, float(np.max(np.abs(w))))
    ks = np.arange(len(traces))
    powers = w[None, :] ** ks[:, None]
    abs_sums = np.abs(powers).sum(axis=1)
    slopes = np.concatenate(([0.0], ks[1:] * abs_sums[:-1]))
    bound = n * eps * r * slopes + (n + depth) * eps * (abs_sums + np.abs(traces))
    err = np.abs(powers.sum(axis=1) - traces)
    if np.any(~(err <= bound)):
        k = int(np.argmax(err - bound))
        raise ConvergenceFailure(
            f"eigenvalue power sum p_{k} off trace(S^{k}) by {err[k]:.3e} (bound {bound[k]:.3e})"
        )


def _power_sums(g: Graph, walks: np.ndarray | None = None) -> np.ndarray:
    """g's power sums p_k = trace(S^k) = sum_i lambda_i^k, k < max(3, width of walks), as float64.

    p_0 = n, p_1 = trace S = 0 and p_2 = trace S^2 = 2m are read off the node
    and edge counts at any ladder width: Graph has no self-loops, and S^2's
    diagonal holds the degrees. p_k for k >= 3 is the sum of column k of
    walks, a walk ladder (`gnn.diag_powers`): the closed walks of length k.
    """
    high = () if walks is None else walks[:, 3:].sum(axis=0)
    return np.concatenate(([g.n, 0.0, 2.0 * g.num_edges], high))


def _admitted_columns(g1: Graph, g2: Graph, depth: int) -> int:
    """How many leading columns of depth-deep walk ladders of g1 and g2 are exact.

    Every walk count, matrix-power entry and partial sum behind column k's
    sum p_k is a nonnegative integer at most n Delta^(k-1), with Delta the
    larger maximum degree and n the larger node count (`gnn._exact_columns`);
    the first k where that bound reaches 2^53 is not exact.
    """
    delta = int(max(g1.degrees.max(), g2.degrees.max()))
    return _exact_columns(depth, delta, 2**53, max(g1.n, g2.n))


def _power_sum_witness(
    g1: Graph, g2: Graph, walks1: np.ndarray | None = None, walks2: np.ndarray | None = None
) -> tuple[int, int, int] | None:
    """(k, p_k(g1), p_k(g2)) at the first k whose exact power sums differ, or None.

    The sums are `_power_sums`, so p_0..p_2 come from the node and edge
    counts, and with no ladders only they are compared. Only the first
    `_admitted_columns` of them count. Different p_k prove different spectra
    with no eigenvalue computed.
    """
    p1, p2 = _power_sums(g1, walks1), _power_sums(g2, walks2)
    for k in range(_admitted_columns(g1, g2, min(len(p1), len(p2)))):
        if p1[k] != p2[k]:
            return k, int(p1[k]), int(p2[k])
    return None


def eigenvector_one_products(s: Spectrum) -> np.ndarray:
    """|u_i^T 1| per eigenvector, in eigenvalue order.

    Absolute values because eigenvector signs are arbitrary. A zero entry
    means that eigendirection is invisible to the all-ones input.
    """
    ones = np.ones(s.n)
    return np.abs(s.eigenvectors.T @ ones)


def spectra_differ(g1: Graph | Spectrum, g2: Graph | Spectrum, tol: float = 1e-6) -> float | None:
    """Witness eigenvalue present in one grouped spectrum but not the other.

    Returns a value whose multiplicities differ between the two graphs
    (absence counting as multiplicity 0), or None when the grouped spectra
    match within tol. Differing node counts always produce a witness. A
    Spectrum may stand for its graph, which then is not decomposed again.
    """
    s1, s2 = _spectrum(g1), _spectrum(g2)
    for a, b in ((s1, s2), (s2, s1)):
        for grp, _ in _unmatched_groups(a, b, tol):
            return grp.value
    return None


def _check_tol(tol: float) -> None:
    """Raise ValueError unless tol is a finite real > 0; every comparison tolerance passes here."""
    _check_positive(tol, "tolerance")


def _unmatched_groups(a: Spectrum, b: Spectrum, tol: float):
    """Yield (group, partner) for each group of a that b lacks at equal multiplicity.

    partner is b's nearest group within tol, or None when b has none there.
    Groups are visited in a's ascending order.
    """
    _check_tol(tol)
    near = b._nearest_groups(a._group_values, tol)
    # index -1 (no group near) reads the appended 0, which no multiplicity equals
    sizes = np.append(b._group_sizes, 0)[near]
    for i in np.flatnonzero(sizes != a._group_sizes).tolist():
        yield a.groups[i], (b.groups[near[i]] if near[i] >= 0 else None)


def eigenspace(s: Spectrum, value: float, tol: float = 1e-6) -> Eigenspace:
    """Orthonormal basis of the eigenvalue group matching `value` within tol."""
    _check_tol(tol)
    grp = s.find_group(value, tol)
    if grp is None:
        raise NoSuchEigenvalueError(f"no eigenvalue within {tol} of {value}")
    return Eigenspace(grp.value, s.eigenvectors[:, list(grp.indices)])


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of the three-condition separability test for a graph pair.

    cond2_witness is (eigenvalue, ||X^T V||); cond3_witness is
    (eigenvalue, mult1, mult2, ||X^T Q_n||, ||Xhat^T Qhat_n||) where Q_n and
    Qhat_n are the parts of the two eigenspaces outside their shared subspace.
    """

    cond1_signals_differ: bool
    cond2_witness: tuple[float, float] | None
    cond3_witness: tuple[float, int, int, float, float] | None
    verdict: str  # "separable" | "inconclusive"

    @property
    def separable(self) -> bool:
        return self.verdict == "separable"


def _as_rows(x) -> np.ndarray:
    """x as a C-contiguous float64 matrix with one row per node; a vector becomes one column.

    Contiguous, so that a product such as x.T @ v rounds the same for every
    layout of the same values (BLAS takes another path on a strided slice).
    """
    return np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64).T).T)


def embeddings_isomorphic(y1: np.ndarray, y2: np.ndarray, tol: float = 1e-6) -> bool:
    """True iff the two embeddings match as row multisets at resolution tol.

    Rows are rounded to ceil(-log10(tol)) digits and compared after
    lexicographic sorting, so any node permutation is factored out. Every
    row-multiset verdict in the package is made here.
    """
    _check_tol(tol)
    y1, y2 = _as_rows(y1), _as_rows(y2)
    if y1.shape[1] != y2.shape[1]:
        raise ValueError("embeddings must share a column count")
    if y1.shape[0] != y2.shape[0]:
        return False
    digits = max(0, int(np.ceil(-np.log10(tol))))
    # adding 0.0 turns -0.0 into 0.0; lexsort's last key is its primary one
    rows1, rows2 = (np.round(y, digits) + 0.0 for y in (y1, y2))
    if y1.shape[1]:
        rows1, rows2 = rows1[np.lexsort(rows1.T[::-1])], rows2[np.lexsort(rows2.T[::-1])]
    return np.array_equal(rows1, rows2)


def check_separability_conditions(
    g1: Graph | Spectrum, g2: Graph | Spectrum, x1: np.ndarray, x2: np.ndarray, tol: float = 1e-6
) -> ConditionReport:
    """Three sufficient conditions for a GNN separating (g1, x1) from (g2, x2).

    1. the feature rows of x1 and x2 differ as multisets, or
    2. some eigenvalue exclusive to g1 has eigenspace V with ||x1^T V|| > tol, or
    3. some shared eigenvalue has different multiplicities and a feature
       component outside the shared part of the two eigenspaces.
    A Spectrum may stand for its graph, which then is not decomposed again.
    Eigenvectors are read only when conditions 2 or 3 visit an unmatched
    group, so a values-first Spectrum serves only where every group matches.
    The report reads the features' values, not their layout: a strided slice
    reports what its contiguous copy does.
    """
    x1, x2 = _as_rows(x1), _as_rows(x2)
    if x1.shape[0] != g1.n or x2.shape[0] != g2.n:
        raise DimensionMismatchError("feature row counts must match graph sizes")
    if x1.shape[1] != x2.shape[1]:
        raise DimensionMismatchError("feature matrices must share a column count")

    cond1 = not embeddings_isomorphic(x1, x2, tol)

    s1, s2 = _spectrum(g1), _spectrum(g2)
    unmatched = list(_unmatched_groups(s1, s2, tol))

    cond2 = None
    for grp, other in unmatched:
        if other is not None:
            continue
        v = s1.eigenvectors[:, list(grp.indices)]
        weight = float(np.linalg.norm(x1.T @ v))
        if weight > tol:
            cond2 = (grp.value, weight)
            break

    cond3 = None
    if g1.n == g2.n:
        for grp, other in unmatched:
            if other is None:
                continue
            v1, v2 = s1.eigenvectors[:, list(grp.indices)], s2.eigenvectors[:, list(other.indices)]
            # split off the shared subspace: singular value ~1 in V1^T V2 marks
            # a common direction. They descend, so the first r are shared; the
            # rest are copied out by mask, as a strided slice can move the last bit
            a, sv, bt = np.linalg.svd(v1.T @ v2)
            r = int(np.count_nonzero(sv >= 1.0 - max(tol, 1e-9)))
            w1 = float(np.linalg.norm(x1.T @ (v1 @ a[:, np.arange(len(a)) >= r])))
            w2 = float(np.linalg.norm(x2.T @ (v2 @ bt.T[:, np.arange(len(bt)) >= r])))
            if w1 > tol or w2 > tol:
                cond3 = (grp.value, grp.multiplicity, other.multiplicity, w1, w2)
                break

    verdict = "separable" if (cond1 or cond2 or cond3) else "inconclusive"
    return ConditionReport(cond1, cond2, cond3, verdict)


def isolating_filter(mus, target: int, tol: float | None = None) -> FilterParams:
    """Polynomial with response 1 at mus[target] and 0 at every other node.

    Built from the Lagrange basis (stable at these scales) instead of solving
    the equivalent Vandermonde system.
    """
    mus = [float(m) for m in mus]
    if not 0 <= target < len(mus):
        raise IndexError(f"target {target} out of range for {len(mus)} nodes")
    if tol is None:
        tol = default_group_tol(np.asarray(mus))
    else:
        _check_tol(tol)
    # upper triangle only, so argwhere's row-major order gives the first pair
    close = np.triu(np.abs(np.subtract.outer(mus, mus)) <= tol, k=1)
    if close.any():
        i, j = np.argwhere(close)[0]
        raise DegenerateNodesError(f"nodes {mus[i]} and {mus[j]} closer than {tol}")
    others = [m for k, m in enumerate(mus) if k != target]
    if not others:
        return FilterParams((1.0,))
    numer = npoly.polyfromroots(others)
    denom = float(np.prod([mus[target] - m for m in others]))
    return FilterParams(tuple(numer / denom))


def filter_matrix(g: Graph, h: FilterParams) -> np.ndarray:
    """Materialize H(S) = sum_k h_k S^k as a dense symmetric matrix."""
    return graph_filter(g, h, np.eye(g.n))


def frequency_response(h: FilterParams, lam):
    """h~(lambda) = sum_k h_k lambda^k, evaluated by Horner's rule.

    Accepts a scalar or an array of evaluation points.
    """
    acc = npoly.polyval(np.asarray(lam, dtype=np.float64), h.as_array())
    return float(acc) if acc.ndim == 0 else acc


def abs_eigvec_test(g1: Graph | Spectrum, g2: Graph | Spectrum, tol: float = 1e-6) -> str:
    """Row-multiset comparison of |U| vs |Uhat| for equal simple spectra.

    Only meaningful when both graphs have the same eigenvalues and every
    eigenvalue is simple (then each |u_n| is basis-independent). Returns
    "not_applicable" otherwise; "separable" when the row multisets differ;
    "inconclusive" when they match. A Spectrum may stand for its graph,
    which then is not decomposed again.
    """
    s1, s2 = _spectrum(g1), _spectrum(g2)
    simple = all(grp.multiplicity == 1 for grp in s1.groups + s2.groups)
    if not simple or spectra_differ(s1, s2, tol) is not None:
        return "not_applicable"
    same = embeddings_isomorphic(np.abs(s1.eigenvectors), np.abs(s2.eigenvectors), tol)
    return "inconclusive" if same else "separable"
