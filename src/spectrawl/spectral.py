"""Adjacency eigendecomposition and spectral separability tests.

A `Spectrum` carries eigenvalues sorted ascending, an orthonormal eigenvector
matrix, and the partition of eigenvalue indices into near-degenerate groups.
On top of that this module builds the separability machinery: grouped-spectrum
comparison, the three-condition feature test, eigenvalue-isolating polynomial
filters, and the absolute-eigenvector test for equal simple spectra.

Eigenvector signs are arbitrary; every exposed quantity is an absolute value,
a norm, or a quadratic form, so signs never leak into results.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .gnn import DimensionMismatchError, FilterParams, graph_filter
from .graphs import Graph

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
    eigenvalues: np.ndarray      # ascending, length n
    eigenvectors: np.ndarray     # orthogonal, column i pairs with eigenvalue i
    groups: tuple[EigenGroup, ...]

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    def find_group(self, value: float, tol: float) -> EigenGroup | None:
        # groups ascend by value: only the two around value's insertion point can be nearest
        i = bisect.bisect_left(self.groups, value, key=lambda grp: grp.value)
        best = None
        for grp in self.groups[max(i - 1, 0) : i + 1]:
            if abs(grp.value - value) <= tol and (
                best is None or abs(grp.value - value) < abs(best.value - value)
            ):
                best = grp
        return best


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
    groups: list[EigenGroup] = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol:
            idx = tuple(range(start, i))
            groups.append(EigenGroup(float(np.mean(w[start:i])), idx))
            start = i
    return tuple(groups)


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
    """Raise ValueError unless 0 < tol < inf; every comparison tolerance passes here."""
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")


def _unmatched_groups(a: Spectrum, b: Spectrum, tol: float):
    """Yield (group, partner) for each group of a that b lacks at equal multiplicity.

    partner is b's nearest group within tol, or None when b has none there.
    Groups are visited in a's ascending order.
    """
    _check_tol(tol)
    for grp in a.groups:
        other = b.find_group(grp.value, tol)
        if other is None or other.multiplicity != grp.multiplicity:
            yield grp, other


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
    """x as a float64 matrix with one row per node; a vector becomes one column."""
    return np.atleast_2d(np.asarray(x, dtype=np.float64).T).T


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
    # adding 0.0 turns -0.0 into 0.0
    rows1, rows2 = (sorted(map(tuple, np.round(y, digits) + 0.0)) for y in (y1, y2))
    return rows1 == rows2


def check_separability_conditions(
    g1: Graph | Spectrum, g2: Graph | Spectrum, x1: np.ndarray, x2: np.ndarray, tol: float = 1e-6
) -> ConditionReport:
    """Three sufficient conditions for a GNN separating (g1, x1) from (g2, x2).

    1. the feature rows of x1 and x2 differ as multisets, or
    2. some eigenvalue exclusive to g1 has eigenspace V with ||x1^T V|| > tol, or
    3. some shared eigenvalue has different multiplicities and a feature
       component outside the shared part of the two eigenspaces.
    A Spectrum may stand for its graph, which then is not decomposed again.
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
            v1 = s1.eigenvectors[:, list(grp.indices)]
            v2 = s2.eigenvectors[:, list(other.indices)]
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
        tol = 1e-6 * max(1.0, max(abs(m) for m in mus))
    for i in range(len(mus)):
        for j in range(i + 1, len(mus)):
            if abs(mus[i] - mus[j]) <= tol:
                raise DegenerateNodesError(
                    f"nodes {mus[i]} and {mus[j]} closer than {tol}"
                )
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
