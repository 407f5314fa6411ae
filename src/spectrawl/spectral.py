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


def eigendecompose(g: Graph, group_tol: float | None = None) -> Spectrum:
    """Dense symmetric eigendecomposition S = U diag(w) U^T.

    Deterministic for a fixed input: eigenvalues come back ascending and each
    eigenvector is sign-fixed so that its largest-magnitude entry is positive.
    Residual and orthogonality are checked against EPS_RESID / EPS_ORTH.
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

    tol = default_group_tol(w) if group_tol is None else group_tol
    w = w.copy()
    u = u.copy()
    w.flags.writeable = False
    u.flags.writeable = False
    return Spectrum(w, u, _group_indices(w, tol))


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
        for grp in a.groups:
            other = b.find_group(grp.value, tol)
            if other is None or other.multiplicity != grp.multiplicity:
                return grp.value
    return None


def eigenspace(s: Spectrum, value: float, tol: float = 1e-6) -> Eigenspace:
    """Orthonormal basis of the eigenvalue group matching `value` within tol."""
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


def _sorted_rounded_rows(x: np.ndarray, tol: float) -> list[tuple[float, ...]]:
    digits = max(0, int(np.ceil(-np.log10(tol))))
    rounded = np.round(np.asarray(x, dtype=np.float64), digits)
    rounded += 0.0  # normalize -0.0
    return sorted(tuple(row) for row in rounded)


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
    x1 = np.atleast_2d(np.asarray(x1, dtype=np.float64).T).T
    x2 = np.atleast_2d(np.asarray(x2, dtype=np.float64).T).T
    if x1.shape[0] != g1.n or x2.shape[0] != g2.n:
        raise DimensionMismatchError("feature row counts must match graph sizes")
    if x1.shape[1] != x2.shape[1]:
        raise DimensionMismatchError("feature matrices must share a column count")

    cond1 = (g1.n != g2.n) or (
        _sorted_rounded_rows(x1, tol) != _sorted_rounded_rows(x2, tol)
    )

    s1, s2 = _spectrum(g1), _spectrum(g2)

    cond2 = None
    for grp in s1.groups:
        if s2.find_group(grp.value, tol) is not None:
            continue
        v = s1.eigenvectors[:, list(grp.indices)]
        weight = float(np.linalg.norm(x1.T @ v))
        if weight > tol:
            cond2 = (grp.value, weight)
            break

    cond3 = None
    if g1.n == g2.n:
        for grp in s1.groups:
            other = s2.find_group(grp.value, tol)
            if other is None or other.multiplicity == grp.multiplicity:
                continue
            v1 = s1.eigenvectors[:, list(grp.indices)]
            v2 = s2.eigenvectors[:, list(other.indices)]
            # split off the shared subspace: singular value ~1 in V1^T V2
            # marks a common direction, the rest is exclusive to each side
            a, sv, bt = np.linalg.svd(v1.T @ v2)
            shared = sv >= 1.0 - max(tol, 1e-9)
            q1 = v1 @ a[:, ~_pad_mask(shared, a.shape[1])]
            q2 = v2 @ bt.T[:, ~_pad_mask(shared, bt.shape[0])]
            w1 = float(np.linalg.norm(x1.T @ q1)) if q1.shape[1] else 0.0
            w2 = float(np.linalg.norm(x2.T @ q2)) if q2.shape[1] else 0.0
            if w1 > tol or w2 > tol:
                cond3 = (grp.value, grp.multiplicity, other.multiplicity, w1, w2)
                break

    verdict = "separable" if (cond1 or cond2 or cond3) else "inconclusive"
    return ConditionReport(cond1, cond2, cond3, verdict)


def _pad_mask(mask: np.ndarray, size: int) -> np.ndarray:
    """Extend a boolean mask with False up to `size` entries."""
    out = np.zeros(size, dtype=bool)
    out[: len(mask)] = mask
    return out


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
    rows1 = _sorted_rounded_rows(np.abs(s1.eigenvectors), tol)
    rows2 = _sorted_rounded_rows(np.abs(s2.eigenvectors), tol)
    return "inconclusive" if rows1 == rows2 else "separable"
