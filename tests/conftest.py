import bisect
import tracemalloc

import numpy as np
import pytest

from spectrawl import Permutation, apply_permutation, corpus_graph, erdos_renyi, spectral, wl
from spectrawl.spectral import EigenGroup


@pytest.fixture(scope="session")
def prism():
    return corpus_graph("prism")


@pytest.fixture(scope="session")
def k33():
    return corpus_graph("k33")


@pytest.fixture(scope="session")
def bihexagon():
    return corpus_graph("bihexagon")


@pytest.fixture(scope="session")
def bipentagon():
    return corpus_graph("bipentagon")


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps module.name for this test; returns its call list."""

    def install(module, name):
        calls = []
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return calls

    return install


def traced_peak(fn):
    """fn() and the peak bytes that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_graph_pairs(count, n_max=8, p=0.35, seed=0):
    """Seeded (graph, permuted copy, permutation) triples for invariance tests."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, n_max + 1))
        g = erdos_renyi(n, p, rng)
        perm = Permutation.random(n, rng)
        out.append((g, apply_permutation(g, perm), perm))
    return out


def assert_conditions_agree(lazy, eager, r, rel=1e-9, abs_tol=0.0):
    """Two ConditionReports of one pair agree up to the eigensolver's rounding.

    Verdict, condition 1 and each witness's group (value within 1e-12 r,
    multiplicities equal) must match; weights agree within rel (and abs_tol).
    """
    assert (lazy.verdict, lazy.cond1_signals_differ) == (eager.verdict, eager.cond1_signals_differ)
    for a, b in ((lazy.cond2_witness, eager.cond2_witness), (lazy.cond3_witness, eager.cond3_witness)):
        assert (a is None) == (b is None)
        if a is not None:
            assert abs(a[0] - b[0]) <= 1e-12 * r
            assert list(a[1:]) == pytest.approx(list(b[1:]), rel=rel, abs=abs_tol)


# ---------------------------------------------------------------------------
# Reference implementations: the straightforward loops the library's array
# code replaced. Each must give the library's answer bit for bit.
# ---------------------------------------------------------------------------


def half_power_diag_powers(g, depth):
    """diag(S^k) as row dots of S^floor(k/2) and S^ceil(k/2), one product per power."""
    s = g.adjacency
    out = np.empty((g.n, depth))
    out[:, 0] = 1.0
    if depth > 1:
        out[:, 1] = np.diag(s)
    p = q = s
    for k in range(2, depth):
        p = q
        if k % 2:
            q = q @ s
        out[:, k] = (p[:, None, :] @ q[:, :, None])[:, 0, 0]
    return out


def loop_group_indices(w, tol):
    """Eigenvalue groups by one pass over ascending w; a group's value is np.mean of its slice."""
    groups = []
    start = 0
    for i in range(1, len(w) + 1):
        if i == len(w) or w[i] - w[i - 1] > tol:
            groups.append(EigenGroup(float(np.mean(w[start:i])), tuple(range(start, i))))
            start = i
    return tuple(groups)


def bisect_find_group(s, value, tol):
    """Nearest group of s within tol by bisecting, then scanning the two neighbors."""
    i = bisect.bisect_left(s.groups, value, key=lambda grp: grp.value)
    best = None
    for grp in s.groups[max(i - 1, 0) : i + 1]:
        if abs(grp.value - value) <= tol and (
            best is None or abs(grp.value - value) < abs(best.value - value)
        ):
            best = grp
    return best


def loop_unmatched_groups(a, b, tol):
    """(group, partner) for each group of a that b lacks at equal multiplicity, one lookup per group."""
    spectral._check_tol(tol)
    for grp in a.groups:
        other = bisect_find_group(b, grp.value, tol)
        if other is None or other.multiplicity != grp.multiplicity:
            yield grp, other


def tuple_rows_isomorphic(y1, y2, tol=1e-6):
    """Row-multiset comparison by sorting the rounded rows as Python tuples."""
    spectral._check_tol(tol)
    y1, y2 = spectral._as_rows(y1), spectral._as_rows(y2)
    if y1.shape[1] != y2.shape[1]:
        raise ValueError("embeddings must share a column count")
    if y1.shape[0] != y2.shape[0]:
        return False
    digits = max(0, int(np.ceil(-np.log10(tol))))
    rows1, rows2 = (sorted(map(tuple, np.round(y, digits) + 0.0)) for y in (y1, y2))
    return rows1 == rows2


def full_refinement(g1, g2, init):
    """Joint refinement from init run to stability, with no early exit.

    Returns the verdict, the round count and the final colorings.
    """
    colorings = [wl._initial_colors(g, init) for g in (g1, g2)]
    nbrs = [wl._neighbor_lists(g) for g in (g1, g2)]
    rounds = 0
    for rounds in range(1, g1.n + g2.n + 2):
        colorings, changed = wl._refine_step(colorings, nbrs)
        if not changed:
            break
    same = np.array_equal(*(np.sort(cs) for cs in colorings))
    return ("indistinguishable" if same else "distinguished"), rounds, colorings
