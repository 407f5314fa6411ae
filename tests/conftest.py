import numpy as np
import pytest

from spectrawl import Permutation, apply_permutation, corpus_graph, erdos_renyi


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
