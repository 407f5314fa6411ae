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
