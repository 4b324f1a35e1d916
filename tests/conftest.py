import random

import pytest

from superkappa import Graph, complete, complete_bipartite, connectivity, cycle


@pytest.fixture
def c5():
    return cycle(5)


@pytest.fixture
def c6():
    return cycle(6)


@pytest.fixture
def k23():
    return complete_bipartite(2, 3)


@pytest.fixture
def k4():
    return complete(4)


@pytest.fixture
def pairs_scanned(monkeypatch):
    """A list that gets one entry per (s, t) pair `connectivity._kappa_scan` yields during the test."""
    scanned, scan = [], connectivity._kappa_scan

    def counting(*args):
        for pair in scan(*args):
            scanned.append(pair[:2])
            yield pair

    monkeypatch.setattr(connectivity, "_kappa_scan", counting)
    return scanned


def petersen():
    """The Petersen graph: outer 5-cycle 0..4, spokes i-(i+5), inner pentagram 5..9."""
    return Graph(10, [
        (0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
        (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
        (5, 7), (7, 9), (6, 9), (6, 8), (5, 8),
    ])


def random_graph(rng, max_n=8, connected_only=True):
    """Small seeded random graph for oracle corpora."""
    while True:
        n = rng.randint(2, max_n)
        p = rng.uniform(0.3, 0.9)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
        G = Graph(n, edges)
        if not connected_only or G.is_connected():
            return G


def seeded_corpus(seed, count, max_n=8):
    rng = random.Random(seed)
    return [random_graph(rng, max_n=max_n) for _ in range(count)]
