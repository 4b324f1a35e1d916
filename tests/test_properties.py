from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from superkappa import (
    Graph,
    direct_product,
    edge_connectivity,
    is_isomorphic_small,
    vertex_connectivity,
    vertex_connectivity_exhaustive,
)


@st.composite
def small_graphs(draw, max_n=8, min_n=1):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, mask) if keep])


@given(small_graphs())
def test_degree_sum_is_twice_edge_count(G):
    assert sum(G.degree(v) for v in range(G.n)) == 2 * len(G.edges)
    for v in range(G.n):
        assert G.degree(v) == len(G.neighborhood(v))
        assert v not in G.neighborhood(v)


@given(small_graphs())
def test_components_partition_vertices(G):
    comps = G.components()
    seen = set()
    for c in comps:
        assert not seen & c
        seen |= c
    assert seen == set(range(G.n))


def _has_odd_cycle(G):
    # independent oracle: an odd closed walk exists iff trace(A^k) > 0 for
    # some odd k <= n, and a shortest odd closed walk is an odd cycle
    n = G.n
    A = [[0] * n for _ in range(n)]
    for u, v in G.edges:
        A[u][v] = A[v][u] = 1
    P = [row[:] for row in A]
    for k in range(1, n + 1):
        if k % 2 == 1 and any(P[i][i] for i in range(n)):
            return True
        P = [
            [sum(P[i][j] * A[j][l] for j in range(n)) for l in range(n)]
            for i in range(n)
        ]
    return False


@given(small_graphs(max_n=12))
def test_bipartite_iff_no_odd_cycle(G):
    assert (G.is_bipartite() is not None) == (not _has_odd_cycle(G))


@given(small_graphs(max_n=7))
def test_bipartition_is_proper(G):
    b = G.is_bipartite()
    if b is not None:
        assert b.X | b.Y == frozenset(range(G.n)) and not b.X & b.Y
        for u, v in G.edges:
            assert (u in b.X) != (v in b.X)


@given(small_graphs(max_n=8))
def test_remove_nothing_preserves_graph(G):
    stripped = G.induced_subgraph(range(G.n))
    assert stripped.n == G.n and stripped.edges == G.edges


@given(small_graphs(max_n=7, min_n=1))
def test_isomorphism_reflexive(G):
    assert is_isomorphic_small(G, G)


@given(small_graphs(max_n=6, min_n=2), small_graphs(max_n=6, min_n=2))
def test_isomorphism_symmetric(G, H):
    assert is_isomorphic_small(G, H) == is_isomorphic_small(H, G)


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=7, min_n=2))
def test_whitney_chain_and_oracle(G):
    kappa = vertex_connectivity(G)
    assert kappa == vertex_connectivity_exhaustive(G)
    assert kappa <= edge_connectivity(G) <= G.min_degree()


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_n=4, min_n=2), small_graphs(max_n=4, min_n=2))
def test_product_size_and_commutativity(G, H):
    if not G.edges or not H.edges:
        return
    P = direct_product(G, H)
    assert P.n == G.n * H.n
    assert len(P.edges) == 2 * len(G.edges) * len(H.edges)
    assert is_isomorphic_small(P, direct_product(H, G))


@settings(max_examples=30, deadline=None)
@given(small_graphs(max_n=6, min_n=2), small_graphs(max_n=6, min_n=2))
def test_weichsel_criterion(G, H):
    if not (G.is_connected() and H.is_connected() and G.edges and H.edges):
        return
    P = direct_product(G, H)
    both_bipartite = G.is_bipartite() is not None and H.is_bipartite() is not None
    if both_bipartite:
        assert len(P.components()) == 2
    else:
        assert P.is_connected()
