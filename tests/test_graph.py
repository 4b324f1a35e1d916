import random

import pytest

from superkappa import (
    CapacityError,
    Graph,
    InputError,
    complete,
    complete_bipartite,
    cycle,
    direct_product,
    is_isomorphic_small,
)
from superkappa import graph
from superkappa.graph import _maps_onto, automorphism_generators

from conftest import petersen, random_graph


def test_neighborhood_examples(c5, k4, k23):
    assert c5.neighborhood(0) == {1, 4}
    assert k4.neighborhood(2) == {0, 1, 3}
    assert k23.neighborhood(0) == {2, 3, 4}


def test_neighborhood_invalid_vertex(c5):
    with pytest.raises(InputError):
        c5.neighborhood(5)
    with pytest.raises(InputError):
        c5.neighborhood(-1)


def test_degrees():
    for n in range(3, 9):
        assert cycle(n).min_degree() == 2
    assert complete_bipartite(2, 3).min_degree() == 2
    prod = direct_product(complete_bipartite(2, 3), cycle(4))
    assert prod.min_degree() == 4


def test_min_degree_empty_graph():
    with pytest.raises(InputError):
        Graph(0, []).min_degree()


def test_rejects_self_loops_and_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])


def test_components(c6):
    assert len(c6.components()) == 1
    k2k2 = direct_product(complete(2), complete(2))
    comps = k2k2.components()
    assert sorted(len(c) for c in comps) == [2, 2]
    c4c6 = direct_product(cycle(4), cycle(6))
    assert len(c4c6.components()) == 2


def test_is_bipartite(c5, c6, k23):
    b = c6.is_bipartite()
    assert (set(b.X), set(b.Y)) == ({0, 2, 4}, {1, 3, 5})
    assert c5.is_bipartite() is None
    b = k23.is_bipartite()
    assert (set(b.X), set(b.Y)) == ({0, 1}, {2, 3, 4})


def test_bipartite_lowest_index_in_x():
    two_paths = Graph(4, [(0, 1), (2, 3)])
    b = two_paths.is_bipartite()
    assert 0 in b.X and 2 in b.X


def test_remove_and_induced(c5, k4, k23):
    rest = c5.induced_subgraph({0, 2, 4})
    assert rest.n == 3 and len(rest.edges) == 1
    isolated = [v for v in range(3) if rest.degree(v) == 0]
    assert [rest.label(v) for v in isolated] == ["2"]
    assert is_isomorphic_small(k4.induced_subgraph({1, 2, 3}), complete(3))
    sub = k23.induced_subgraph({0, 1, 2})
    assert is_isomorphic_small(sub, complete_bipartite(2, 1))
    with pytest.raises(InputError):
        c5.induced_subgraph({0, 7})


def test_remove_nothing_is_identity(c6):
    assert c6.induced_subgraph(range(6)) == c6


def test_isomorphism_examples(c6):
    assert is_isomorphic_small(c6, direct_product(complete(2), complete(3)))
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_isomorphic_small(c6, two_triangles)
    prod = direct_product(complete_bipartite(2, 3), cycle(4))
    comps = prod.components()
    assert len(comps) == 2
    g1 = prod.induced_subgraph(sorted(comps[0]))
    g2 = prod.induced_subgraph(sorted(comps[1]))
    assert is_isomorphic_small(g1, g2)


def test_isomorphism_cap():
    with pytest.raises(CapacityError):
        is_isomorphic_small(cycle(70), cycle(70))


def test_isomorphism_degree_prefilter():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    path4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not is_isomorphic_small(star, path4)


def _generated_group(maps, n):
    """Every permutation the maps generate, as tuples read as v -> p[v]."""
    group = {tuple(range(n))}
    frontier = list(group)
    for a in frontier:  # the frontier grows as it is read
        for p in maps:
            c = tuple(p[x] for x in a)
            if c not in group:
                group.add(c)
                frontier.append(c)
    return group


def _certified_maps(G, maps):
    return all(sorted(p) == list(range(G.n)) and _maps_onto(p.__getitem__, G.edges, G.edges) for p in maps)


def _fixing_first(maps, v):
    """The maps that fix v, checked to come before every map that moves it."""
    fixing = [p for p in maps if p[v] == v]
    assert maps[: len(fixing)] == fixing
    return fixing


def _automorphism_corpus():
    """(G, its automorphisms from networkx) over small families, products and seeded random graphs."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    rng = random.Random(24)
    graphs = [cycle(k) for k in range(3, 9)] + [complete_bipartite(a, b) for a in range(1, 4) for b in range(a, 4)]
    graphs += [petersen()] + [direct_product(cycle(a), cycle(b)) for a, b in ((3, 3), (3, 4), (3, 5), (5, 5))]
    graphs += [random_graph(rng, max_n=8) for _ in range(60)]
    for G in graphs:
        H = nx.Graph(list(G.edges))
        H.add_nodes_from(range(G.n))
        yield G, {tuple(m[x] for x in range(G.n)) for m in GraphMatcher(H, H).isomorphisms_iter()}


def test_stabiliser_generators_generate_the_stabiliser():
    # the maps that fix the base come first and generate its stabiliser
    for G, automorphisms in _automorphism_corpus():
        for v in range(G.n):
            maps = automorphism_generators(G, v)
            assert _certified_maps(G, maps), (sorted(G.edges), v)
            stabiliser = {p for p in automorphisms if p[v] == v}
            assert _generated_group(_fixing_first(maps, v), G.n) == stabiliser, (sorted(G.edges), v)


def test_automorphism_generators_with_nothing_fixed_generate_the_whole_group():
    # all the maps, those that move the base too, generate Aut(G) whatever the base
    for G, automorphisms in _automorphism_corpus():
        for v in range(G.n):
            maps = automorphism_generators(G, v)
            assert _certified_maps(G, maps), (sorted(G.edges), v)
            assert _generated_group(maps, G.n) == automorphisms, (sorted(G.edges), v)


def test_stabiliser_search_above_its_caps_returns_certified_maps(monkeypatch):
    # the stabiliser of vertex 0, from the maps that fix it, and the whole group
    G = petersen()
    whole = _generated_group(automorphism_generators(G, 0), G.n)
    stabiliser = {p for p in whole if p[0] == 0}
    assert [len(stabiliser), len(whole)] == [12, 120]  # vertex-transitive: 120 automorphisms, 10 vertices
    assert automorphism_generators(cycle(graph.ISO_CAP + 1), 0) == []
    sizes = set()
    for budget in range(40):  # the search stops part way below 24 nodes (the stabiliser part), or 34, and completes there
        monkeypatch.setattr(graph, "STABILISER_NODES", budget)
        maps = automorphism_generators(G, 0)
        assert _certified_maps(G, maps)
        fixing = _fixing_first(maps, 0)
        part, group = _generated_group(fixing, G.n), _generated_group(maps, G.n)
        assert part <= stabiliser and group <= whole
        assert fixing == maps or part == stabiliser  # no map moves 0 until the stabiliser part is complete
        sizes.add((len(part), len(group)))
    for found, full in zip(zip(*sizes), (stabiliser, whole)):
        assert {1, len(full)} < set(found)  # a proper, nontrivial subgroup too
    monkeypatch.setattr(graph, "ISO_CAP", 4)
    assert automorphism_generators(G, 0) == []


def test_one_search_finds_the_stabiliser_then_the_group_at_pinned_node_counts(monkeypatch):
    # the maps that fix 0 generate its stabiliser from the first count of search nodes on, and all the maps
    # the whole group from the second
    for G, orders, nodes in ((direct_product(cycle(3), cycle(5)), (4, 60), (35, 65)), (petersen(), (12, 120), (24, 34))):
        found = []
        for budget in (nodes[0] - 1, nodes[0], nodes[1] - 1, nodes[1]):
            monkeypatch.setattr(graph, "STABILISER_NODES", budget)
            maps = automorphism_generators(G, 0)
            found.append((len(_generated_group(_fixing_first(maps, 0), G.n)), len(_generated_group(maps, G.n))))
        assert found[0][0] < orders[0] == found[1][0], G
        assert found[2][1] < orders[1] == found[3][1], G


def _scattered_graph(rng):
    """A seeded graph of several components: sparse random pieces, some of
    them isolated vertices, their vertex indices shuffled together."""
    pieces = []
    for _ in range(rng.randint(1, 4)):
        k = rng.choice([1, 1, 2, 3, 4, 5, 6])
        p = rng.uniform(0.2, 0.9)
        pieces.append([(i, j) for i in range(k) for j in range(i + 1, k) if rng.random() < p] + [k])
    n = sum(piece[-1] for piece in pieces)
    order, edges, base = rng.sample(range(n), n), [], 0
    for *piece, k in pieces:
        edges += [(order[base + i], order[base + j]) for i, j in piece]
        base += k
    return Graph(n, edges)


def test_traversal_matches_networkx_oracle():
    nx = pytest.importorskip("networkx")
    rng = random.Random(22)
    graphs = [Graph(0, []), Graph(1, []), Graph(3, [(0, 2)])] + [_scattered_graph(rng) for _ in range(300)]
    assert sum(len(G.components()) > 2 for G in graphs) > 100
    assert sum(G.is_bipartite() is None for G in graphs) > 50
    for G in graphs:
        H = nx.Graph(list(G.edges))
        H.add_nodes_from(range(G.n))
        expected = sorted((frozenset(c) for c in nx.connected_components(H)), key=min)
        assert G.components() == expected, sorted(G.edges)
        assert G.is_connected() == (len(expected) == 1)
        B = G.is_bipartite()
        assert (B is None) == (not nx.is_bipartite(H)), sorted(G.edges)
        if B is not None:
            assert B.X | B.Y == set(range(G.n)) and not B.X & B.Y
            assert all((u in B.X) != (v in B.X) for u, v in G.edges)
            assert all(min(c) in B.X for c in expected)


def test_one_traversal_serves_components_connectivity_and_bipartition():
    G = Graph(7, [(0, 3), (3, 5), (1, 2), (2, 6), (1, 6)])  # a path, a triangle and vertex 4
    comps = G.components()
    G._adj = None  # every later answer comes from the kept traversal
    assert G.components() == comps == [{0, 3, 5}, {1, 2, 6}, {4}]
    assert not G.is_connected() and G.is_bipartite() is None
    P = Graph(5, [(0, 3), (3, 1), (1, 4), (4, 2)])
    assert P.is_connected()
    P._adj = None
    B = P.is_bipartite()
    assert (B.X, B.Y) == ({0, 1, 2}, {3, 4}) and P.components() == [set(range(5))]
