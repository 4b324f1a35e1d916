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
