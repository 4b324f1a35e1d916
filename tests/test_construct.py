import random
from functools import reduce
from itertools import combinations

import pytest

from superkappa import (
    GenerationError,
    Graph,
    InputError,
    build_expression,
    complete,
    complete_bipartite,
    cycle,
    direct_product,
    double_cover,
    is_isomorphic_small,
    layer_decomposition,
    random_connected_bipartite,
    random_connected_nonbipartite,
    tilde,
    vertex_connectivity,
)
from superkappa.connectivity import _scan_source
from superkappa import construct
from superkappa.construct import layered_symmetries, odd_cycle_lengths, product_permutation, product_symmetries
from superkappa.graph import _maps_onto, automorphism_generators

from conftest import petersen, random_graph


def test_base_families():
    c3 = cycle(3)
    assert c3.n == 3 and len(c3.edges) == 3
    assert all(c3.degree(v) == 2 for v in range(3))
    assert len(complete(4).edges) == 6
    kb = complete_bipartite(2, 3)
    assert len(kb.edges) == 6 and kb.min_degree() == 2


@pytest.mark.parametrize("factory,args", [(cycle, (2,)), (complete, (0,)), (complete_bipartite, (0, 3))])
def test_family_parameter_floors(factory, args):
    with pytest.raises(InputError):
        factory(*args)


def test_direct_product_definition():
    p = direct_product(complete(2), complete(2))
    assert p.n == 4 and p.edges == frozenset({(0, 3), (1, 2)})
    assert is_isomorphic_small(direct_product(cycle(3), complete(2)), cycle(6))
    k3k3 = direct_product(complete(3), complete(3))
    assert k3k3.n == 9 and len(k3k3.edges) == 18
    assert vertex_connectivity(k3k3) == 4


def test_product_size_identity():
    for g, h in [(cycle(5), complete(3)), (complete_bipartite(2, 3), cycle(4))]:
        p = direct_product(g, h)
        assert p.n == g.n * h.n
        assert len(p.edges) == 2 * len(g.edges) * len(h.edges)


def test_product_commutative_up_to_isomorphism():
    g, h = cycle(5), complete(3)
    assert is_isomorphic_small(direct_product(g, h), direct_product(h, g))


def test_product_labels():
    p = direct_product(complete(2), complete(2))
    assert p.labels[3] == "(1,1)"


def _coordinates(H):
    """(v, i) per vertex of a product G x H', read from the labels `direct_product` writes."""
    return [tuple(map(int, label.strip("()").split(","))) for label in H.labels]


@pytest.mark.parametrize("G,n", [(cycle(5), 6), (complete_bipartite(2, 3), 5), (petersen(), 3)])
def test_cycle_reflection_is_an_automorphism_fixing_layer_zero(G, n):
    H, p = direct_product(G, cycle(n)), product_permutation(G, n, sign=-1)
    assert sorted(p) == list(range(H.n))
    assert _maps_onto(p.__getitem__, H.edges, H.edges)
    at = _coordinates(H)
    assert all(at[p[x]] == (v, -i % n) and p[p[x]] == x for x, (v, i) in enumerate(at))  # fixes layer 0


def test_product_maps_move_each_labelled_vertex_as_their_formula_says():
    # each map is checked against the labels, which record (v, i) apart from the numbering's arithmetic
    rng, lifts, fixing_lifts, cases, swaps = random.Random(27), 0, 0, set(), 0
    for n in range(3, 10):
        for G in (random_graph(rng, max_n=6) for _ in range(6)):
            H, s, B = direct_product(G, cycle(n)), _scan_source(G), G.is_bipartite()
            gens = automorphism_generators(G, s)
            fixing = [0] + [2 + k for k, phi in enumerate(gens) if phi[s] == s]  # the reflection, lifts fixing s
            lifts, fixing_lifts = lifts + len(gens), fixing_lifts + len(fixing) - 1
            at = _coordinates(H)
            formulas = [lambda v, i: (v, -i % n), lambda v, i: (v, (i + 1) % n)]
            formulas += [lambda v, i, phi=phi: (phi[v], i) for phi in gens]
            product = product_symmetries(G, n, gens)
            assert len(product) == len(formulas)
            for p, formula in zip(product, formulas):
                assert [at[p[x]] for x in range(H.n)] == [formula(*c) for c in at]
                assert _maps_onto(p.__getitem__, H.edges, H.edges)  # an automorphism of G x C_n
            source = at.index((s, 0))  # the scan source of G x C_n
            assert [k for k, p in enumerate(product) if p[source] == source] == fixing
            if B:  # the maps on the cyclic layered graph, whose labels count layers from 1
                L = tilde(G, B, n)[0]
                at_layer = [(v, i - 1) for v, i in _coordinates(L)]
                c = (0, -1) if s in B.X else (1, 0)  # per side, X first: one more on X, 0 on s's side
                formulas = [lambda v, i: (v, c[v in B.Y] - i), lambda v, i: (v, i + 1)]
                for phi in gens:
                    swapping = (phi[s] in B.Y) != (s in B.Y)
                    formulas.append(lambda v, i, phi=phi, sign=-1 if swapping else 1: (phi[v], sign * i))
                    swaps += swapping
                layered = layered_symmetries(G, B, n, s, gens)
                assert len(layered) == len(formulas)
                for p, formula in zip(layered, formulas):
                    assert [at_layer[p[x]] for x in range(L.n)] == [(w, j % n) for w, j in (formula(*c) for c in at_layer)]
                    assert _maps_onto(p.__getitem__, L.edges, L.edges)  # an automorphism of tilde(G, B, n)
                source = at_layer.index((s, 0))  # the reversal and the lifts fixing s fix (s, 0)
                assert [k for k, p in enumerate(layered) if p[source] == source] == fixing
            try:
                dec = layer_decomposition(G, n)
            except InputError:  # n below the case's minimum
                continue
            cases.add(dec.case)
            B = G.is_bipartite()
            base = G if B else double_cover(G)
            below = [(v,) for v in range(G.n)] if B else _coordinates(base)
            blocks = dec.H + dec.H_prime
            assert len(dec.block_maps) == len(blocks)
            for f, block in zip(dec.block_maps, blocks):
                assert _maps_onto(f, block, base.edges)
                assert all(below[f(x)][0] == at[x][0] for e in block for x in e)  # over the same vertex of G
            if B and n % 2:
                assert _maps_onto(dec.tilde_map, tilde(G, B, n)[0].edges, H.edges)
    assert lifts > 20 and fixing_lifts > 10 and swaps > 5 and cases == {"bipartite-odd", "bipartite-even", "nonbipartite-even", "nonbipartite-odd"}


def test_double_cover():
    assert is_isomorphic_small(double_cover(cycle(5)), cycle(10))
    dc = double_cover(cycle(6))
    comps = dc.components()
    assert len(comps) == 2
    for c in comps:
        assert is_isomorphic_small(dc.induced_subgraph(sorted(c)), cycle(6))
    assert double_cover(petersen()).min_degree() == 3


def test_tilde_small_cycle():
    kb = complete_bipartite(1, 1)
    g, _ = tilde(kb, kb.is_bipartite(), 3)
    assert is_isomorphic_small(g, cycle(6))


def test_tilde_counts_and_kappa():
    kb = complete_bipartite(2, 3)
    g, dec = tilde(kb, kb.is_bipartite(), 3)
    assert g.n == 15 and len(g.edges) == 36 and g.min_degree() == 4
    assert vertex_connectivity(g) == 4
    assert dec.n_layers == 3 and len(dec.H) == 3 and len(dec.H_prime) == 3


def test_tilde_structure_invariants():
    base = cycle(6)
    B = base.is_bipartite()
    for n in (2, 3, 4):
        g, dec = tilde(base, B, n)
        assert g.n == n * base.n
        assert len(g.edges) == 2 * n * len(base.edges)
        assert g.min_degree() == 2 * base.min_degree()
        cover = set()
        for part in dec.layer_X + dec.layer_Y:
            assert not cover & part
            cover |= part
        assert cover == set(range(g.n))
        for k in range(n):
            assert all(u in dec.layer_X[(k + 1) % n] or v in dec.layer_X[(k + 1) % n]
                       for u, v in dec.H_prime[k])
        assert dec.all_block_edges() == g.edges


def test_tilde_input_validation():
    with pytest.raises(InputError):
        tilde(cycle(5), None, 3)
    kb = complete_bipartite(2, 2)
    with pytest.raises(InputError):
        tilde(kb, kb.is_bipartite(), 1)
    disconnected = complete_bipartite(1, 1)
    two = direct_product(disconnected, disconnected)  # 2 components
    b = two.is_bipartite()
    with pytest.raises(InputError):
        tilde(two, b, 3)


@pytest.mark.parametrize(
    "base,n,case",
    [
        ("kbip23", 3, "bipartite-odd"),
        ("kbip23", 4, "bipartite-even"),
        ("c6", 6, "bipartite-even"),
        ("c5", 6, "nonbipartite-even"),
        ("c5", 7, "nonbipartite-odd"),
    ],
)
def test_layer_decomposition_reassembles(base, n, case):
    G = {"kbip23": complete_bipartite(2, 3), "c5": cycle(5), "c6": cycle(6)}[base]
    dec = layer_decomposition(G, n)
    assert dec.case == case
    prod = direct_product(G, cycle(n))
    assert dec.all_block_edges() == prod.edges
    if case == "nonbipartite-odd":
        assert len(dec.H) == (n + 1) // 2 and len(dec.H_prime) == (n - 1) // 2
    elif case.startswith("nonbipartite"):
        assert len(dec.H) == len(dec.H_prime) == n // 2


@pytest.mark.parametrize(
    "base,n,message",
    [
        ("kbip23", 1, "bipartite-odd needs n >= 3, got 1"),
        ("kbip23", 2, "bipartite-even needs n >= 4, got 2"),
        ("c5", 2, "nonbipartite-even needs n >= 4, got 2"),
        ("c5", 3, "nonbipartite-odd needs n >= 5, got 3"),
        ("k2xk2", 4, "base graph must be connected"),
    ],
    ids=["bipartite-odd", "bipartite-even", "nonbipartite-even", "nonbipartite-odd", "disconnected"],
)
def test_layer_decomposition_n_minimum(base, n, message):
    G = {
        "kbip23": complete_bipartite(2, 3),
        "c5": cycle(5),
        "k2xk2": direct_product(complete(2), complete(2)),
    }[base]
    with pytest.raises(InputError, match=message):
        layer_decomposition(G, n)


@pytest.mark.parametrize(
    "base,n",
    [("kbip23", 3), ("kbip23", 4), ("c6", 5), ("c6", 6), ("c5", 6), ("c5", 7), ("petersen", 6), ("petersen", 7)],
)
def test_layer_decomposition_matches_networkx_oracle(base, n):
    nx = pytest.importorskip("networkx")
    G = {"kbip23": complete_bipartite(2, 3), "c6": cycle(6), "c5": cycle(5), "petersen": petersen()}[base]
    g = nx.Graph(list(G.edges))
    dec = layer_decomposition(G, n)
    copy = g if dec.case.startswith("bipartite") else nx.tensor_product(g, nx.complete_graph(2))
    product = nx.tensor_product(g, nx.cycle_graph(n))
    blocks = dec.H + dec.H_prime
    for block in blocks:
        assert nx.is_isomorphic(nx.Graph(list(block)), copy)
    for a, b in combinations(blocks, 2):
        assert not a & b
    # networkx's vertex (u, i) is the one direct_product(G, cycle(n)) labels (u,i)
    vertex = {label: x for x, label in enumerate(direct_product(G, cycle(n)).labels)}
    assert set().union(*blocks) == {
        tuple(sorted((vertex[f"({u},{i})"], vertex[f"({v},{j})"]))) for (u, i), (v, j) in product.edges
    }


def _relabelled(G, seed):
    perm = list(range(G.n))
    random.Random(seed).shuffle(perm)
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def _odd_cycle_products(limit):
    """Every nondecreasing tuple of at least two odd cycle lengths whose product is at most `limit`."""
    found = []

    def grow(lengths, order):
        if len(lengths) >= 2:
            found.append(lengths)
        for length in range(lengths[-1] if lengths else 3, limit // order + 1, 2):
            grow((*lengths, length), order * length)

    grow((), 1)
    return found


@pytest.mark.parametrize(
    "expression,lengths",
    [
        ("cycle(3) x cycle(5)", (3, 5)),
        ("cycle(5) x cycle(3)", (3, 5)),
        ("cycle(3) x complete(3)", (3, 3)),  # K3 is C3, whatever its spelling
        ("cycle(3) x cycle(4)", ()),  # even order
        ("tilde(kbip(2,3),3) x cycle(3)", ()),  # not regular
        ("cycle(1001)", (1001,)),  # one cycle is walked, at any size
        ("cycle(3) x cycle(5) x cycle(7)", None),  # 105 vertices: above ISO_CAP, undecided
    ],
)
def test_odd_cycle_lengths_are_read_from_the_graph(expression, lengths):
    assert odd_cycle_lengths(build_expression(expression)[0]) == lengths


def test_odd_cycle_lengths_are_undecided_once_the_search_budget_is_spent(monkeypatch):
    G = _relabelled(direct_product(cycle(3), cycle(5)), 1)
    assert odd_cycle_lengths(G) == (3, 5)
    monkeypatch.setattr(construct, "STABILISER_NODES", 3)
    assert odd_cycle_lengths(G) is None


def test_odd_cycle_lengths_match_networkx_oracle():
    """The derived lengths are certified exactly when networkx finds G isomorphic to some product of odd cycles,
    over seeded random 4-regular graphs of odd order 9-63, 8-regular ones of 27, 45 and 63 vertices, and a
    relabelling of every product of at least two odd cycles up to 63 vertices."""
    nx = pytest.importorskip("networkx")
    products = {L: nx.Graph(list(reduce(direct_product, map(cycle, L)).edges)) for L in _odd_cycle_products(63)}
    rng, corpus = random.Random(20261021), []
    for degree, order in [(4, rng.randrange(9, 64, 2)) for _ in range(40)] + [(8, n) for n in (27, 45, 63) * 2]:
        g = nx.random_regular_graph(degree, order, seed=rng.randrange(10**6))
        if nx.is_connected(g):
            corpus.append(Graph(order, g.edges))
    corpus += [_relabelled(reduce(direct_product, map(cycle, L)), seed) for seed, L in enumerate(products)]
    for G in corpus:
        g = nx.Graph(list(G.edges))
        matches = {L for L, p in products.items() if p.number_of_nodes() == G.n and nx.vf2pp_is_isomorphic(g, p)}
        lengths = odd_cycle_lengths(G)
        assert lengths is not None
        assert (lengths in matches) if lengths else not matches


def test_random_bipartite_deterministic():
    g1, b1 = random_connected_bipartite(3, 3, 0.7, 42, min_delta=2)
    g2, _ = random_connected_bipartite(3, 3, 0.7, 42, min_delta=2)
    assert g1.edges == g2.edges
    assert g1.is_connected() and g1.min_degree() >= 2
    full, _ = random_connected_bipartite(4, 4, 1.0, 7)
    assert full == complete_bipartite(4, 4)


def test_random_bipartite_impossible():
    with pytest.raises(GenerationError):
        random_connected_bipartite(1, 1, 0.1, 1, min_delta=2)


def test_resampling_keeps_its_pair_draws_within_the_edge_cap():
    # every attempt draws each vertex pair once; small draws keep the whole budget
    with pytest.raises(GenerationError, match="in 10000 attempts"):
        random_connected_nonbipartite(4, 0.5, 1, min_delta=4)
    with pytest.raises(GenerationError, match="in 3 attempts"):
        random_connected_nonbipartite(800, 1e-9, 1)  # 319,600 pairs
    with pytest.raises(GenerationError, match="in 2 attempts"):
        random_connected_bipartite(600, 600, 1e-9, 1)  # 360,000 pairs


def test_random_nonbipartite():
    assert random_connected_nonbipartite(5, 1.0, 0) == complete(5)
    assert random_connected_nonbipartite(3, 1.0, 0) == complete(3)
    g1 = random_connected_nonbipartite(8, 0.5, 7, min_delta=3)
    g2 = random_connected_nonbipartite(8, 0.5, 7, min_delta=3)
    assert g1.edges == g2.edges
    assert g1.is_bipartite() is None and g1.min_degree() >= 3


@pytest.mark.parametrize("p", [0, -0.5, 1.5])
@pytest.mark.parametrize(
    "draw",
    [lambda p: random_connected_bipartite(2, 2, p, 1), lambda p: random_connected_nonbipartite(4, p, 1)],
    ids=["bipartite", "nonbipartite"],
)
def test_edge_probability_outside_the_unit_interval_is_refused(draw, p):
    with pytest.raises(InputError, match=rf"^edge probability must be in \(0,1\], got {p}$"):
        draw(p)
