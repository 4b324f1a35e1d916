import hashlib
import json
import random
from itertools import combinations, islice

import pytest

from superkappa import (
    InputError,
    all_minimum_vertex_cuts,
    complete,
    complete_bipartite,
    connectivity_report,
    cycle,
    direct_product,
    edge_connectivity,
    is_super_kappa,
    replay_witness,
    tilde,
    vertex_connectivity,
    vertex_connectivity_exhaustive,
)
from superkappa import connectivity
from superkappa.connectivity import VertexCut, _exhaustive_cuts, _minimum_cuts, _scan_source, classify_cut
from superkappa.construct import layered_symmetries, product_permutation, product_symmetries
from superkappa.graph import Graph, automorphism_generators, orbit
from superkappa.theorems import _witness_from_cut

from conftest import petersen, random_graph, seeded_corpus


def _first_cut(G):
    """The first cut of the separator stream, the one a refutation witnesses when kappa < delta."""
    return classify_cut(G, next(_minimum_cuts(G)[1]))


def test_vertex_connectivity_examples():
    assert vertex_connectivity(cycle(6)) == 2
    assert vertex_connectivity(direct_product(complete(3), complete(3))) == 4
    assert vertex_connectivity(petersen()) == 3
    assert vertex_connectivity_exhaustive(petersen()) == 3


def test_vertex_connectivity_degenerate():
    assert vertex_connectivity(complete(5)) == 4
    assert vertex_connectivity(complete(1)) == 0
    assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0
    with pytest.raises(InputError):
        vertex_connectivity(Graph(0, []))


def test_edge_connectivity_examples():
    assert edge_connectivity(cycle(7)) == 2
    assert edge_connectivity(complete(5)) == 4
    assert edge_connectivity(complete_bipartite(2, 3)) == 2
    with pytest.raises(InputError):
        edge_connectivity(complete(1))


def test_minimum_vertex_cut_c5(c5):
    cut = _first_cut(c5)
    a, b = sorted(cut.vertices)
    assert (b - a) % 5 in (2, 3)
    assert cut.size == 2 and cut.isolates_vertex
    assert cut.is_neighborhood_of_min_degree_vertex


def test_minimum_vertex_cut_k23(k23):
    cut = _first_cut(k23)
    assert cut.vertices == {0, 1}
    assert cut.is_neighborhood_of_min_degree_vertex


def test_minimum_vertex_cut_complete():
    assert next(_minimum_cuts(complete(4))[1], None) is None
    rep = connectivity_report(complete(4))
    assert rep.witness_cut is None and rep.vacuous_super_kappa


def test_minimum_cut_deterministic(c6):
    assert _first_cut(c6).vertices == _first_cut(c6).vertices


def test_all_minimum_cuts_c5(c5):
    enum = all_minimum_vertex_cuts(c5)
    assert enum.complete
    got = {frozenset(c.vertices) for c in enum.cuts}
    assert got == {frozenset({i, (i + 2) % 5}) for i in range(5)}


def test_all_minimum_cuts_c6(c6):
    enum = all_minimum_vertex_cuts(c6)
    assert enum.complete and len(enum.cuts) == 9
    assert len(list(_exhaustive_cuts(c6, vertex_connectivity_exhaustive(c6)))) == 9


def test_all_minimum_cuts_budget(c6):
    enum = all_minimum_vertex_cuts(c6, budget=3)
    assert not enum.complete and len(enum.cuts) == 4


def test_super_kappa_examples(c5, c6):
    assert is_super_kappa(c5).status is True
    res = is_super_kappa(c6)
    assert res.status is False
    assert res.witness.vertices in ({0, 3}, {1, 4}, {2, 5})
    k2k3 = direct_product(complete(2), complete(3))
    assert is_super_kappa(k2k3).status is False


def test_super_kappa_vacuous_and_errors():
    res = is_super_kappa(complete(4))
    assert res.status is True and res.vacuous
    with pytest.raises(InputError):
        is_super_kappa(Graph(4, [(0, 1), (2, 3)]))
    for decide in (is_super_kappa, vertex_connectivity, connectivity_report):  # one wording for the empty graph
        with pytest.raises(InputError, match="^connectivity of the empty graph$"):
            decide(Graph(0, []))


@pytest.mark.parametrize(
    "G,examined,witness",
    [
        (direct_product(cycle(3), cycle(6)), 18, None),  # a confirmation
        (cycle(8), 2, [1, 6]),  # the first cut is N(2): looked up, not classified
        (direct_product(complete(2), complete(3)), 2, [2, 5]),
        (Graph(7, [(0, 4), (1, 4), (2, 5), (3, 5), (4, 6), (5, 6), (0, 1), (2, 3)]), 1, [4]),  # kappa 1 < delta 2
    ],
    ids=["c3xc6", "c8", "k2xk3", "two-triangles-on-a-path"],
)
def test_only_the_witness_is_classified(monkeypatch, G, examined, witness):
    # each cut is looked up among the neighbourhoods of the vertices of degree kappa; only the witness is classified
    classified = []
    classify = connectivity.classify_cut
    monkeypatch.setattr(connectivity, "classify_cut", lambda H, S: classified.append(sorted(S)) or classify(H, S))
    res = is_super_kappa(G)
    assert (res.status, res.cuts_examined) == (witness is None, examined)
    assert classified == ([] if witness is None else [witness])
    if witness is not None:
        assert sorted(res.witness.vertices) == witness and res.witness == classify(G, witness)


def test_super_kappa_indeterminate(c5):
    res = is_super_kappa(c5, budget=3)
    assert res.status is None and not res.enumeration_complete


def test_max_kappa_examples(k23):
    assert connectivity_report(cycle(9)).is_max_kappa
    two_triangles = Graph(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert not connectivity_report(two_triangles).is_max_kappa
    assert connectivity_report(k23).is_max_kappa


def test_report_invariants(c6):
    rep = connectivity_report(c6)
    assert rep.kappa <= rep.kappa_edge <= rep.delta
    assert rep.is_max_kappa and rep.is_super_kappa is False
    assert rep.witness_cut is not None
    assert rep.to_json()["kappa"] == 2


def test_flow_matches_exhaustive_oracle():
    for G in seeded_corpus(seed=11, count=60, max_n=8):
        kf = vertex_connectivity(G)
        kb = vertex_connectivity_exhaustive(G)
        assert kf == kb, f"flow {kf} != brute {kb} on {sorted(G.edges)}"
        if G.n >= 2:
            assert kf <= edge_connectivity(G) <= G.min_degree()


def test_connectivity_matches_networkx_oracle():
    nx = pytest.importorskip("networkx")
    rng = random.Random(31)
    graphs = [random_graph(rng, max_n=11, connected_only=False) for _ in range(200)]
    graphs += [direct_product(cycle(a), cycle(b)) for a, b in ((3, 3), (3, 5), (4, 5), (4, 6), (5, 6))]
    for G in graphs:
        H = nx.Graph()
        H.add_nodes_from(range(G.n))
        H.add_edges_from(G.edges)
        kappa = vertex_connectivity(G)
        assert edge_connectivity(G) == nx.edge_connectivity(H), sorted(G.edges)
        assert kappa == nx.node_connectivity(H), sorted(G.edges)
        if G.is_connected() and not G.is_complete():
            cut = _first_cut(G)
            assert cut.size == kappa
            assert not nx.is_connected(H.subgraph(set(range(G.n)) - cut.vertices))


def test_separator_enumeration_matches_exhaustive():
    for G in seeded_corpus(seed=13, count=40, max_n=8):
        if G.is_complete():
            continue
        oracle = set(_exhaustive_cuts(G, vertex_connectivity_exhaustive(G)))
        enum = all_minimum_vertex_cuts(G)
        assert enum.complete
        assert {c.vertices for c in enum.cuts} == oracle


def _separates(G, S, s, t):
    """Brute force: t is out of reach of s in G - S."""
    seen, stack = {s}, [s]
    while stack:
        for w in G.neighborhood(stack.pop()) - S - seen:
            seen.add(w)
            stack.append(w)
    return t not in seen


def test_each_root_yields_exactly_its_minimum_separators():
    # the union-level oracle cannot see one pair that misses a separator
    rng, roots_checked = random.Random(41), 0
    for _ in range(120):
        n = rng.randint(4, 9)
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.choice((0.4, 0.6))])
        if not G.is_connected() or G.is_complete():
            continue
        scan = [(s, t, connectivity._flow_state(G, flow), value) for s, t, flow, value in connectivity._kappa_scan(G)]
        kappa = min(value for *_, value in scan)
        for s, t, state, value in scan:
            if value != kappa:
                continue
            got = list(connectivity._separator_cuts(G, [(s, t, *state)]))
            others = set(range(n)) - {s, t}
            oracle = {frozenset(S) for S in combinations(sorted(others), kappa) if _separates(G, set(S), s, t)}
            assert len(got) == len(set(got)) and set(got) == oracle, (sorted(G.edges), s, t)
            roots_checked += bool(oracle)
    assert roots_checked > 100


def test_isolating_min_cut_is_a_neighborhood():
    for G in seeded_corpus(seed=17, count=40, max_n=8):
        if G.is_complete():
            continue
        delta = G.min_degree()
        for cut in all_minimum_vertex_cuts(G).cuts:
            if cut.isolates_vertex and cut.size == delta:
                rest = set(range(G.n)) - cut.vertices
                isolated = [v for v in rest if G.neighborhood(v) <= cut.vertices]
                assert any(G.neighborhood(v) == cut.vertices for v in isolated)


def test_super_kappa_implies_max_kappa():
    for G in seeded_corpus(seed=19, count=40, max_n=8):
        if is_super_kappa(G).status is True:
            assert connectivity_report(G).is_max_kappa


def _decider_corpus():
    graphs = [G for G in seeded_corpus(seed=29, count=60, max_n=8) if not G.is_complete()]
    for a in range(3, 8):
        for b in range(a, 8):
            P = direct_product(cycle(a), cycle(b))
            if P.is_connected():
                graphs.append(P)
    graphs += [tilde(base, base.is_bipartite(), n)[0] for base, n in _decider_tildes()]
    return graphs


def _decider_tildes():
    """(G, n) of the cyclic layered graphs in `_decider_corpus`."""
    for base in (complete_bipartite(1, 3), complete_bipartite(2, 3), cycle(4), cycle(6)):
        for n in (3, 4, 5):
            yield base, n


def test_separator_decider_matches_exhaustive_oracle():
    for G in _decider_corpus():
        res = is_super_kappa(G)
        oracle = [classify_cut(G, S) for S in _exhaustive_cuts(G, vertex_connectivity_exhaustive(G))]
        assert res.status == all(c.is_neighborhood_of_min_degree_vertex for c in oracle), sorted(G.edges)
        if res.status:
            # a confirmation examines every minimum cut
            assert res.cuts_examined == len(oracle)
            continue
        assert replay_witness(_witness_from_cut(G, res.witness))
        delta = G.min_degree()
        min_degree_vertices = sum(1 for v in range(G.n) if G.degree(v) == delta)
        assert res.cuts_examined <= min_degree_vertices + 1
        _, stream = _minimum_cuts(G)
        *before, last = islice(stream, res.cuts_examined)
        assert last == res.witness.vertices
        assert len(set(before)) == len(before)
        assert all(classify_cut(G, S).is_neighborhood_of_min_degree_vertex for S in before)


@pytest.mark.parametrize(
    "G,status,cuts",
    [
        (direct_product(cycle(3), cycle(6)), True, 18),
        (direct_product(cycle(3), cycle(7)), True, 21),
        (cycle(5), True, 5),
        (cycle(8), False, 2),
        (direct_product(complete(2), complete(3)), False, 2),
    ],
    ids=["C3xC6", "C3xC7", "C5", "C8", "K2xK3"],
)
def test_super_kappa_cuts_examined(G, status, cuts):
    res = is_super_kappa(G)
    assert (res.status, res.cuts_examined) == (status, cuts)


@pytest.mark.parametrize(
    "G,cuts",
    [
        (
            direct_product(cycle(3), cycle(6)),
            [
                [7, 11, 13, 17], [6, 8, 12, 14], [7, 9, 13, 15], [8, 10, 14, 16], [9, 11, 15, 17],
                [6, 10, 12, 16], [1, 5, 13, 17], [1, 3, 13, 15], [2, 4, 14, 16], [3, 5, 15, 17],
                [1, 5, 7, 11], [1, 3, 7, 9], [2, 4, 8, 10], [3, 5, 9, 11], [0, 2, 12, 14],
                [0, 4, 12, 16], [0, 2, 6, 8], [0, 4, 6, 10],
            ],
        ),
        (
            direct_product(cycle(3), cycle(7)),
            [
                [8, 13, 15, 20], [7, 9, 14, 16], [8, 10, 15, 17], [9, 11, 16, 18], [10, 12, 17, 19],
                [11, 13, 18, 20], [7, 12, 14, 19], [1, 6, 15, 20], [1, 3, 15, 17], [2, 4, 16, 18],
                [3, 5, 17, 19], [4, 6, 18, 20], [1, 6, 8, 13], [1, 3, 8, 10], [2, 4, 9, 11],
                [3, 5, 10, 12], [4, 6, 11, 13], [0, 2, 14, 16], [0, 5, 14, 19], [0, 2, 7, 9],
                [0, 5, 7, 12],
            ],
        ),
        (
            cycle(8),
            [
                [1, 7], [1, 6], [1, 5], [1, 4], [1, 3], [2, 7], [2, 6], [2, 5], [2, 4], [3, 7],
                [3, 6], [3, 5], [4, 7], [4, 6], [5, 7], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6],
            ],
        ),
        (
            direct_product(complete(2), complete(3)),
            [[4, 5], [2, 5], [3, 5], [1, 4], [3, 4], [1, 2], [0, 2], [0, 3], [0, 1]],
        ),
        (
            tilde(complete_bipartite(2, 3), complete_bipartite(2, 3).is_bipartite(), 3)[0],
            [[0, 1, 5, 6], [5, 6, 10, 11], [0, 1, 10, 11]],
        ),
    ],
    ids=["C3xC6", "C3xC7", "C8", "K2xK3", "tilde(kbip(2,3),3)"],
)
def test_separator_cut_stream_order(G, cuts):
    # the order decides which witness a refutation reports
    _, stream = _minimum_cuts(G)
    assert [sorted(S) for S in stream] == cuts


def _cut_stream_corpus():
    """318 connected non-complete graphs: seeded random graphs, C_a x C_b, tilde(K_m,k, n)."""
    for i in range(400):
        rng = random.Random(i)
        n, p = rng.randint(3, 11), rng.choice((0.3, 0.5, 0.7))
        G = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        if G.is_connected() and not G.is_complete():
            yield G
    for a in range(3, 8):
        for b in range(a, 8):
            if a % 2 or b % 2:  # two even cycles give two components
                yield direct_product(cycle(a), cycle(b))
    for m in (2, 3):
        for k in range(m, 5):
            K = complete_bipartite(m, k)
            for n in range(3, 7):
                yield tilde(K, K.is_bipartite(), n)[0]


def test_minimum_cut_stream_digest():
    # the whole ordered stream, byte for byte: a new flow engine or enumeration must keep it
    digest, graphs, cuts = hashlib.sha256(), 0, 0
    for G in _cut_stream_corpus():
        kappa, stream = _minimum_cuts(G)
        line = [kappa, [sorted(S) for S in stream]]
        digest.update((json.dumps(line) + "\n").encode())
        graphs, cuts = graphs + 1, cuts + len(line[1])
    assert (graphs, cuts) == (318, 1204)
    assert digest.hexdigest() == "32f39cc9eff0423a76e293a56a28b8090231f9b24199bea5c29a49fac28ae879"


@pytest.mark.parametrize(
    "G,cut",
    [
        (direct_product(cycle(3), cycle(6)), [7, 11, 13, 17]),
        (direct_product(cycle(3), cycle(7)), [8, 13, 15, 20]),
        (cycle(8), [1, 7]),
        (direct_product(complete(2), complete(3)), [4, 5]),
        (tilde(complete_bipartite(2, 3), complete_bipartite(2, 3).is_bipartite(), 3)[0], [0, 1, 5, 6]),
    ],
    ids=["C3xC6", "C3xC7", "C8", "K2xK3", "tilde(kbip(2,3),3)"],
)
def test_minimum_vertex_cut_is_the_first_stream_cut(G, cut):
    assert sorted(_first_cut(G).vertices) == cut


@pytest.mark.parametrize(
    "G,pairs,searches,closures",
    [
        (direct_product(cycle(3), cycle(6)), 19, 77, 159),
        (direct_product(cycle(3), cycle(7)), 22, 89, 186),
        (cycle(8), 6, 13, 2),
        (direct_product(complete(2), complete(3)), 4, 9, 3),
        (tilde(complete_bipartite(2, 3), complete_bipartite(2, 3).is_bipartite(), 3)[0], 16, 65, 74),
    ],
    ids=["C3xC6", "C3xC7", "C8", "K2xK3", "tilde(kbip(2,3),3)"],
)
def test_super_kappa_work_counts(monkeypatch, pairs_scanned, G, pairs, searches, closures):
    # deterministic work, so a change that redoes flows shows up here
    counts = {"searches": 0, "closures": 0}
    flow = connectivity._SplitFlow
    max_flow, closure = flow.max_flow, connectivity._closure

    def counting_max_flow(self, s, t, limit):
        found = max_flow(self, s, t, limit)
        # one search per unit found, plus the one that found no path, if run
        counts["searches"] += found + (found < limit)
        return found

    def counting_closure(*args):
        counts["closures"] += 1  # one per Lawler node
        return closure(*args)

    monkeypatch.setattr(flow, "max_flow", counting_max_flow)
    monkeypatch.setattr(connectivity, "_closure", counting_closure)
    is_super_kappa(G)
    assert {"pairs": len(pairs_scanned), **counts} == {"pairs": pairs, "searches": searches, "closures": closures}


def _product_bases():
    """(G, n) with G x C_n connected: (C_a, b) over the cut-stream corpus's ranges, and seeded random
    connected G with n = 3..9."""
    for a in range(3, 8):
        for b in range(a, 8):
            if a % 2 or b % 2:
                yield cycle(a), b
    rng = random.Random(23)
    for n in range(3, 10):
        for G in (random_graph(rng, max_n=6) for _ in range(3)):
            if n % 2 or G.is_bipartite() is None:
                yield G, n


def _reflected_products():
    """Each G x C_n of `_product_bases`, with the cycle reflection of its second factor."""
    for G, n in _product_bases():
        yield direct_product(G, cycle(n)), product_permutation(G, n, sign=-1)


def test_reflection_pruned_kappa_equals_the_full_scan(pairs_scanned):
    for H, reflection in _reflected_products():
        kappa, full = vertex_connectivity(H), len(pairs_scanned)
        pairs_scanned.clear()
        assert vertex_connectivity(H, [reflection]) == kappa
        assert len(pairs_scanned) < full  # for s = (v,0), the pairs of s with (v,1) and (v,-1) share an orbit
        pairs_scanned.clear()


def test_stabiliser_pruned_kappa_equals_the_full_scan_and_the_oracle(pairs_scanned):
    # G x C_n's scan source is (s, 0): each automorphism of G that fixes s, lifted layer by layer, fixes it
    rng = random.Random(24)
    bases = list(_product_bases()) + [(random_graph(rng, max_n=5), n) for n in (3, 5, 7) for _ in range(6)]
    pruned_by_stabiliser = 0
    for G, n in bases:
        H = direct_product(G, cycle(n))
        s, reflection = _scan_source(G), product_permutation(G, n, sign=-1)
        lifted = [product_permutation(G, n, phi) for phi in automorphism_generators(G, s) if phi[s] == s]
        assert H.labels[_scan_source(H)] == f"({s},0)"
        flows = []
        for maps in ((), [reflection], [reflection, *lifted]):
            pairs_scanned.clear()
            flows.append((vertex_connectivity(H, maps), len(pairs_scanned)))
        assert flows[0][0] == flows[1][0] == flows[2][0], (sorted(G.edges), n)
        if H.n <= 25:
            assert flows[2][0] == vertex_connectivity_exhaustive(H), (sorted(G.edges), n)
        if lifted:  # the pairs of s with (u, 0) and (phi(u), 0) share an orbit that the reflection alone splits
            assert flows[2][1] < flows[1][1], (sorted(G.edges), n)
            pruned_by_stabiliser += 1
        else:
            assert flows[2][1] == flows[1][1]
    assert pruned_by_stabiliser > 20


def test_the_neighbour_phase_is_skipped_only_when_the_source_orbit_outnumbers_the_first_phase_minimum():
    # generators of each graph's automorphism group, those that fix its scan source s first, as the scan's maps
    rng = random.Random(29)
    graphs = [random_graph(rng, max_n=9) for _ in range(150)] + [petersen(), complete_bipartite(3, 4)]
    graphs += [direct_product(cycle(a), cycle(b)) for a, b in ((3, 3), (3, 4), (4, 4))] + [cycle(k) for k in (5, 6)]
    skipped = ran = 0
    for G in graphs:
        s = _scan_source(G)
        maps = automorphism_generators(G, s)
        kappa = vertex_connectivity(G)
        assert vertex_connectivity(G, maps) == kappa == vertex_connectivity_exhaustive(G), sorted(G.edges)
        if G.is_complete():
            continue
        scanned = [(u, t, value) for u, t, _, value in connectivity._kappa_scan(G, maps)]
        best = min((value for u, _, value in scanned if u == s), default=G.n - 1)
        pruned = connectivity._orbit_firsts(connectivity._pair_scan_order(G), [p for p in maps if p[s] == s])
        if len(orbit(s, maps)) > best:
            assert [pair for pair in pruned if pair[0] == s] == [(u, t) for u, t, _ in scanned], sorted(G.edges)
            skipped += any(pair[0] != s for pair in pruned)
        else:
            assert pruned == [(u, t) for u, t, _ in scanned], sorted(G.edges)
            ran += any(pair[0] != s for pair in pruned)
    assert skipped > 10 and ran > 20


def test_uncertified_maps_are_dropped(pairs_scanned):
    H = direct_product(cycle(3), cycle(5))  # every vertex has degree 4: the scan's source is 0
    swap = list(range(H.n))
    swap[1], swap[2] = 2, 1  # fixes 0 and permutes V, but (0,1) and (0,2) have different neighbours
    collapse = [0] * H.n  # no bijection
    reflection = product_permutation(cycle(3), 5, sign=-1)
    assert connectivity._automorphisms(H, [swap, collapse, reflection]) == [reflection]
    pairs = connectivity._pair_scan_order(H)
    assert len(connectivity._orbit_firsts(pairs, [swap])) < len(pairs)  # it would prune the scan, were it trusted
    kappa = vertex_connectivity(H)
    unpruned = len(pairs_scanned)
    for bad in (swap, collapse, swap[:-1]):
        pairs_scanned.clear()
        assert vertex_connectivity(H, [bad]) == kappa
        assert len(pairs_scanned) == unpruned


def test_a_certified_map_that_moves_the_source_skips_the_neighbour_phase(pairs_scanned):
    H = direct_product(cycle(3), cycle(5))
    shift = product_permutation(cycle(3), 5, shift=1)  # an automorphism that moves 0 through its 5 layers
    assert connectivity._automorphisms(H, [shift]) == [shift]
    first_phase = [pair for pair in connectivity._pair_scan_order(H) if pair[0] == 0]
    kappa = vertex_connectivity(H)
    assert kappa == 4 and len(pairs_scanned) > len(first_phase)
    pairs_scanned.clear()
    assert vertex_connectivity(H, [shift]) == kappa  # the orbit of 0 has 5 > 4 vertices: no neighbour pair is scanned
    assert pairs_scanned == first_phase


def test_connectivity_report_runs_one_kappa_scan(monkeypatch):
    scans = []
    scan_order = connectivity._pair_scan_order
    monkeypatch.setattr(connectivity, "_pair_scan_order", lambda G: scans.append(G) or scan_order(G))
    G = direct_product(cycle(3), cycle(6))
    rep = connectivity_report(G)
    assert len(scans) == 1
    assert (rep.kappa, rep.delta, rep.is_max_kappa, rep.is_super_kappa) == (4, 4, True, True)


def test_a_decision_with_maps_orders_the_pairs_once(monkeypatch):
    scans = []
    scan_order = connectivity._pair_scan_order
    monkeypatch.setattr(connectivity, "_pair_scan_order", lambda G: scans.append(G) or scan_order(G))
    B = cycle(6)
    H = direct_product(B, cycle(3))
    maps = product_symmetries(B, 3, automorphism_generators(B, _scan_source(B)))
    res = is_super_kappa(H, symmetries=maps)
    assert len(scans) == 1
    assert (res.status, res.cuts_examined) == (True, 18)


def _constructions_with_maps():
    """(H, maps): each G x C_n of `_product_bases` with `product_symmetries`, and each cyclic layered graph of
    `_decider_corpus` with `layered_symmetries`, both from the generators of Aut(G) based at G's scan source."""
    for G, n in _product_bases():
        yield direct_product(G, cycle(n)), product_symmetries(G, n, automorphism_generators(G, _scan_source(G)))
    for G, n in _decider_tildes():
        s, B = _scan_source(G), G.is_bipartite()
        yield tilde(G, B, n)[0], layered_symmetries(G, B, n, s, automorphism_generators(G, s))


def _is_automorphism(G, p):  # read off the edge set, apart from `connectivity._automorphisms`
    return sorted(p) == list(range(G.n)) and {tuple(sorted((p[u], p[v]))) for u, v in G.edges} == G.edges


def test_the_constructions_maps_leave_kappa_and_the_cut_stream_unchanged(pairs_scanned):
    # kappa from the pruned scan, and every pair of the full scan order as a root, each flowed when reached
    graphs = pruned = dropped = 0
    for H, maps in _constructions_with_maps():
        kappa, stream = _minimum_cuts(H)
        cuts, full = [sorted(S) for S in stream], len(pairs_scanned)
        pairs_scanned.clear()
        swap = list(range(H.n))
        swap[0], swap[1] = 1, 0
        for extra in ([], [swap], [[0] * H.n], [maps[0][:-1]]):
            kappa_m, stream_m = _minimum_cuts(H, maps + extra)
            assert (kappa_m, [sorted(S) for S in stream_m]) == (kappa, cuts), (sorted(H.edges), extra)
            if not extra:
                pruned += len(pairs_scanned) < full
            pairs_scanned.clear()
        kept = connectivity._automorphisms(H, maps + [swap, [0] * H.n, maps[0][:-1]])
        assert kept == maps + [swap] * _is_automorphism(H, swap)
        dropped += not _is_automorphism(H, swap)
        graphs += 1
    assert (graphs, pruned, dropped) == (44, 44, 41)


def _classify_by_components(G, S):
    """Reference classification: build G - S as a Graph and take its components."""
    S = frozenset(S)
    for v in S:
        G._check_vertex(v)
    comps = G.induced_subgraph(set(range(G.n)) - S).components()
    if len(comps) < 2:
        raise InputError(f"{sorted(S)} is not a vertex cut")
    delta = G.min_degree()
    return VertexCut(
        vertices=S,
        size=len(S),
        isolates_vertex=any(len(c) == 1 for c in comps),
        is_neighborhood_of_min_degree_vertex=any(
            G.degree(v) == delta and G.neighborhood(v) == S for v in range(G.n) if v not in S
        ),
    )


def _outcome(classify, G, S):
    try:
        return classify(G, S)
    except InputError as exc:
        return type(exc), str(exc)


def test_classify_cut_matches_components_of_the_remainder():
    rng = random.Random(37)
    graphs = [random_graph(rng, max_n=9, connected_only=False) for _ in range(200)]
    for G in graphs:
        subsets = [S for k in range(4) for S in combinations(range(G.n), k)]
        subsets += [range(G.n), [G.n], [-1], [0, G.n + 2], ["a"], [0.5]]
        for S in subsets:
            got = _outcome(classify_cut, G, S)
            assert got == _outcome(_classify_by_components, G, S), (sorted(G.edges), S)
