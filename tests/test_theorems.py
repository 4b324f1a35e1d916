import json
import pickle
from collections import Counter
from dataclasses import replace

import pytest

from superkappa import (
    Graph,
    InputError,
    check_hypotheses,
    complete,
    complete_bipartite,
    connectivity,
    cycle,
    direct_product,
    double_cover,
    parse_graph6,
    predicted,
    replay_witness,
    verify,
    verify_decomposition,
)
from superkappa import graph, theorems
from superkappa.theorems import (
    CONFIRMED,
    HYP_NOT_MET,
    REFUTED,
    RULES,
    THEOREM_IDS,
    _maps_onto,
    _shift_is_isomorphism,
    hypotheses_hold,
)


def clause_map(clauses):
    return {c["clause"]: c["holds"] for c in clauses}


def test_hypotheses_l22_part_size_fails(k23):
    clauses = check_hypotheses("L2.2", k23, n=3)
    cm = clause_map(clauses)
    assert cm["|X| >= delta+1 (2 vs 3)"] is False
    assert not hypotheses_hold(clauses)


def test_hypotheses_l22_c6(c6):
    assert hypotheses_hold(check_hypotheses("L2.2", c6, n=3))


def test_hypotheses_t37_c5():
    clauses = check_hypotheses("T3.7", cycle(5), n=6)
    assert hypotheses_hold(clauses)
    # boundary: the strict inequality clause is exact rational comparison
    bad = check_hypotheses("T3.7", cycle(5), n=4)
    assert not hypotheses_hold(bad)


def test_hypotheses_unknown_theorem(c6):
    with pytest.raises(InputError):
        check_hypotheses("T9.9", c6, n=3)


def test_predicted_values(k23):
    assert predicted("T2.1", k23, n=3) == 4
    claim = predicted("T3.2", k23, n=4)
    assert claim["components"] == 2 and claim["component_kappa"] == 4
    prod = direct_product(cycle(3), cycle(5))
    assert predicted("T3.9", prod) == 4


def test_predicted_refuses_unmet_hypotheses(k23):
    with pytest.raises(InputError):
        predicted("L2.2", k23, n=3)


def test_verify_t21(k23):
    v = verify("T2.1", k23, n=3)
    assert v.verdict == CONFIRMED and v.predicted == 4 and v.actual == 4


def test_verify_t31(k23):
    v = verify("T3.1", k23, n=3)
    assert v.verdict == CONFIRMED and v.actual == 4


def test_verify_t32(k23):
    v = verify("T3.2", k23, n=4)
    assert v.verdict == CONFIRMED
    assert v.actual["components"] == 2 and v.actual["isomorphic"]


def test_verify_t33():
    v = verify("T3.3", cycle(5), n=4)
    assert v.verdict == CONFIRMED


def test_verify_t34_interval():
    v = verify("T3.4", cycle(5), n=5)
    lo, hi = v.predicted
    assert v.verdict == CONFIRMED and lo <= v.actual <= hi


def test_verify_l22_hypotheses_not_met(k23):
    v = verify("L2.2", k23, n=3)
    assert v.verdict == HYP_NOT_MET


def test_verify_l22_confirmed(c6):
    v = verify("L2.2", c6, n=3)
    assert v.verdict == CONFIRMED


def test_verify_t39():
    v = verify("T3.9", cycle(3))
    assert v.verdict == CONFIRMED and v.predicted == 2
    prod = direct_product(cycle(3), cycle(5))
    v = verify("T3.9", prod)
    assert v.verdict == CONFIRMED and v.actual == 4


def test_verify_corollaries():
    v = verify("C3.10", cycle(3), n=6)
    assert v.verdict == CONFIRMED
    v = verify("C3.11", cycle(3), n=7)
    assert v.verdict == CONFIRMED
    assert any("T3.8" in note for note in v.notes)


def test_a_corollary_refuted_on_kappa_of_the_double_cover_builds_no_construction(monkeypatch):
    # were T3.9's value not 2^k, C3.10 would be refuted before G x C_n or its maps are built
    monkeypatch.setitem(RULES, "T3.9", replace(RULES["T3.9"], predict=lambda inv, n: 3))
    monkeypatch.setattr(theorems, "_construct", lambda *args: pytest.fail("built the construction"))
    v = verify("C3.10", cycle(3), n=6)
    assert (v.verdict, v.actual) == (REFUTED, {"kappa_double_cover": 2, "delta": 2, "expected": 3})


def test_odd_cycle_clause_reads_g_not_its_spelling():
    v = verify("C3.10", cycle(5), n=6)  # k = 1: T3.9 gives kappa(C5 x K2) = 2, and T3.7 then applies
    assert v.verdict == CONFIRMED and clause_map(v.hypotheses)["G is a direct product of k >= 1 odd cycles"]
    assert verify("T3.9", cycle(5)).predicted == 2
    assert verify("T3.9", direct_product(cycle(3), complete(3))).predicted == 4  # K3 is C3
    with pytest.raises(TypeError):
        verify("C3.10", cycle(5), n=6, odd_cycle_lengths=[3, 3])


@pytest.mark.parametrize(
    "G",
    [
        complete(1),  # delta 0
        cycle(6),  # connected and 2-regular, refused by its even order alone
        Graph(9, [(i, j) for t in (0, 3, 6) for i, j in ((t, t + 1), (t + 1, t + 2), (t, t + 2))]),  # 3 triangles
        Graph(15, [(i, (i + d) % 15) for i in range(15) for d in (1, 2)]),  # 4-regular with triangles: not C3 x C5
        # of order 75 = 3 x 25 = 5 x 15, above ISO_CAP, and refused before any search: disconnected, not regular,
        # and 6-regular
        Graph(75, [(u + t, v + t) for u, v in direct_product(cycle(5), cycle(5)).edges for t in (0, 25, 50)]),
        Graph(75, [*direct_product(cycle(5), cycle(15)).edges, (0, 1)]),
        Graph(75, [(i, (i + d) % 75) for i in range(75) for d in (1, 2, 3)]),
    ],
    ids=["K1", "C6", "three-triangles", "circulant-15-1-2", "three-C5xC5", "C5xC15-plus-an-edge", "circulant-75-1-2-3"],
)
@pytest.mark.parametrize("theorem_id,n", [("T3.9", None), ("C3.10", 6), ("C3.11", 7)])
def test_odd_cycle_clause_fails_off_a_product_of_odd_cycles(G, theorem_id, n):
    v = verify(theorem_id, G, n=n)
    assert v.verdict == HYP_NOT_MET
    assert clause_map(v.hypotheses)["G is a direct product of k >= 1 odd cycles"] is False


def test_odd_cycle_clause_undecided_above_iso_cap_is_indeterminate():
    G = direct_product(direct_product(cycle(3), cycle(5)), cycle(7))  # 105 vertices
    v = verify("T3.9", G)
    assert v.verdict == theorems.INDETERMINATE and v.actual is None
    assert clause_map(v.hypotheses) == {"G is connected": True, "G is a direct product of k >= 1 odd cycles": None}
    assert v.notes == [theorems.UNDECIDED_FACTORS]
    assert verify("C3.10", G, n=5).verdict == HYP_NOT_MET  # a failing clause outweighs an undecided one


def test_verify_t36():
    v = verify("T3.6", cycle(6), n=6)
    assert v.verdict == CONFIRMED
    assert v.actual["super_kappa"] == [True, True]


def test_verdict_serializes(k23):
    doc = verify("T2.1", k23, n=2).to_json()
    assert doc["verdict"] == CONFIRMED and doc["theorem_id"] == "T2.1"


def test_indeterminate_on_tiny_budget(c6):
    v = verify("T3.5", cycle(6), n=3, budget=1)
    assert v.verdict == "indeterminate"


def test_witness_replays():
    from superkappa import is_super_kappa
    from superkappa.theorems import _witness_from_cut

    res = is_super_kappa(cycle(8))
    assert res.status is False
    witness = _witness_from_cut(cycle(8), res.witness)
    assert replay_witness(witness)


@pytest.mark.parametrize("theorem_id,n,decider", [("T3.2", 4, "vertex_connectivity"), ("T3.6", 6, "is_super_kappa")])
@pytest.mark.parametrize("certified", [True, False], ids=["certified", "shift-fails"])
def test_two_components_are_decided_once_when_certified(monkeypatch, theorem_id, n, decider, certified):
    """C6 x C_n: the cycle shift certifies its two components isomorphic, so one
    is decided and its value reported for both; without the certificate both
    are decided and the verdict is refuted."""
    G, decided = cycle(6), []
    original = getattr(connectivity, decider)

    def spy(H, *args, **kwargs):
        decided.append(H)
        return original(H, *args, **kwargs)

    monkeypatch.setattr(connectivity, decider, spy)
    if not certified:
        monkeypatch.setattr(theorems, "_shift_is_isomorphism", lambda H, shift, A, B: False)
    v = verify(theorem_id, G, n=n)
    components = [H for H in decided if H.n == G.n * n // 2]
    assert len(components) == (1 if certified else 2)
    if not certified:
        assert set(components[0].labels).isdisjoint(components[1].labels)  # the two components
    assert v.verdict == (CONFIRMED if certified else REFUTED)
    assert v.actual["components"] == 2 and v.actual["isomorphic"] is certified
    values = v.actual["component_kappa" if theorem_id == "T3.2" else "super_kappa"]
    assert len(values) == 2 and values[0] == values[1]


@pytest.mark.parametrize(
    "base,n",
    [("kbip23", 3), ("kbip23", 4), ("c5", 6), ("c5", 7)],
)
def test_verify_decomposition(base, n):
    G = {"kbip23": complete_bipartite(2, 3), "c5": cycle(5)}[base]
    v = verify_decomposition(G, n)
    assert v.verdict == CONFIRMED
    assert v.actual["reassembly"] and v.actual["blocks_match_base"]
    if base == "kbip23" and n == 3:
        assert v.actual["tilde_edge_identity"]


def test_verify_decomposition_complete_base():
    v = verify_decomposition(complete(4), 6)
    assert v.verdict == CONFIRMED


def test_verify_decomposition_disconnected_base():
    v = verify_decomposition(Graph(4, [(0, 1), (2, 3)]), 4)
    assert v.verdict == HYP_NOT_MET and v.actual is None
    assert clause_map(v.hypotheses) == {"G is connected": False}
    assert v.theorem_id == v.instance["check"] == "decomposition:bipartite-even"
    assert v.notes == ["the proof of T3.6 uses this decomposition"]


@pytest.mark.parametrize("base,n", [("kbip23", 3), ("kbip23", 4), ("c5", 6), ("c5", 7)])
@pytest.mark.parametrize("tamper", ["moved", "doubled"])
def test_verify_decomposition_refutes_a_tampered_block(monkeypatch, base, n, tamper):
    """One edge of H_1 moved into H'_1 leaves the blocks a partition of the
    product's edges but breaks two blocks; one edge of H'_1 also put in H_1
    breaks the partition."""
    G = {"kbip23": complete_bipartite(2, 3), "c5": cycle(5)}[base]
    honest = theorems.layer_decomposition

    def tampered(G, n):
        dec = honest(G, n)
        if tamper == "moved":
            edge = min(dec.H[0])
            dec.H[0], dec.H_prime[0] = dec.H[0] - {edge}, dec.H_prime[0] | {edge}
        else:
            dec.H[0] = dec.H[0] | {min(dec.H_prime[0])}
        return dec

    assert verify_decomposition(G, n).verdict == CONFIRMED
    monkeypatch.setattr(theorems, "layer_decomposition", tampered)
    v = verify_decomposition(G, n)
    assert v.verdict == REFUTED
    assert v.actual["reassembly"] is (tamper == "moved")
    assert v.actual["blocks_match_base"] is False


def _joined(a, b, bridges):
    """a and b side by side, plus the edges (u, v) from u in a to v in b."""
    edges = list(a.edges) + [(u + a.n, v + a.n) for u, v in b.edges] + [(u, v + a.n) for u, v in bridges]
    return Graph(a.n + b.n, edges)


TABLE_GRAPHS = {
    "kbip23": complete_bipartite(2, 3),
    "kbip34": complete_bipartite(3, 4),
    "c3": cycle(3),
    "c5": cycle(5),
    "c6": cycle(6),
    "c3xc5": direct_product(cycle(3), cycle(5)),
    "kbip33-bridge-kbip33": _joined(complete_bipartite(3, 3), complete_bipartite(3, 3), [(0, 3)]),
    "k4-bridge-k4": _joined(complete(4), complete(4), [(0, 0)]),
}
CONNECTED, BIPARTITE, NONBIPARTITE = ("G is connected", True), ("G is bipartite", True), ("G is non-bipartite", True)
PARTS_3_3 = [("|X| >= delta+1 (3 vs 3)", True), ("|Y| >= delta+1 (3 vs 3)", True)]
ODD_CYCLES = ("G is a direct product of k >= 1 odd cycles", True)
SUPER = {"super_kappa": True}
NOT_MET = None  # predicted() refuses: the hypotheses do not hold

# (theorem, graph, n, every (clause, holds), prediction)
TABLE_CASES = [
    ("T2.1", "kbip23", 3, [CONNECTED, BIPARTITE, ("n >= 2", True)], 4),
    ("L2.2", "c6", 3, [
        CONNECTED, BIPARTITE, ("n >= 3", True), *PARTS_3_3,
        ("kappa(G) > (2/n) delta(G)  [3*2 > 2*2]", True)], SUPER),
    ("T3.1", "kbip23", 3, [CONNECTED, BIPARTITE, ("n >= 3 odd", True)], 4),
    ("T3.2", "kbip23", 4, [CONNECTED, BIPARTITE, ("n >= 4 even", True)],
     {"components": 2, "component_kappa": 4, "isomorphic": True}),
    ("T3.3", "c5", 4, [CONNECTED, NONBIPARTITE, ("n >= 4 even", True)], 4),
    ("T3.4", "c5", 5, [CONNECTED, NONBIPARTITE, ("n >= 5 odd", True)], [4, 4]),
    ("T3.5", "c6", 3, [
        CONNECTED, BIPARTITE, ("n >= 3 odd", True), *PARTS_3_3,
        ("kappa(G) > (2/n) delta(G)  [3*2 > 2*2]", True)], SUPER),
    ("T3.6", "c6", 6, [
        CONNECTED, BIPARTITE, ("n >= 6 even", True), *PARTS_3_3,
        ("kappa(G) > (4/n) delta(G)  [6*2 > 4*2]", True)],
     {"components": 2, "component_kappa": 4, "isomorphic": True, "super_kappa": True}),
    ("T3.7", "c5", 6, [
        CONNECTED, NONBIPARTITE, ("n >= 6 even", True),
        ("kappa(GxK2) > (4/n) delta(G)  [6*2 > 4*2]", True)], SUPER),
    ("T3.8", "c5", 7, [
        CONNECTED, NONBIPARTITE, ("n >= 7 odd", True),
        ("kappa(GxK2) > (4/(n-1)) delta(G)  [6*2 > 4*2]", True)], SUPER),
    ("T3.9", "c3xc5", None, [CONNECTED, ODD_CYCLES], 4),
    ("C3.10", "c3", 6, [CONNECTED, ("n >= 6 even", True), ODD_CYCLES], SUPER),
    ("C3.11", "c3", 7, [CONNECTED, ("n >= 7 odd", True), ODD_CYCLES], SUPER),
    # one failing clause each, for the targets of the tightness search
    ("L2.2", "kbip34", 3, [
        CONNECTED, BIPARTITE, ("n >= 3", True), ("|X| >= delta+1 (3 vs 4)", False),
        ("|Y| >= delta+1 (4 vs 4)", True), ("kappa(G) > (2/n) delta(G)  [3*3 > 2*3]", True)], NOT_MET),
    ("T3.5", "kbip33-bridge-kbip33", 3, [
        CONNECTED, BIPARTITE, ("n >= 3 odd", True), ("|X| >= delta+1 (6 vs 4)", True),
        ("|Y| >= delta+1 (6 vs 4)", True), ("kappa(G) > (2/n) delta(G)  [3*1 > 2*3]", False)], NOT_MET),
    ("T3.6", "kbip33-bridge-kbip33", 6, [
        CONNECTED, BIPARTITE, ("n >= 6 even", True), ("|X| >= delta+1 (6 vs 4)", True),
        ("|Y| >= delta+1 (6 vs 4)", True), ("kappa(G) > (4/n) delta(G)  [6*1 > 4*3]", False)], NOT_MET),
    ("T3.7", "k4-bridge-k4", 6, [
        CONNECTED, NONBIPARTITE, ("n >= 6 even", True),
        ("kappa(GxK2) > (4/n) delta(G)  [6*2 > 4*3]", False)], NOT_MET),
    ("T3.8", "k4-bridge-k4", 7, [
        CONNECTED, NONBIPARTITE, ("n >= 7 odd", True),
        ("kappa(GxK2) > (4/(n-1)) delta(G)  [6*2 > 4*3]", False)], NOT_MET),
]


def test_table_cases_cover_every_rule():
    assert THEOREM_IDS == tuple(RULES)
    assert {case[0] for case in TABLE_CASES} == set(THEOREM_IDS)


@pytest.mark.parametrize(
    "theorem_id,graph,n,clauses,claim", TABLE_CASES,
    ids=[f"{c[0]}-{c[1]}-n{c[2]}" for c in TABLE_CASES],
)
def test_rule_table_clauses_and_prediction(theorem_id, graph, n, clauses, claim):
    G = TABLE_GRAPHS[graph]
    got = check_hypotheses(theorem_id, G, n=n)
    assert [(c["clause"], c["holds"]) for c in got] == clauses
    if claim is NOT_MET:
        assert sum(not holds for _, holds in clauses) == 1
        with pytest.raises(InputError):
            predicted(theorem_id, G, n=n)
    else:
        assert predicted(theorem_id, G, n=n) == claim


@pytest.mark.parametrize(
    "theorem_id,G,n,kappa_calls,cover_calls",
    [
        ("T3.7", cycle(5), 6, 0, 1),
        ("T3.3", cycle(5), 4, 0, 1),
        ("C3.10", cycle(3), 6, 0, 1),
        ("T3.5", cycle(6), 3, 1, 0),
        ("T2.1", complete_bipartite(2, 3), 3, 1, 0),
    ],
    ids=["T3.7", "T3.3", "C3.10", "T3.5", "T2.1"],
)
def test_verify_computes_base_kappas_at_most_once(monkeypatch, theorem_id, G, n, kappa_calls, cover_calls):
    calls = Counter()
    original = connectivity.vertex_connectivity

    def counting(H, *args):
        calls[H] += 1
        return original(H, *args)

    monkeypatch.setattr(connectivity, "vertex_connectivity", counting)
    assert verify(theorem_id, G, n=n).verdict == CONFIRMED
    assert calls[G] == kappa_calls
    assert calls[double_cover(G)] == cover_calls


@pytest.mark.parametrize(
    "theorem_id,G,n,pairs",
    [
        # 155 with every pair scanned, 102 with the reflection alone, 60 with the stabiliser lifted too
        ("T3.4", direct_product(cycle(3), cycle(5)), 7, 53),
        ("T3.3", cycle(5), 6, 18),  # 39, 29, 21
        ("T3.1", complete_bipartite(2, 3), 5, 10),  # 29, 19, 13
        ("T2.1", complete_bipartite(2, 3), 3, 7),  # 19 with every pair scanned
        ("T2.1", cycle(6), 4, 12),  # 29
    ],
    ids=["T3.4", "T3.3", "T3.1", "T2.1-kbip23", "T2.1-c6"],
)
def test_value_verdict_flow_counts(pairs_scanned, theorem_id, G, n, pairs):
    # the construction's scan runs one pair per orbit of its automorphisms that fix its source, and skips its
    # neighbour phase when the source's orbit under all the maps outnumbers the first phase's minimum;
    # kappa(G x K2) and kappa(G) scan every pair
    assert verify(theorem_id, G, n=n).verdict == CONFIRMED
    assert len(pairs_scanned) == pairs


@pytest.mark.parametrize(
    "theorem_id,with_maps,without_maps",
    [("L2.2", (8, 25), (22, 67)), ("T3.5", (9, 31), (22, 71))],
    ids=["L2.2", "T3.5"],
)
def test_a_refutation_flows_only_the_pairs_up_to_its_witness(monkeypatch, theorem_id, with_maps, without_maps):
    # F`EBW misses only the strict clause at n = 3; its construction's decision on 22 pairs ends at the first cut.
    # With the maps, kappa comes from the pruned scan and only the pairs up to the witness's root are flowed.
    work = []
    max_flow = connectivity._SplitFlow.max_flow

    def counting(self, s, t, limit):
        found = max_flow(self, s, t, limit)
        work[-1][0] += 1
        work[-1][1] += found + (found < limit)  # one search per unit found, plus the one that found no path, if run
        return found

    monkeypatch.setattr(connectivity._SplitFlow, "max_flow", counting)

    def decide():
        work.append([0, 0])
        verdict = theorems.conclude(theorem_id, parse_graph6("F`EBW"), 3).to_json()
        assert verdict["verdict"] == REFUTED and verdict["actual"]["minimum_cuts"] == 1
        return {**verdict, "runtime_ms": 0}

    verdict = decide()
    monkeypatch.setattr(theorems, "product_symmetries", lambda *args: [])
    monkeypatch.setattr(theorems, "layered_symmetries", lambda *args: [])
    assert decide() == verdict  # the same witness
    assert [tuple(w) for w in work] == [with_maps, without_maps]


def test_automorphisms_are_searched_once_per_base_for_products_and_layered_graphs(monkeypatch):
    searched = []
    search = theorems.automorphism_generators
    monkeypatch.setattr(theorems, "automorphism_generators", lambda G, base: searched.append((G, base)) or search(G, base))
    assert verify("T3.9", cycle(3)).verdict == CONFIRMED  # G x K2: no lift
    assert searched == []
    G = complete_bipartite(2, 3)  # the scan source of G is 2, the lowest vertex of degree 2
    for n in (3, 4):
        assert verify("T2.1", G, n=n).verdict == CONFIRMED  # the cyclic layered graph
    for n in (3, 5):
        assert verify("T3.1", G, n=n).verdict == CONFIRMED
    assert verify("T3.1", complete_bipartite(2, 3), n=3).verdict == CONFIRMED  # an equal graph, a new object
    assert [base for _, base in searched] == [2, 2]
    assert [H is G for H, _ in searched] == [True, False]


@pytest.mark.parametrize("cap", [("ISO_CAP", 4), ("STABILISER_NODES", 3)], ids=["ISO_CAP", "STABILISER_NODES"])
def test_value_verdicts_hold_when_the_stabiliser_search_stops(monkeypatch, pairs_scanned, cap):
    # each call builds its base anew, so no generators are kept from an earlier call
    # (theorem, base, n, kappa, pairs scanned with every generator found), as pinned above
    cases = [("T3.4", lambda: direct_product(cycle(3), cycle(5)), 7, 8, 53), ("T3.3", lambda: cycle(5), 6, 4, 18),
             ("T2.1", lambda: cycle(6), 4, 4, 12)]
    monkeypatch.setattr(graph, *cap)
    for tid, base, n, kappa, pairs in cases:
        verdict = verify(tid, base(), n=n)
        assert verdict.verdict == CONFIRMED and verdict.actual == kappa
        assert pairs < len(pairs_scanned)  # fewer maps, fewer pairs pruned
        pairs_scanned.clear()


def test_t32_components_above_64_vertices_are_certified_isomorphic():
    v = verify("T3.2", complete_bipartite(3, 3), n=22)
    assert v.verdict == CONFIRMED
    assert v.actual == {"components": 2, "component_kappa": [6, 6], "isomorphic": True}
    assert v.notes == []


def test_maps_onto_needs_a_bijection():
    c4 = cycle(4).edges
    assert _maps_onto(lambda x: (x + 1) % 4, c4, c4)
    path = [(0, 1), (1, 2), (2, 3), (3, 4)]
    # x % 4 sends the path's four edges onto C4's, but its ends onto one vertex
    assert not _maps_onto(lambda x: x % 4, path, c4)
    assert not _maps_onto(lambda x: x, path[:3], c4)  # too few edges
    assert not _maps_onto(lambda x: 0, c4, c4)  # loops


def test_shift_certificate_checks_vertices_and_edges():
    # n = 2: vertex v*2 + i; the shift swaps i = 0 and i = 1
    A, B, shift = frozenset({0, 3}), frozenset({1, 2}), (1, 0, 3, 2).__getitem__
    assert _shift_is_isomorphism(Graph(4, [(0, 3), (1, 2)]), shift, A, B)
    assert not _shift_is_isomorphism(Graph(4, [(0, 3)]), shift, A, B)  # B lacks A's edge
    assert not _shift_is_isomorphism(Graph(4, [(0, 3), (1, 2)]), shift, A, A)  # A is not the shift of A


def _two_four_cycles():
    """Two 4-cycles sharing vertex 0: bipartite, parts of 3 and 4, kappa 1, delta 2."""
    return Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)])


def test_rule_fixed_clauses_are_shared_between_verdicts():
    a, b = verify("T3.7", cycle(5), n=6), verify("T3.7", cycle(7), n=8)
    assert [c["clause"] for c in a.hypotheses[:3]] == ["G is connected", "G is non-bipartite", "n >= 6 even"]
    assert all(x is y for x, y in zip(a.hypotheses[:3], b.hypotheses[:3]))
    assert a.hypotheses[3] != b.hypotheses[3]  # its text carries the instance's values
    assert a.to_json()["hypotheses"][0] is b.to_json()["hypotheses"][0]


def test_verdict_json_is_unchanged():
    def plain(v):
        return json.dumps({**v.to_json(), "runtime_ms": 0})  # as `verify` prints it: key order counts

    assert plain(verify("T3.5", _two_four_cycles(), n=3)) == json.dumps({
        "theorem_id": "T3.5",
        "instance": {"graph6": "Fl_KG", "n": 3},
        "hypotheses": [
            {"clause": "G is connected", "holds": True},
            {"clause": "G is bipartite", "holds": True},
            {"clause": "n >= 3 odd", "holds": True},
            {"clause": "|X| >= delta+1 (3 vs 3)", "holds": True},
            {"clause": "|Y| >= delta+1 (4 vs 3)", "holds": True},
            {"clause": "kappa(G) > (2/n) delta(G)  [3*1 > 2*2]", "holds": False},
        ],
        "predicted": None,
        "actual": None,
        "verdict": "hypotheses-not-met",
        "runtime_ms": 0,
        "witness": None,
        "notes": [],
    })
    assert plain(verify("T3.7", cycle(5), n=6)) == json.dumps({
        "theorem_id": "T3.7",
        "instance": {"graph6": "Dhc", "n": 6},
        "hypotheses": [
            {"clause": "G is connected", "holds": True},
            {"clause": "G is non-bipartite", "holds": True},
            {"clause": "n >= 6 even", "holds": True},
            {"clause": "kappa(GxK2) > (4/n) delta(G)  [6*2 > 4*2]", "holds": True},
        ],
        "predicted": {"super_kappa": True},
        "actual": {"super_kappa": True, "minimum_cuts": 30},
        "verdict": "confirmed",
        "runtime_ms": 0,
        "witness": None,
        "notes": [],
    })


def test_verdicts_survive_pickling():
    # a pool ships every verdict back to its parent by pickle
    G = _two_four_cycles()
    for v in (verify("T3.7", cycle(5), n=6), verify("T3.5", G, n=3), theorems.conclude("T3.5", G, 3)):
        back = pickle.loads(pickle.dumps(v))
        assert back.hypotheses == v.hypotheses
        assert back.to_json() == v.to_json()
    assert back.verdict == REFUTED and back.witness["cut"] == [0, 1, 2]


def test_super_kappa_predictions_are_one_shared_object():
    a, b = verify("L2.2", cycle(6), n=3), verify("L2.2", cycle(8), n=3)
    assert a.verdict == b.verdict == CONFIRMED
    assert a.predicted == {"super_kappa": True}
    assert a.predicted is b.predicted


def test_verify_sizes_the_graph6_before_any_clause_runs(monkeypatch):
    from superkappa import formats

    G = direct_product(cycle(3), cycle(5))  # 15 vertices, connected and non-bipartite
    monkeypatch.setattr(formats, "MAX_GRAPH6_VERTICES", 14)
    monkeypatch.setattr(connectivity, "vertex_connectivity", lambda H: pytest.fail("a clause ran"))
    with pytest.raises(InputError, match="graph6 output of 15 vertices exceeds the 14-vertex limit"):
        verify("T3.7", G, n=6)


# Exact kappa refutes T3.4 on a family of graphs. RULES["T3.4"] stays unedited: the paper's opening, all
# the repository holds of it, cannot tell whether the paper states T3.4 otherwise or the result is false.
# The 8 classes of connected non-bipartite graphs on up to 7 vertices on which it fails, at n = 5 only
_T34_ATLAS_REFUTED = ["ERUO", "FMo`G", "FB{KG", "FByGo", "FBZEG", "FFw`G", "FMpbG", "Fs\\vw"]


def _kdd_glued_to_a_clique(d):
    """G_d: K_{d,d} on 0..2d-1 (parts 0..d-1 and d..2d-1) and K_{d+1} on 0 and 2d..3d-1, sharing vertex 0."""
    clique = [0, *range(2 * d, 3 * d)]
    edges = [(x, y) for x in range(d) for y in range(d, 2 * d)] + [
        (u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]
    ]
    return Graph(3 * d, edges)


def _t34(G, n):
    """T3.4's verdict on G x C_n; a refuted one must exceed the interval by the bound min(n kappa(G), 2 delta)."""
    verdict = verify("T3.4", G, n=n)
    if verdict.verdict == REFUTED:
        assert verdict.actual == min(n * connectivity.vertex_connectivity(G), 2 * G.min_degree()) > verdict.predicted[1]
    return verdict.verdict


@pytest.mark.parametrize("g6", _T34_ATLAS_REFUTED)
def test_t34_is_refuted_on_eight_small_classes_at_n5_only(g6):
    G = parse_graph6(g6)
    assert [_t34(G, n) for n in (5, 7, 9)] == [REFUTED, CONFIRMED, CONFIRMED]


@pytest.mark.parametrize("d,g6", [(2, "E]CW"), (3, "HFz_GKF"), (4, "K?~vf_@?WB_N")])
def test_t34_is_refuted_on_kdd_glued_to_a_clique_at_every_odd_n_up_to_4d_minus_3(d, g6):
    G = parse_graph6(g6)
    assert graph.is_isomorphic_small(G, _kdd_glued_to_a_clique(d))
    assert G.min_degree() == d and connectivity.vertex_connectivity(G) == 1
    odd = range(5, 4 * d + 2, 2)
    assert [_t34(G, n) for n in odd] == [REFUTED if n <= 4 * d - 3 else CONFIRMED for n in odd]


# T3.2 fails on the one-vertex graph: K1 is connected and bipartite, so every clause holds, but K1 x C_n is n
# isolated vertices, not two components. Weichsel's two-component theorem needs G to have an edge. RULES["T3.2"]
# stays unedited, since a clause added there would change the clause list of every T3.2 verdict.
@pytest.mark.parametrize("n", [4, 6, 8])
def test_t32_is_refuted_on_the_one_vertex_graph(n):
    verdict = verify("T3.2", complete(1), n=n)
    assert all(clause_map(verdict.hypotheses).values())
    assert verdict.verdict == REFUTED and verdict.actual == {"components": n}
