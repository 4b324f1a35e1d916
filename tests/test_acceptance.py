"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the pinned instance manifests live in manifests/.
"""

import json
import time
from itertools import combinations_with_replacement
from math import comb
from pathlib import Path

import pytest

from superkappa import (
    complete,
    complete_bipartite,
    connectivity_report,
    cycle,
    direct_product,
    double_cover,
    edge_connectivity,
    is_super_kappa,
    random_connected_bipartite,
    replay_witness,
    tightness_search,
    verify_decomposition,
    vertex_connectivity,
    vertex_connectivity_exhaustive,
    write_graph6,
)
from superkappa.connectivity import _exhaustive_cuts, classify_cut
from superkappa.formats import parse_edgelist_json, parse_graph6, write_edgelist_json
from superkappa.suite import load_manifest, run_manifest
from superkappa.theorems import CONFIRMED, _witness_from_cut

from conftest import seeded_corpus
from test_formats import hand_pack_graph6

MANIFESTS = Path(__file__).resolve().parent.parent / "manifests"


def report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}".rstrip())


@pytest.fixture(scope="module")
def manifest_results():
    doc = load_manifest(MANIFESTS / "acceptance.json")
    results = run_manifest(doc)
    return {v.instance["id"]: v for v in results}


def by_prefix(results, prefix):
    return [v for key, v in results.items() if key.startswith(prefix)]


def assert_all_confirmed(verdicts, minimum):
    assert len(verdicts) >= minimum
    bad = [v for v in verdicts if v.verdict != CONFIRMED]
    assert not bad, [f"{v.theorem_id} {v.instance} -> {v.verdict}" for v in bad]


def test_criterion_01_oracle_equivalence():
    corpus = seeded_corpus(seed=101, count=200, max_n=8)
    assert len(corpus) == 200
    for G in corpus:
        kf = vertex_connectivity(G)
        assert kf == vertex_connectivity_exhaustive(G)
        assert kf <= edge_connectivity(G) <= G.min_degree()
    report("01 oracle equivalence", "(200 graphs, exact)")


def test_criterion_02_complete_products():
    for m in (3, 4, 5):
        for n in range(3, m + 1):
            got = vertex_connectivity(direct_product(complete(m), complete(n)))
            assert got == (m - 1) * (n - 1), (m, n, got)
    report("02 kappa(Km x Kn) = (m-1)(n-1)", "(3 <= n <= m <= 5)")


def test_criterion_03_bipartite_times_complete():
    bases = [
        complete_bipartite(2, 3),
        cycle(6),
        cycle(8),
        random_connected_bipartite(3, 4, 0.7, 9001, min_delta=2)[0],
        random_connected_bipartite(4, 4, 0.6, 9002, min_delta=2)[0],
    ]
    for G in bases:
        assert G.n <= 8 and G.is_connected() and G.is_bipartite() is not None
        kappa, delta = vertex_connectivity(G), G.min_degree()
        for n in (3, 4):
            got = vertex_connectivity(direct_product(G, complete(n)))
            assert got == min(n * kappa, (n - 1) * delta)
    report("03 kappa(G x Kn) identity", "(5 bases x n in {3,4})")


def test_criterion_04_tilde_connectivity(manifest_results):
    assert_all_confirmed(by_prefix(manifest_results, "t21-"), 90)
    report("04 tilde connectivity formula", "(30 graphs x n in {2,3,4})")


def test_criterion_05_product_cycle_connectivity(manifest_results):
    for prefix in ("t31-", "t32-", "t33-"):
        assert_all_confirmed(by_prefix(manifest_results, prefix), 20)
    report("05 product-with-cycle connectivity", "(3 theorems x 20 instances)")


def test_criterion_06_interval_bounds(manifest_results):
    assert_all_confirmed(by_prefix(manifest_results, "t34-"), 20)
    report("06 odd-cycle interval bounds", "(10 graphs x n in {5,7})")


def test_criterion_07_super_kappa_sufficient_conditions(manifest_results):
    verdicts = []
    for prefix in ("l22-", "t35-", "t36-", "t37-", "t38-"):
        got = by_prefix(manifest_results, prefix)
        assert got, prefix
        verdicts.extend(got)
    for v in verdicts:
        assert all(c["holds"] for c in v.hypotheses), v.instance
    assert_all_confirmed(verdicts, 17)
    report("07 sufficient conditions confirmed", f"({len(verdicts)} instances)")


def test_criterion_08_power_of_two():
    assert vertex_connectivity(double_cover(cycle(3))) == 2
    h = direct_product(cycle(3), cycle(5))
    assert vertex_connectivity(double_cover(h)) == 4
    report("08 kappa(H x K2) = 2^k", "(k=1, k=2)")


def test_criterion_09_corollaries_exhaustive():
    for lengths, n, subsets in (([3], 6, 3060), ([3], 7, 5985)):
        prod = direct_product(cycle(3), cycle(n))
        start = time.perf_counter()
        kappa = vertex_connectivity_exhaustive(prod)
        assert comb(prod.n, kappa) == subsets
        # every kappa-subset is scanned; each that disconnects must be a neighborhood
        cuts = [classify_cut(prod, S) for S in _exhaustive_cuts(prod, kappa)]
        assert all(cut.is_neighborhood_of_min_degree_vertex for cut in cuts)
        res = is_super_kappa(prod)
        elapsed = time.perf_counter() - start
        assert res.status is True and res.enumeration_complete
        assert res.cuts_examined == len(cuts)
        assert elapsed < 10.0, f"n={n} took {elapsed:.1f}s"
    report("09 corollary instances", "(C3xC6, C3xC7 exhaustive < 10s)")


def test_criterion_10_negative_controls():
    for n in range(6, 11):
        G = cycle(n)
        assert connectivity_report(G).is_max_kappa
        res = is_super_kappa(G)
        assert res.status is False and res.witness is not None
        assert replay_witness(_witness_from_cut(G, res.witness))
    k2k3 = direct_product(complete(2), complete(3))
    res = is_super_kappa(k2k3)
    assert res.status is False
    assert replay_witness(_witness_from_cut(k2k3, res.witness))
    report("10 negative controls", "(C6..C10 and K2xK3, witnesses replay)")


def test_criterion_11_weichsel():
    families = {
        "C3": cycle(3), "C4": cycle(4), "C5": cycle(5),
        "C6": cycle(6), "K4": complete(4), "K23": complete_bipartite(2, 3),
    }
    for (na, A), (nb, B) in combinations_with_replacement(families.items(), 2):
        P = direct_product(A, B)
        both_bipartite = A.is_bipartite() is not None and B.is_bipartite() is not None
        if both_bipartite:
            assert len(P.components()) == 2, (na, nb)
        else:
            assert P.is_connected(), (na, nb)
    report("11 Weichsel criterion", "(21 pairs)")


def test_criterion_12_decomposition_identities():
    cases = [
        (complete_bipartite(2, 3), 3),
        (complete_bipartite(2, 3), 4),
        (cycle(5), 6),
        (cycle(5), 7),
    ]
    for G, n in cases:
        v = verify_decomposition(G, n)
        assert v.verdict == CONFIRMED, (n, v.actual)
        assert v.actual["reassembly"] and v.actual["blocks_match_base"]
    assert verify_decomposition(complete_bipartite(2, 3), 3).actual["tilde_edge_identity"]
    report("12 decomposition identities", "(4 cases + tilde identity)")


def test_criterion_13_format_round_trips():
    corpus = seeded_corpus(seed=131, count=100, max_n=12)
    assert len(corpus) == 100
    for G in corpus:
        g6 = write_graph6(G)
        assert parse_graph6(g6) == G and write_graph6(parse_graph6(g6)) == g6
        js = write_edgelist_json(G)
        assert parse_edgelist_json(js) == G and write_edgelist_json(parse_edgelist_json(js)) == js
    c5 = cycle(5)
    assert write_graph6(c5).strip() == hand_pack_graph6(c5) == "Dhc"
    report("13 format round trips", "(100 graphs bit-exact; C5 = Dhc)")


def test_tightness_pinned_manifest():
    with open(MANIFESTS / "tightness.json") as fh:
        doc = json.load(fh)
    total_witnesses = 0
    for search in doc["searches"]:
        rep = tightness_search(
            search["target"],
            search["max_part_size"],
            range(search["n_range"][0], search["n_range"][1] + 1),
            search["seed"],
            search["budget"],
        )
        assert rep.complete, search
        for rec in rep.witnesses:
            assert replay_witness(rec.witness), rec.instance
            H = parse_graph6(rec.witness["graph6"])
            cut = classify_cut(H, rec.witness["cut"])
            assert not cut.is_neighborhood_of_min_degree_vertex
            total_witnesses += 1
    report("tightness search", f"(5 targets complete, {total_witnesses} replayable witnesses)")
