import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

from superkappa import InputError, connectivity, replay_witness, suite, tightness, tightness_search
from superkappa.connectivity import classify_cut
from superkappa.formats import parse_graph6, write_graph6
from superkappa.theorems import BIPARTITE, RULES

# the benchmark's tightness-boundary searches: (target, lowest n, highest n), search seeds 1..5
BENCHMARK_SEARCHES = (("L2.2", 3, 5), ("T3.5", 3, 7), ("T3.6", 6, 8), ("T3.7", 6, 8), ("T3.8", 7, 9))
MANIFEST = Path(__file__).resolve().parent.parent / "manifests" / "tightness.json"


def test_target_validation():
    with pytest.raises(InputError):
        tightness_search("T2.1", 3, range(3, 4), 1, 10)
    with pytest.raises(InputError):
        tightness_search("L2.2", 3, range(3, 4), 1, 0)


@pytest.mark.parametrize("max_part_size", [0, -3])
def test_a_max_part_size_below_one_is_refused(max_part_size):
    with pytest.raises(InputError, match="max part size must be positive"):
        tightness_search("L2.2", max_part_size, range(3, 5), 1, 40)


def test_empty_search_space_is_complete():
    # parts of size 1 cannot miss exactly one clause with n=3 restricted away
    report = tightness_search("T3.8", 1, range(3, 4), 1, 10)
    assert report.records == [] and report.complete


def test_l22_part_size_boundary():
    # K_{m,m} has |X| = delta: exactly the part-size clause fails
    report = tightness_search("L2.2", 3, range(3, 5), 1, 40)
    assert report.complete
    assert report.instances_probed > 0
    kmm = [r for r in report.records if "|X| >= delta+1" in r.failed_clause]
    assert kmm, "expected part-size boundary instances"
    for rec in report.witnesses:
        assert replay_witness(rec.witness)
        H = parse_graph6(rec.witness["graph6"])
        cut = classify_cut(H, rec.witness["cut"])
        assert not cut.is_neighborhood_of_min_degree_vertex


def test_budget_flags_incomplete():
    report = tightness_search("L2.2", 3, range(3, 5), 1, 2)
    assert not report.complete
    assert report.instances_probed == 2


def test_records_include_non_witnesses():
    report = tightness_search("L2.2", 3, range(3, 5), 1, 40)
    holds = [r for r in report.records if r.conclusion_holds is True]
    assert holds, "boundary instances where the conclusion still holds are data too"


def test_records_share_each_failed_clause_text():
    # a report keeps one string per distinct text, however many records fail that clause
    records = tightness_search("T3.5", 4, range(3, 8), 1, 400).records
    texts = {r.failed_clause for r in records}
    assert len(records) > 2 * len(texts) and len({id(r.failed_clause) for r in records}) == len(texts)


def test_benchmark_searches_compute_each_invariant_once(monkeypatch):
    """The five seed-0 searches of the benchmark's tightness-boundary workload
    (max part 4, budget 400, search seeds 1..5). Each base graph's kappa serves
    every n, and a T3.6 probe decides one of its two certified-isomorphic
    components: 233 kappa and 55 super-kappa calls before, 175 and 49 now."""
    calls = Counter()
    for name in ("vertex_connectivity", "is_super_kappa"):
        def counted(*args, _name=name, _original=getattr(connectivity, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(connectivity, name, counted)
    probes = [
        tightness_search(target, 4, range(lo, hi + 1), seed, 400).instances_probed
        for seed, (target, lo, hi) in enumerate(BENCHMARK_SEARCHES, start=1)
    ]
    assert probes == [18, 18, 12, 1, 0]
    assert calls["vertex_connectivity"] <= 175
    assert calls["is_super_kappa"] <= 49


def _record_searches():
    """tightness_search arguments of the benchmark's five searches and of the
    five in manifests/tightness.json."""
    searches = [(t, 4, range(lo, hi + 1), seed, 400) for seed, (t, lo, hi) in enumerate(BENCHMARK_SEARCHES, start=1)]
    return searches + [
        (s["target"], s["max_part_size"], range(s["n_range"][0], s["n_range"][1] + 1), s["seed"], s["budget"])
        for s in json.loads(MANIFEST.read_text())["searches"]
    ]


def test_boundary_record_stream_digest():
    """Every record of the benchmark's five searches and of the five in
    manifests/tightness.json, byte for byte, with runtime_ms left out and each
    witness reduced to its graph6 and cut: a change to how probes are decided
    must keep it. Every witness also states its cut's size and replays."""
    digest, records, witnesses = hashlib.sha256(), 0, 0
    for args in _record_searches():
        report = tightness_search(*args).to_json()
        del report["runtime_ms"]
        for rec in report["records"]:
            w = rec["witness"]
            if w is not None:
                assert w["cut_size"] == len(w["cut"]) and replay_witness(w)
                rec["witness"] = {"graph6": w["graph6"], "cut": w["cut"]}
                witnesses += 1
        digest.update((json.dumps(report) + "\n").encode())
        records += len(report["records"])
    assert (records, witnesses) == (65, 38)
    assert digest.hexdigest() == "7c2754e28aa0b64dcebecbc8f31241f5d1ae125ee5bcd95d268af2b135ad7fbf"


def test_every_record_replays_through_its_descriptor():
    """A record's random graph descriptor, run as a manifest entry's graph,
    draws the very graph the record's graph6 names."""
    descriptors = []
    for args in _record_searches():
        for rec in tightness_search(*args).records:
            descriptor = {k: v for k, v in rec.instance.items() if k.startswith("random_")}
            graph, _ = suite.resolve_graph(descriptor)
            assert write_graph6(graph).strip() == rec.instance["graph6"], rec.instance
            descriptors += descriptor.items()
    min_deltas = {(kind, value["min_delta"]) for kind, value in descriptors}
    assert min_deltas == {("random_bipartite", 1), ("random_nonbipartite", 2)}


def test_no_graph_is_drawn_at_an_n_the_rule_excludes(monkeypatch):
    # T3.5 takes odd n >= 3: n = 4 leaves nothing to draw
    def refuse(*args, **kwargs):
        raise AssertionError("drew a graph at an excluded n")

    monkeypatch.setattr(suite, "random_connected_bipartite", refuse)
    monkeypatch.setattr(suite, "random_connected_nonbipartite", refuse)
    report = tightness_search("T3.5", 3, range(4, 5), 1, 10)
    assert report.instances_probed == 0 and report.complete


@pytest.mark.parametrize("target,lo,hi", BENCHMARK_SEARCHES)
def test_every_candidate_is_connected_and_of_the_target_class(target, lo, hi):
    # what lets the search screen candidates by the n-rule alone
    bipartite = RULES[target].graph_class == BIPARTITE
    candidates = list(tightness._boundary_candidates(target, 4, range(lo, hi + 1), 1))
    assert candidates
    for G, _, _ in candidates:
        assert G.is_connected() and (G.is_bipartite() is not None) == bipartite
