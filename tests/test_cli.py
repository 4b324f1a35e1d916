import json
import re
import sys

import pytest


def test_gen_tilde_and_json(tmp_path):
    from superkappa import cli

    out = tmp_path / "t.json"
    assert cli.main(["gen", "tilde(kbip(2,3), 3)", "--format", "json", "--out", str(out)]) == cli.EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["n"] == 15 and len(doc["edges"]) == 36


def test_internal_error_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    from superkappa import cli

    def broken(doc, jobs):
        raise RuntimeError("unexpected state")

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"instances": [{"id": "a", "theorem": "T3.9", "graph": {"expr": "cycle(3)"}}]}))
    monkeypatch.setattr(cli, "run_manifest", broken)
    assert cli.main(["suite", "--manifest", str(manifest)]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.splitlines() == ["internal error: RuntimeError: unexpected state"]


def test_suite_and_run_report_replay(tmp_path, capsys):
    from superkappa import cli

    manifest = tmp_path / "m.json"
    manifest.write_text(
        json.dumps(
            {
                "name": "mini",
                "instances": [
                    {"id": "a", "theorem": "T2.1", "graph": {"expr": "kbip(2,3)"}, "n": 3},
                    {"id": "b", "theorem": "T3.9", "graph": {"expr": "cycle(3)"}},
                ],
            }
        )
    )
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert cli.main(["suite", "--manifest", str(manifest), "--out", str(out1)]) == cli.EXIT_OK
    assert "a: T2.1 confirmed" in capsys.readouterr().out
    assert cli.main(["suite", "--manifest", str(manifest), "--out", str(out2)]) == cli.EXIT_OK
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    strip = lambda doc: [
        {k: v for k, v in item.items() if k != "runtime_ms"} for item in doc["results"]
    ]
    assert strip(r1) == strip(r2)
    assert r1["inputs"] == r2["inputs"]


_MALFORMED_ENTRIES = [
    ("not-a-dict", "manifest entry #0: not an object"),
    ({"id": "e", "theorem": "T9.9", "graph": {"expr": "cycle(5)"}}, "manifest entry e: unknown theorem id 'T9.9'"),
    ({"id": "e", "check": "decomposition", "graph": {"expr": "cycle(5)"}}, "needs an integer 'n'"),
    ({"id": "e", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": True}, "must be integers"),
    ({"id": "e", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "budget": "9"}, "must be integers"),
    ({"id": "e", "theorem": "T3.7", "n": 6}, "bad graph descriptor None"),
    ({"id": "e", "theorem": "T3.7", "graph": {"expr": 5}, "n": 6}, "expr descriptor needs a string"),
    ({"theorem": "T3.7", "graph": {"random_nonbipartite": {"n": 5}}}, "manifest entry #0: random_nonbipartite"),
    ({"id": "e", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": 6, "budget": -1}, "'budget' must be a non-negative"),
    ({"id": "e", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": 6, "budget": None}, "'budget' must be a non-negative"),
    (
        {"id": "e", "theorem": "T3.7", "graph": {"random_nonbipartite": {"n": "7", "p": 0.5, "seed": 1}}},
        "manifest entry e: random_nonbipartite fields n, seed must be integers and p a number",
    ),
    (
        {"id": "e", "theorem": "T3.5", "graph": {"random_bipartite": {"m": 2, "n": 3, "p": "0.5", "seed": 1}}},
        "manifest entry e: random_bipartite fields m, n, seed must be integers and p a number",
    ),
    (
        {"id": "e", "theorem": "T3.5", "graph": {"random_bipartite": {"m": 2, "n": 3, "p": 0.5, "seed": 1, "min_delta": 1.5}}},
        "fields m, n, seed, min_delta must be integers",
    ),
    (
        {"id": "e", "theorem": "T3.5", "graph": {"random_bipartite": {"m": 0, "n": 3, "p": 0.5, "seed": 1}}},
        "manifest entry e: random_bipartite needs sizes of at least 1 and p in (0,1]",
    ),
    (
        {"id": "e", "theorem": "T3.7", "graph": {"random_nonbipartite": {"n": 7, "p": 1.5, "seed": 1}}},
        "manifest entry e: random_nonbipartite needs sizes of at least 1 and p in (0,1]",
    ),
    (
        {"id": "e", "theorem": "T3.7", "graph": {"random_nonbipartite": {"n": 100000, "p": 1e-9, "seed": 1}}},
        "manifest entry e: 100000 vertices and 4999950000 vertex pairs exceed",
    ),
    (
        {"id": "e", "theorem": "T3.5", "graph": {"random_bipartite": {"m": 2000, "n": 2000, "p": 1e-9, "seed": 1}}},
        "manifest entry e: 4000 vertices and 4000000 vertex pairs exceed",
    ),
    ({"id": "e", "theorem": ["T3.9"], "graph": {"expr": "cycle(3)"}}, "manifest entry e: unknown theorem id ['T3.9']"),
    ({"id": "e", "theorem": {"T3.9": 1}, "graph": {"expr": "cycle(3)"}}, "manifest entry e: unknown theorem id {'T3.9': 1}"),
    ({"id": "e", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": 6, "budgte": 9}, "manifest entry e: unknown key 'budgte'"),
    ({"id": "e", "check": "foo", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": 6}, "manifest entry e: unknown check 'foo'"),
    ({"id": "e", "theorem": "T3.9", "graph": {"expr": "cycle(3) x cycle(5)"}, "n": 6}, "manifest entry e: T3.9 takes no 'n'"),
]


@pytest.mark.parametrize("entry,message", _MALFORMED_ENTRIES)
def test_load_manifest_names_the_bad_entry(tmp_path, entry, message):
    from superkappa.errors import InputError
    from superkappa.suite import load_manifest

    path = tmp_path / "m.json"
    path.write_text(json.dumps({"instances": [entry]}))
    with pytest.raises(InputError, match=re.escape(message)):
        load_manifest(str(path))


_REFUSED_AT_LOAD = [
    pytest.param(
        {"check": "decomposition", "graph": {"expr": "kbip(2,3)"}, "n": 100000001},
        "manifest entry b: 500000005 vertices and 1200000012 edges exceed the 258047-vertex or 1000000-edge limit",
        id="construction-over-the-limits",
    ),
    pytest.param(
        {"theorem": "T3.7", "graph": {"graph6": "Dl"}, "n": 6},
        "manifest entry b: need 2 data bytes for n=5, found 1 (at byte 2)",
        id="malformed-graph6",
    ),
    pytest.param(
        {"theorem": "T3.7", "graph": {"graph6": "?"}, "n": 6},
        "manifest entry b: the graph has no vertices",
        id="graph6-without-vertices",
    ),
    pytest.param(
        {"theorem": "T3.1", "graph": {"expr": "kbip(0,3)"}, "n": 3},
        "manifest entry b: complete_bipartite needs m,n >= 1, got 0,3",
        id="leaf-below-its-family-minimum",
    ),
    pytest.param(
        {"check": "decomposition", "graph": {"expr": "cycle(5)"}, "n": 3},
        "manifest entry b: nonbipartite-odd needs n >= 5, got 3",
        id="decomposition-below-its-case-minimum",
    ),
    pytest.param(
        {"check": "decomposition", "graph": {"expr": "kbip(2,3)"}, "n": -4},
        "manifest entry b: bipartite-even needs n >= 4, got -4",
        id="decomposition-at-a-negative-n",
    ),
    pytest.param(
        {"theorem": "T3.9", "graph": {"expr": "complete(1) x cycle(16385)"}},  # 16,385 vertices, no edges
        "manifest entry b: graph6 output of 16385 vertices exceeds the 16384-vertex limit",
        id="graph-too-large-for-its-verdicts-graph6",
    ),
]


@pytest.mark.parametrize("second,message", _REFUSED_AT_LOAD)
def test_an_entry_is_refused_at_load_before_any_entry_runs(tmp_path, monkeypatch, capsys, second, message):
    from superkappa import cli, suite
    from superkappa.errors import InputError

    ran = []
    monkeypatch.setattr(suite, "run_instance", ran.append)
    first = {"id": "a", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": 6}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"instances": [first, {"id": "b", **second}]}))
    with pytest.raises(InputError) as exc:
        suite.load_manifest(str(path))
    assert str(exc.value) == message
    assert cli.main(["suite", "--manifest", str(path)]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]
    assert ran == []


def _graph_faults():
    """The malformed entries whose fault is their graph: each loads with a good graph in its place."""
    from superkappa.suite import _entry_problem

    good = {"expr": "cycle(5)"}
    return [e for e, _ in _MALFORMED_ENTRIES if isinstance(e, dict) and _entry_problem({**e, "graph": good}) is None]


# entries that load, and their verdicts: a disconnected base below its case's n minimum fails the hypotheses
_LOADABLE_ENTRIES = [
    ({"id": "a", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": 6}, "confirmed"),
    ({"id": "d", "check": "decomposition", "graph": {"expr": "cycle(5)"}, "n": 5}, "confirmed"),
    ({"id": "d", "check": "decomposition", "graph": {"graph6": "C`"}, "n": 1}, "hypotheses-not-met"),
    ({"id": "d", "check": "decomposition", "graph": {"graph6": "C`"}, "n": -4}, "hypotheses-not-met"),
    ({"id": "r", "theorem": "T3.5", "graph": {"random_bipartite": {"m": 2, "n": 3, "p": 0.5, "seed": 1}}, "n": 3}, "confirmed"),
    # G x C_n would exceed the limits, but running builds it only where the hypotheses hold
    ({"id": "b", "theorem": "T3.3", "graph": {"expr": "kbip(2,3)"}, "n": 100000}, "hypotheses-not-met"),  # bipartite
    ({"id": "p", "theorem": "T3.5", "graph": {"expr": "kbip(2,3)"}, "n": 100001}, "hypotheses-not-met"),  # |X| < delta+1
    ({"id": "c", "theorem": "C3.10", "graph": {"expr": "kbip(2,3)"}, "n": 100000}, "hypotheses-not-met"),  # no odd cycles
    ({"id": "t", "theorem": "T3.1", "graph": {"graph6": "C`"}, "n": 100001}, "hypotheses-not-met"),  # disconnected
    ({"id": "d", "check": "decomposition", "graph": {"graph6": "C`"}, "n": 100000}, "hypotheses-not-met"),
]


@pytest.mark.parametrize(
    "entry,verdict",
    [(e, None) for e in _graph_faults() + [param.values[0] for param in _REFUSED_AT_LOAD]] + _LOADABLE_ENTRIES,
)
def test_load_refuses_an_entry_exactly_when_running_it_is_an_input_error(tmp_path, entry, verdict):
    """verdict None: both refuse the entry; otherwise it loads and runs to that verdict."""
    from superkappa.errors import InputError
    from superkappa.suite import load_manifest, run_instance

    path = tmp_path / "m.json"
    path.write_text(json.dumps({"instances": [entry]}))
    if verdict is None:
        with pytest.raises(InputError):
            load_manifest(str(path))
        with pytest.raises(InputError):
            run_instance(entry)
    else:
        load_manifest(str(path))
        assert run_instance(entry).verdict == verdict


# under a 9-edge limit, C5 fits and its double cover (10 vertices, 10 edges) does not; verdict None: refused
_DOUBLE_COVER_ENTRIES = [
    ({"id": "e", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": 5}, None),  # strict clause, n off its n-rule
    ({"id": "e", "theorem": "T3.8", "graph": {"expr": "cycle(5)"}, "n": 4}, None),
    ({"id": "e", "theorem": "T3.9", "graph": {"expr": "cycle(5)"}}, None),  # the construction is G x K2
    ({"id": "e", "theorem": "T3.7", "graph": {"expr": "cycle(6)"}, "n": 5}, "hypotheses-not-met"),  # bipartite G
    ({"id": "e", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}}, "hypotheses-not-met"),  # no n, no strict clause
    ({"id": "e", "theorem": "T3.9", "graph": {"graph6": "Dhc"}}, None),  # C5 read from its graph6
]


@pytest.mark.parametrize("entry,verdict", _DOUBLE_COVER_ENTRIES)
def test_load_sizes_the_double_cover_exactly_when_running_builds_it(tmp_path, monkeypatch, entry, verdict):
    from superkappa import formats
    from superkappa.errors import InputError
    from superkappa.suite import load_manifest, run_instance

    monkeypatch.setattr(formats, "MAX_EDGES", 9)
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"instances": [entry]}))
    if verdict is None:
        with pytest.raises(InputError) as exc:
            load_manifest(str(path))
        assert str(exc.value) == "manifest entry e: 10 vertices and 10 edges exceed the 258047-vertex or 9-edge limit"
        with pytest.raises(InputError):
            run_instance(entry)
    else:
        load_manifest(str(path))
        assert run_instance(entry).verdict == verdict


@pytest.mark.parametrize("jobs,entries,workers", [(4, 2, 2), (2, 1, None), (3, 5, 3)])
def test_the_suite_pool_has_no_more_workers_than_entries(monkeypatch, jobs, entries, workers):
    import concurrent.futures

    from superkappa.suite import run_manifest

    pools = []

    class SerialPool:  # records its size and maps in this process
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    doc = {"instances": [{"id": str(i), "theorem": "T3.9", "graph": {"expr": "cycle(3)"}} for i in range(entries)]}
    assert [v.verdict for v in run_manifest(doc, jobs=jobs)] == ["confirmed"] * entries
    assert pools == ([] if workers is None else [workers])


def test_a_refused_random_draw_counts_vertex_pairs(tmp_path):
    from superkappa import tightness_search
    from superkappa.errors import CapacityError, InputError
    from superkappa.suite import load_manifest

    refusal = "2000 vertices and 1999000 vertex pairs exceed the 258047-vertex or 1000000-edge limit"
    with pytest.raises(CapacityError) as exc:
        tightness_search("T3.8", 1000, range(7, 8), 1, 1)
    assert str(exc.value) == refusal
    graph = {"random_nonbipartite": {"n": 2000, "p": 0.5, "seed": 1}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"instances": [{"id": "e", "theorem": "T3.8", "graph": graph, "n": 7}]}))
    with pytest.raises(InputError) as exc:
        load_manifest(str(path))
    assert str(exc.value) == f"manifest entry e: {refusal}"


def test_run_report_records_the_callers_argv(tmp_path, monkeypatch):
    from superkappa import cli

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"instances": [{"id": "a", "theorem": "T3.9", "graph": {"expr": "cycle(3)"}}]}))
    out = tmp_path / "r.json"
    argv = ["suite", "--manifest", str(manifest), "--out", str(out)]
    monkeypatch.setattr(sys, "argv", ["host-program", "extra-arg-of-host"])
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(out.read_text())["command"] == argv


def test_a_run_report_hashes_every_file_an_expression_reads(tmp_path):
    import hashlib

    from superkappa import cli

    c5, k2, manifest = tmp_path / "c5.g6", tmp_path / "k2.g6", tmp_path / "m.json"
    c5.write_text("Dhc\n")
    k2.write_text("A_\n")
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    out = tmp_path / "r.json"
    argv = ["verify", "--theorem", "T3.9", "--expr", f"file({c5}) x cycle(3)", "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_OK
    assert json.loads(out.read_text())["inputs"] == {str(c5): digest(c5)}
    entries = [
        {"id": "a", "theorem": "T3.9", "graph": {"expr": f"file({c5})"}},
        {"id": "b", "theorem": "T3.9", "graph": {"expr": f"cycle(3) x tilde(file({k2}), 2)"}},  # a tilde base
    ]
    manifest.write_text(json.dumps({"instances": entries}))
    assert cli.main(["suite", "--manifest", str(manifest), "--out", str(out)]) == cli.EXIT_OK
    files = (manifest, c5, k2)
    assert json.loads(out.read_text())["inputs"] == {str(path): digest(path) for path in files}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_internal_error_in_one_entry_is_that_entrys_verdict(tmp_path, monkeypatch, capsys, jobs):
    from superkappa import cli, suite

    verify = suite.verify

    def broken_on_b(theorem_id, G, **kwargs):
        if kwargs["instance"]["id"] == "b":
            raise RuntimeError("unexpected\nstate")
        return verify(theorem_id, G, **kwargs)

    entries = [{"id": i, "theorem": "T3.9", "graph": {"expr": "cycle(3)"}} for i in "abc"]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"instances": entries}))
    out = tmp_path / "r.json"
    monkeypatch.setattr(suite, "verify", broken_on_b)
    code = cli.main(["suite", "--manifest", str(manifest), "--jobs", jobs, "--out", str(out)])
    assert code == cli.EXIT_INTERNAL == 4
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["a: T3.9 confirmed", "b: T3.9 error", "c: T3.9 confirmed"]
    assert captured.err.splitlines() == ["internal error in entry b: RuntimeError: unexpected state"]
    results = json.loads(out.read_text())["results"]
    assert [r["verdict"] for r in results] == ["confirmed", "error", "confirmed"]
    assert results[1]["notes"] == ["RuntimeError: unexpected state"]
    assert results[1]["instance"] == {"id": "b", "expr": "cycle(3)"}


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_input_error_in_one_entry_still_exits_3(tmp_path, monkeypatch, capsys, jobs):
    from superkappa import cli, suite
    from superkappa.errors import InputError

    def bad_input(theorem_id, G, **kwargs):
        raise InputError("bad vertex")

    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"instances": [{"id": "a", "theorem": "T3.9", "graph": {"expr": "cycle(3)"}}]}))
    monkeypatch.setattr(suite, "verify", bad_input)
    assert cli.main(["suite", "--manifest", str(manifest), "--jobs", jobs]) == cli.EXIT_INPUT
    assert capsys.readouterr().err.splitlines() == ["error: bad vertex"]


def test_every_error_the_input_can_cause_is_an_input_error():
    from superkappa.errors import CapacityError, FormatError, GenerationError, InputError, NoCutError

    assert all(issubclass(e, InputError) for e in (FormatError, CapacityError, NoCutError, GenerationError))
