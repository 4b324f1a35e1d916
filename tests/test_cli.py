import json
import re
import resource
import subprocess
import sys

import pytest


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "superkappa.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_gen_graph6():
    res = run_cli("gen", "cycle(3) x complete(2)", "--format", "g6")
    assert res.returncode == 0
    line = res.stdout.strip()
    assert len(line) >= 2 and ord(line[0]) - 63 == 6


def test_gen_tilde_and_json(tmp_path):
    out = tmp_path / "t.json"
    res = run_cli("gen", "tilde(kbip(2,3), 3)", "--format", "json", "--out", str(out))
    assert res.returncode == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 15 and len(doc["edges"]) == 36


def test_verify_and_suite_take_a_tilde_expression(tmp_path):
    res = run_cli("verify", "--theorem", "T3.1", "--expr", "tilde(kbip(2,3), 3)", "--n", "3")
    assert res.returncode == 0 and json.loads(res.stdout)["verdict"] == "confirmed"
    entry = {"id": "t", "theorem": "T3.1", "graph": {"expr": "tilde(kbip(2,3), 3)"}, "n": 3}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"instances": [entry]}))
    res = run_cli("suite", "--manifest", str(manifest))
    assert (res.returncode, res.stdout, res.stderr) == (0, "t: T3.1 confirmed\n", "")


def test_kappa_report(tmp_path):
    g6 = tmp_path / "c6.g6"
    run = run_cli("gen", "cycle(3) x complete(2)")
    g6.write_text(run.stdout)
    res = run_cli("kappa", str(g6))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["kappa"] == 2 and doc["delta"] == 2 and doc["is_max_kappa"]


def test_super_kappa_exit_codes(tmp_path):
    c6 = tmp_path / "c6.g6"
    c6.write_text(run_cli("gen", "cycle(6)").stdout)
    res = run_cli("super-kappa", str(c6))
    assert res.returncode == 1
    doc = json.loads(res.stdout)
    assert doc["is_super_kappa"] is False and doc["witness"]["size"] == 2

    c5 = tmp_path / "c5.g6"
    c5.write_text(run_cli("gen", "cycle(5)").stdout)
    assert run_cli("super-kappa", str(c5)).returncode == 0


def test_verify_expr():
    res = run_cli("verify", "--theorem", "T3.9", "--expr", "cycle(3) x cycle(5)")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "confirmed" and doc["predicted"] == 4 and doc["actual"] == 4


def test_verify_indeterminate_budget():
    res = run_cli(
        "verify", "--theorem", "T3.5", "--expr", "cycle(6)", "--n", "3", "--budget", "1"
    )
    assert res.returncode == 2


@pytest.mark.parametrize("budget", ["-5", "-1"])
@pytest.mark.parametrize("command", ["kappa", "super-kappa", "verify"])
def test_negative_budget_is_an_input_error(tmp_path, command, budget):
    c8 = tmp_path / "c8.g6"
    c8.write_text(run_cli("gen", "cycle(8)").stdout)
    args = {
        "kappa": ["kappa", str(c8)],
        "super-kappa": ["super-kappa", str(c8)],
        "verify": ["verify", "--theorem", "T3.7", "--expr", "cycle(5)", "--n", "6"],
    }[command]
    res = run_cli(*args, "--budget", budget)
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "--budget" in lines[0]
    assert res.stdout == ""


def test_input_errors():
    assert run_cli("gen", "blob(3)").returncode == 3
    assert run_cli("kappa", "/nonexistent.g6").returncode == 3
    assert run_cli("frobnicate").returncode == 3


def test_oversized_json_vertex_count_is_refused_before_allocation(tmp_path):
    # Graph(10**9, ...) would first allocate 10**9 neighbor sets
    huge = tmp_path / "huge.json"
    huge.write_text('{"n": 1000000000, "edges": []}')
    res = run_cli("kappa", str(huge))
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "258047-vertex limit" in lines[0]
    assert res.stdout == ""


@pytest.mark.parametrize(
    "expression",
    ["cycle(300000)", "cycle(1000) x cycle(1000) x cycle(1000)", "tilde(kbip(2,3), 100000)"],
)
def test_oversized_expression_is_refused_before_allocation(expression):
    # complete(100000) alone would build about 5*10**9 edges
    res = run_cli("gen", expression)
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "258047-vertex or 1000000-edge limit" in lines[0]
    assert res.stdout == ""


MEMORY_CAP = 1_500_000_000  # bytes of address space: ample for these commands, far below an oversized build


def run_cli_capped(*args, timeout=60):
    """run_cli in a child capped at MEMORY_CAP and `timeout` seconds, so a
    command that starts building something oversized fails its test cleanly."""
    return subprocess.run(
        [sys.executable, "-m", "superkappa.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP)),
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_suite_entry_over_the_limits_is_malformed_input(tmp_path, jobs):
    entries = [
        {"id": "small", "theorem": "T3.9", "graph": {"expr": "cycle(3)"}},
        {"id": "long", "check": "decomposition", "graph": {"expr": "kbip(2,3)"}, "n": 100000001},
    ]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"instances": entries}))
    res = run_cli_capped("suite", "--manifest", str(manifest), "--jobs", jobs)
    line = _one_stderr_line(res, 3)
    assert line.startswith("error:") and "258047-vertex or 1000000-edge limit" in line
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args",
    [["super-kappa", "--method", "separators", "g.g6"], ["frobnicate"], ["kappa"]],
    ids=["removed-option", "unknown-command", "missing-argument"],
)
def test_usage_errors_print_one_line(args):
    res = run_cli(*args)
    assert res.returncode == 3
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("superkappa")
    assert res.stdout == ""


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


def test_suite_and_run_report_replay(tmp_path):
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
    res = run_cli("suite", "--manifest", str(manifest), "--out", str(out1))
    assert res.returncode == 0
    assert "a: T2.1 confirmed" in res.stdout
    run_cli("suite", "--manifest", str(manifest), "--out", str(out2))
    r1 = json.loads(out1.read_text())
    r2 = json.loads(out2.read_text())
    strip = lambda doc: [
        {k: v for k, v in item.items() if k != "runtime_ms"} for item in doc["results"]
    ]
    assert strip(r1) == strip(r2)
    assert r1["inputs"] == r2["inputs"]


def test_suite_jobs_parallel(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text(
        json.dumps(
            {
                "instances": [
                    {"id": "a", "theorem": "T2.1", "graph": {"expr": "cycle(6)"}, "n": 2},
                    {"id": "b", "theorem": "T3.1", "graph": {"expr": "kbip(2,3)"}, "n": 3},
                ]
            }
        )
    )
    res = run_cli("suite", "--manifest", str(manifest), "--jobs", "2")
    assert res.returncode == 0
    assert res.stdout.index("a: ") < res.stdout.index("b: ")


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_suite_jobs_below_one_is_an_input_error(tmp_path, jobs):
    manifest = tmp_path / "m.json"
    manifest.write_text(
        json.dumps({"instances": [{"id": "a", "theorem": "T3.9", "graph": {"expr": "cycle(3)"}}]})
    )
    res = run_cli("suite", "--manifest", str(manifest), "--jobs", jobs)
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "--jobs" in lines[0]
    assert res.stdout == ""


def test_search_tightness_cli():
    res = run_cli(
        "search-tightness",
        "--target", "L2.2",
        "--max-part-size", "2",
        "--n-range", "3..3",
        "--seed", "1",
        "--budget", "10",
    )
    assert res.returncode in (0, 1)
    doc = json.loads(res.stdout)
    assert doc["complete"] is True


@pytest.mark.parametrize(
    "bad_entry",
    [
        {"id": "no-theorem", "graph": {"expr": "cycle(5)"}, "n": 6},
        {"id": "no-p", "theorem": "T3.5", "graph": {"random_bipartite": {"m": 2, "n": 3, "seed": 1}}, "n": 3},
        {"id": "minus-one", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": 6, "budget": -1},
        {"id": "text-n", "theorem": "T3.7", "graph": {"random_nonbipartite": {"n": "7", "p": 0.5, "seed": 1}}, "n": 6},
        # refused by its size alone: drawing it would take ~5e9 random numbers
        {"id": "huge", "theorem": "T3.7", "graph": {"random_nonbipartite": {"n": 100000, "p": 1e-9, "seed": 1}}, "n": 6},
    ],
    ids=["missing-theorem", "random-bipartite-without-p", "negative-budget", "random-text-size", "random-oversized"],
)
def test_suite_rejects_malformed_entry_before_running(tmp_path, bad_entry):
    manifest = tmp_path / "m.json"
    good = {"id": "good", "theorem": "T2.1", "graph": {"expr": "kbip(2,3)"}, "n": 3}
    manifest.write_text(json.dumps({"instances": [good, bad_entry]}))
    res = run_cli("suite", "--manifest", str(manifest))
    assert res.returncode == 3
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and bad_entry["id"] in lines[0]
    assert res.stdout == ""  # no entry ran


@pytest.mark.parametrize(
    "expression,message",
    [
        ("complete(100000)", "manifest entry b: 100000 vertices and 4999950000 edges exceed"),
        ("blob(3)", "manifest entry b: unknown family 'blob'"),
        ("complete(100000) x file({g6})", "manifest entry b: 100000 vertices and 4999950000 edges exceed"),
        ("cycle(3) x file({missing})", "manifest entry b: [Errno 2] No such file or directory"),
    ],
    ids=["oversized", "unparsable", "oversized-with-file-leaf", "missing-file"],
)
def test_suite_checks_every_expression_before_running(tmp_path, expression, message):
    manifest = tmp_path / "m.json"
    (tmp_path / "g.g6").write_text("Dhc\n")  # C5
    expression = expression.format(g6=tmp_path / "g.g6", missing=tmp_path / "missing.g6")
    expressions = ["kbip(2,3)", expression, "kbip(2,3)"]
    entries = [{"id": i, "theorem": "T3.1", "graph": {"expr": e}, "n": 3} for i, e in zip("abc", expressions)]
    manifest.write_text(json.dumps({"instances": entries}))
    res = run_cli("suite", "--manifest", str(manifest))
    assert res.returncode == 3
    assert res.stdout == ""  # no entry ran
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and message in lines[0]


def test_suite_decomposition_of_a_disconnected_base(tmp_path):
    manifest = tmp_path / "m.json"
    entry = {"id": "d", "check": "decomposition", "graph": {"graph6": "C`"}, "n": 4}  # two disjoint edges
    manifest.write_text(json.dumps({"instances": [entry]}))
    res = run_cli("suite", "--manifest", str(manifest))
    assert (res.returncode, res.stdout, res.stderr) == (0, "d: decomposition:bipartite-even hypotheses-not-met\n", "")


def test_suite_rejects_invalid_json(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_text('{"instances": [')
    res = run_cli("suite", "--manifest", str(manifest))
    assert res.returncode == 3
    assert "Traceback" not in res.stderr and len(res.stderr.strip().splitlines()) == 1


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
    ({"id": "e", "theorem": "T3.9", "graph": {"graph6": "Dhc"}}, "hypotheses-not-met"),  # no odd-cycle lengths
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


def test_a_draw_that_cannot_succeed_exits_3_at_once(tmp_path):
    # 999,691 vertex pairs are under the limits; one attempt's draws fill the edge cap, at load
    graph = {"random_nonbipartite": {"n": 1414, "p": 1e-9, "seed": 1}}
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"instances": [{"id": "e", "theorem": "T3.7", "n": 6, "graph": graph}]}))
    res = run_cli("suite", "--manifest", str(manifest))
    assert res.returncode == 3
    assert res.stderr.splitlines() == [
        "error: manifest entry e: no connected non-bipartite instance with delta>=1 for n=1414, p=1e-09, seed=1 in 1 attempts"
    ]


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

    c5, k2, manifest = tmp_path / "c5.g6", tmp_path / "k2.g6", tmp_path / "m.json"
    c5.write_text("Dhc\n")
    k2.write_text("A_\n")
    digest = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    out = tmp_path / "r.json"
    assert run_cli("verify", "--theorem", "T3.9", "--expr", f"file({c5}) x cycle(3)", "--out", str(out)).returncode == 0
    assert json.loads(out.read_text())["inputs"] == {str(c5): digest(c5)}
    entries = [
        {"id": "a", "theorem": "T3.9", "graph": {"expr": f"file({c5})"}},
        {"id": "b", "theorem": "T3.9", "graph": {"expr": f"cycle(3) x tilde(file({k2}), 2)"}},  # a tilde base
    ]
    manifest.write_text(json.dumps({"instances": entries}))
    assert run_cli("suite", "--manifest", str(manifest), "--out", str(out)).returncode == 0
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


def _one_stderr_line(res, code):
    assert res.returncode == code
    assert "Traceback" not in res.stderr
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1
    return lines[0]


BINARY = b"\xff\xfe\x00\x9c binary"  # not UTF-8


def test_a_manifest_that_is_not_utf8_is_malformed_input(tmp_path):
    manifest = tmp_path / "m.json"
    manifest.write_bytes(BINARY + b'{"instances": []}')
    res = run_cli("suite", "--manifest", str(manifest))
    assert _one_stderr_line(res, 3).startswith("error:")
    assert res.stdout == ""


def test_a_file_leaf_that_is_binary_is_malformed_input(tmp_path):
    (tmp_path / "g.bin").write_bytes(BINARY)
    entries = [
        {"id": "a", "theorem": "T3.9", "graph": {"expr": "cycle(3)"}},
        {"id": "b", "theorem": "T3.9", "graph": {"expr": f"cycle(3) x file({tmp_path / 'g.bin'})"}},
    ]
    manifest = tmp_path / "m.json"
    manifest.write_text(json.dumps({"instances": entries}))
    res = run_cli("suite", "--manifest", str(manifest))
    assert "manifest entry b:" in _one_stderr_line(res, 3)
    assert res.stdout == ""


@pytest.mark.parametrize(
    "args",
    [["gen", "cycle(5)"], ["verify", "--theorem", "T3.7", "--expr", "cycle(5)", "--n", "6"]],
    ids=["gen", "verify"],
)
def test_an_unwritable_out_is_a_fault_not_malformed_input(tmp_path, args):
    res = run_cli(*args, "--out", str(tmp_path / "missing-dir" / "out"))
    line = _one_stderr_line(res, 4)
    assert line.startswith("error:") and "missing-dir" in line and "input" not in line


@pytest.mark.parametrize(
    "args",
    [["suite", "--manifest", "{path}"], ["verify", "--theorem", "T3.9", "--expr", "cycle(3) x file({path})"]],
    ids=["manifest", "file-leaf"],
)
def test_an_input_that_is_not_utf8_is_named_in_its_error(tmp_path, args):
    path = tmp_path / "input.bin"
    path.write_bytes(BINARY)
    res = run_cli(*(a.format(path=path) for a in args))
    assert str(path) in _one_stderr_line(res, 3)
    assert res.stdout == ""
