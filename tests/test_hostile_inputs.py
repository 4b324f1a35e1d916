"""How the CLI treats hostile and boundary inputs: one table, each row run in a child process.

A row is one command line, the files it reads and what the run must do: its
exit code, how many lines it prints on stderr (and a text they hold), and
optionally what its stdout holds, within an optional address-space limit and
a timeout. This is the one place to add such a check.

pytest collects this file and runs each row as `python -m superkappa.cli`.
Run as a script, it needs only the standard library and checks the command
line it is given, such as an installed console script, printing one line per
row and exiting 1 if any row fails:

    python tests/test_hostile_inputs.py /path/to/venv/bin/superkappa
    python tests/test_hostile_inputs.py python3 -m superkappa.cli
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Sparse:
    """A file of `text` extended by a hole to `size` bytes."""

    text: str
    size: int


@dataclass(frozen=True)
class Gen:
    """The graph6 file that `gen EXPRESSION --out FILE` writes; the row fails if gen does not exit 0."""

    expression: str


CLOSED = "closed"  # a stdout check: the reader closes stdout before the command writes to it


@dataclass(frozen=True)
class Row:
    id: str
    argv: tuple  # "{name}" in an argument is the path of the row's file `name`
    exit: int
    stderr_lines: int = 1
    stderr: str = ""  # a text stderr holds
    # None, the byte count, {text: times it occurs} (a JSON value with its comma, so 5 does not match 50),
    # the keys of the JSON document in order, or CLOSED
    stdout: object = None
    files: dict = field(default_factory=dict)  # name: str, bytes, Sparse, Gen, or a function returning a str
    limit_kb: int | None = None  # address space, in KiB as `ulimit -v` takes it
    timeout: float = 120


def _pairs_json():
    """12 MB, within the byte limit: 1,000,001 [u, v] pairs, which json.loads would build in about 150 MB."""
    pairs = itertools.islice(itertools.combinations(range(2000), 2), 1_000_001)
    return '{"n": 2000, "edges": [' + ", ".join(f"[{u}, {v}]" for u, v in pairs) + "]}\n"


def _manifest(*entries):
    return json.dumps({"instances": list(entries)}) + "\n"


_C5_ENTRY = {"id": "a", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": 6}
_LIMITS = "258047-vertex or 1000000-edge limit"
_DIGITS = "9" * 5000  # above the interpreter's 4,300-digit limit on int()
_VERDICT_KEYS = ["theorem_id", "instance", "hypotheses", "predicted", "actual", "verdict", "runtime_ms", "witness", "notes"]


def _search(target, max_part_size, n_range, budget):
    return ("search-tightness", "--target", target, "--max-part-size", max_part_size, "--n-range", n_range,
            "--seed", "1", "--budget", budget)


ROWS = [
    # commands that work, run by the installed package
    # a verdict's JSON is its fields, in their declared order
    Row("verify-t37-json-key-order", ("verify", "--theorem", "T3.7", "--expr", "cycle(5)", "--n", "6"), 0, 0,
        stdout=_VERDICT_KEYS),
    # a value verdict whose kappa scan skips the pairs the cycle reflection swaps
    Row("verify-t33-reflection-orbits", ("verify", "--theorem", "T3.3", "--expr", "cycle(5)", "--n", "6"), 0, 0,
        stdout={'"verdict": "confirmed"': 1}),
    # and one whose scan also skips the pairs the lifted automorphisms of G that fix G's scan source map together
    Row("verify-t34-stabiliser-orbits", ("verify", "--theorem", "T3.4", "--expr", "cycle(3) x cycle(5)", "--n", "7"),
        0, 0, stdout={'"verdict": "confirmed"': 1}),
    Row("kappa-of-a-gen-file", ("kappa", "{c.g6}"), 0, 0, files={"c.g6": Gen("cycle(3) x cycle(6)")}),
    Row("super-kappa-confirmed", ("super-kappa", "{c.g6}"), 0, 0, files={"c.g6": Gen("cycle(3) x cycle(6)")},
        stdout={'"is_super_kappa": true,': 1, '"minimum_cuts_examined": 18,': 1}),
    Row("super-kappa-refuted", ("super-kappa", "{c8.g6}"), 1, 0, files={"c8.g6": Gen("cycle(8)")},
        stdout={'"witness": {': 1}),
    Row("search-l22-witnesses", _search("L2.2", "3", "3..4", "40"), 1, 0, stdout={'"cut_size"': 3}),
    # graph6 of 6,000 vertices is packed from adjacency bitmasks in well under 4 s
    Row("gen-6000-vertices-in-4s", ("gen", "cycle(3) x cycle(2000)"), 0, 0, stdout=2999505, timeout=4),
    # graph6 is packed a run of columns at a time: the largest output fits in 200 MB of address space
    Row("gen-16384-vertices-in-200mb", ("gen", "cycle(16384)"), 0, 0, stdout=22368261, limit_kb=200000),
    # graph6 of 12,000 vertices is decoded a column at a time, well under 5 s for the whole verify
    Row("verify-t39-12000-vertex-file", ("verify", "--theorem", "T3.9", "--graph", "{c.g6}"), 0, 0,
        files={"c.g6": Gen("cycle(3) x cycle(4000)")}, timeout=5),
    # each block map and the layer relabeling spans its own block, so 5001 layers fit in 200 MB and well under 10 s
    Row("decomposition-of-5001-layers", ("suite", "--manifest", "{m.json}"), 0, 0,
        stdout={"d: decomposition:nonbipartite-odd confirmed": 1}, limit_kb=200000, timeout=10,
        files={"m.json": _manifest({"id": "d", "check": "decomposition", "graph": {"expr": "cycle(3)"}, "n": 5001})}),
    # a tightness search draws no graph at an n its target's n-rule excludes (T3.5: odd n)
    Row("search-t35-excluded-n", _search("T3.5", "3", "4..4", "5"), 0, 0, stdout={'"instances_probed": 0,': 1}),
    # a long n-range is filtered lazily: the budget stops the search, indeterminate and without an error
    Row("search-long-n-range-lazily", _search("L2.2", "3", "3..1000000000000", "5"), 2, 0,
        stdout={'"instances_probed": 5,': 1, '"complete": false,': 1}, limit_kb=1_500_000, timeout=10),
    # tilde(E, n) is a family of the one expression grammar
    Row("verify-tilde-expression", ("verify", "--theorem", "T3.1", "--expr", "tilde(kbip(2,3), 3)", "--n", "3"), 0, 0),
    # a closed stdout is a fault (4) and prints nothing: no traceback, no EPIPE message
    Row("closed-stdout", ("gen", "cycle(3) x cycle(2000)"), 4, 0, stdout=CLOSED),
    # constructions, draws and outputs over the size limits are refused before they are built
    Row("gen-complete-100000", ("gen", "complete(100000)"), 3, stderr=_LIMITS, stdout=0, timeout=60),
    Row("verify-product-with-a-long-cycle", ("verify", "--theorem", "T3.1", "--expr", "kbip(2,3)", "--n", "100000001"),
        3, stderr=f"edges exceed the {_LIMITS}", limit_kb=1_500_000, timeout=10),
    Row("search-draws-of-2000-vertices", _search("T3.8", "1000", "7..7", "1"), 3,
        stderr=f"error: 2000 vertices and 1999000 vertex pairs exceed the {_LIMITS}", limit_kb=1_500_000, timeout=10),
    # cycle(258047) is within every construction limit; packing its graph6 takes memory quadratic in |V|
    Row("gen-graph6-of-258047-vertices", ("gen", "cycle(258047)"), 3,
        stderr="error: graph6 output of 258047 vertices exceeds the 16384-vertex limit", stdout=0,
        limit_kb=1_500_000, timeout=10),
    # verify writes, and so sizes, the verdict's graph6 before any clause runs: kappa(G x K2) would outlast the timeout
    Row("verify-graph6-of-16503-vertices", ("verify", "--theorem", "T3.7", "--expr", "cycle(3) x cycle(5501)", "--n", "6"),
        3, stderr="error: graph6 output of 16503 vertices exceeds the 16384-vertex limit", limit_kb=1_500_000, timeout=10),
    # a tilde base that is not bipartite is refused by the construction alone
    Row("tilde-base-not-bipartite", ("gen", "tilde(cycle(5), 3)"), 3,
        stderr="error: layered construction needs a bipartite base graph", stdout=0),
    # a graph file is sized before its edges are listed: K_2000's 333 KB graph6 holds twice the edge limit
    Row("k2000-graph6-file", ("super-kappa", "{k2000.g6}"), 3,
        stderr=f"error: 2000 vertices and 1999000 edges exceed the {_LIMITS}",
        files={"k2000.g6": "~?^O" + "~" * 333166 + "{\n"}, limit_kb=1_500_000, timeout=10),
    # a JSON edge list is sized by its byte length before it is read: a sparse 10 GiB file is refused unread
    Row("sparse-10gib-edge-list", ("kappa", "{big.json}"), 3,
        stderr="big.json: a 10737418240-byte JSON edge list exceeds the 48515008-byte limit",
        files={"big.json": Sparse('{"n": 3, "edges": [[0, 1]]}', 10 << 30)}, limit_kb=200000, timeout=10),
    # a JSON edge list within the byte limit is sized by its [u, v] pairs before json.loads builds them
    Row("edge-list-of-1000001-pairs", ("kappa", "{pairs.json}"), 3,
        stderr=f"error: 2000 vertices and 1000001 edges exceed the {_LIMITS}",
        files={"pairs.json": _pairs_json}, limit_kb=150000, timeout=10),
    # a search over nothing is malformed input
    Row("search-max-part-size-0", _search("L2.2", "0", "3..4", "5"), 3,
        stderr="error: max part size must be positive", stdout=0),
    Row("search-max-part-size-negative", ("search-tightness", "--target", "L2.2", "--max-part-size=-3", "--n-range", "3..4",
                                          "--seed", "1", "--budget", "5"),
        3, stderr="error: max part size must be positive", stdout=0),
    Row("search-empty-n-range", _search("L2.2", "3", "5..3", "5"), 3,
        stderr="error: bad n-range '5..3'; A exceeds B", stdout=0),
    # an undecodable input file is malformed input
    Row("binary-graph-file", ("kappa", "{bin.g6}"), 3, stderr="decode", files={"bin.g6": b"\xff\xfe binary"}),
    # a manifest entry's malformed graph, here its graph6 or a leaf below its family's minimum, is refused at load,
    # naming the entry, before any entry runs
    Row("manifest-entry-b-malformed-graph6", ("suite", "--manifest", "{m.json}"), 3, stderr="manifest entry b", stdout=0,
        files={"m.json": _manifest(_C5_ENTRY, {"id": "b", "theorem": "T3.7", "graph": {"graph6": "Dl"}, "n": 6})}),
    Row("manifest-entry-b-leaf-below-minimum", ("suite", "--manifest", "{m.json}"), 3, stderr="manifest entry b",
        stdout=0, files={"m.json": _manifest(_C5_ENTRY, {"id": "b", "theorem": "T3.1", "graph": {"expr": "kbip(0,3)"},
                                                       "n": 3})}),
    # JSON nested past the decoder's recursion limit, or holding an integer past the interpreter's digit limit
    Row("edge-list-nested-100000-deep", ("kappa", "{deep.json}"), 3, stderr="error: invalid JSON: maximum recursion",
        stdout=0, files={"deep.json": '{"n": 2, "edges": ' + "[" * 100000}),
    Row("manifest-nested-100000-deep", ("suite", "--manifest", "{m.json}"), 3, stderr="is not valid JSON: maximum recursion",
        stdout=0, files={"m.json": '{"instances": ' + "[" * 100000}),
    Row("edge-list-5000-digit-integer", ("kappa", "{g.json}"), 3, stderr="error: invalid JSON: Exceeds the limit",
        stdout=0, files={"g.json": '{"n": ' + _DIGITS + ', "edges": []}'}),
    Row("manifest-5000-digit-integer", ("suite", "--manifest", "{m.json}"), 3, stderr="is not valid JSON: Exceeds the limit",
        stdout=0, files={"m.json": '{"instances": [{"id": "a", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": '
                                   + _DIGITS + "}]}"}),
    # the expression grammar refuses a literal longer than the vertex limit, and tilde nesting each layer of
    # which at least doubles the vertices, before int() reads it or the builder recurses
    Row("cycle-of-5000-digits", ("gen", f"cycle({_DIGITS})"), 3,
        stderr="error: an integer of 5000 digits exceeds the 258047-vertex limit", stdout=0),
    Row("tilde-nested-300-deep", ("gen", "tilde(" * 300 + "kbip(2,2)" + ", 2)" * 300), 3,
        stderr="error: 'tilde(' nested over 18 deep exceeds the 258047-vertex limit", stdout=0),
    # a result that takes no n refuses one from the command line as a manifest entry does
    Row("verify-t39-with-an-n", ("verify", "--theorem", "T3.9", "--expr", "cycle(3) x cycle(5)", "--n", "6"), 3,
        stderr="error: T3.9 takes no 'n'", stdout=0),
    # an empty expression is an expression, not a missing --expr
    Row("verify-empty-expression", ("verify", "--theorem", "T3.7", "--expr", "", "--n", "6"), 3,
        stderr="error: empty expression", stdout=0),
    # an input error quoting a line break in the input still prints one line
    Row("manifest-entry-id-with-a-line-break", ("suite", "--manifest", "{m.json}"), 3,
        stderr="error: manifest entry a b: unknown theorem id 'T9.9'", stdout=0,
        files={"m.json": _manifest({"id": "a\nb", "theorem": "T9.9", "graph": {"expr": "cycle(3)"}})}),
    # a theorem id that is not a string
    Row("manifest-list-valued-theorem", ("suite", "--manifest", "{m.json}"), 3,
        stderr="error: manifest entry a: unknown theorem id ['T3.9']", stdout=0,
        files={"m.json": _manifest({"id": "a", "theorem": ["T3.9"], "graph": {"expr": "cycle(3)"}})}),
]


def _write(path, content, cli):
    """Write one of a row's files; a problem, or None."""
    if isinstance(content, Gen):
        res = subprocess.run([*cli, "gen", content.expression, "--out", path], capture_output=True, timeout=120)
        return f"gen {content.expression!r} exited {res.returncode}" if res.returncode else None
    if callable(content):
        content = content()
    if isinstance(content, Sparse):
        with open(path, "w") as fh:
            fh.write(content.text)
        os.truncate(path, content.size)
    else:
        with open(path, "wb" if isinstance(content, bytes) else "w") as fh:
            fh.write(content)
    return None


def _stdout_problem(expected, out):
    if isinstance(expected, int):
        return None if len(out) == expected else f"stdout has {len(out)} bytes, not {expected}"
    text = out.decode("utf-8", "replace")
    if isinstance(expected, dict):
        wrong = {s: text.count(s) for s, times in expected.items() if text.count(s) != times}
        return f"stdout holds {wrong}, not {expected}" if wrong else None
    try:
        keys = list(json.loads(text))
    except ValueError:
        return f"stdout is not one JSON document: {text[:80]!r}"
    return None if keys == expected else f"stdout's keys are {keys}"


def check(row, cli, directory):
    """Run a row with the command line `cli` of the CLI, its files written in `directory`; what it got wrong."""
    paths = {name: os.path.join(directory, name) for name in row.files}
    problems = [p for name, content in row.files.items() if (p := _write(paths[name], content, cli))]
    if problems:
        return problems
    argv = list(row.argv)
    for name, path in paths.items():
        argv = [arg.replace("{" + name + "}", path) for arg in argv]
    cap = None if row.limit_kb is None else row.limit_kb * 1024
    preexec = None if cap is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    with subprocess.Popen([*cli, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=preexec) as proc:
        if row.stdout == CLOSED:
            proc.stdout.close()
        try:
            out, err = proc.communicate(timeout=row.timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            return [f"no exit within {row.timeout} s"]
    err = err.decode("utf-8", "replace")
    if proc.returncode != row.exit:
        problems.append(f"exit {proc.returncode}, not {row.exit}")
    if len(err.splitlines()) != row.stderr_lines:
        problems.append(f"{len(err.splitlines())} stderr lines, not {row.stderr_lines}: {err[:300]!r}")
    if row.stderr not in err:
        problems.append(f"stderr does not hold {row.stderr!r}: {err[:300]!r}")
    if row.stdout not in (None, CLOSED):
        problems.append(_stdout_problem(row.stdout, out))
    return [p for p in problems if p]


def pytest_generate_tests(metafunc):
    if "row" in metafunc.fixturenames:
        metafunc.parametrize("row", ROWS, ids=[row.id for row in ROWS])


def test_hostile_input(row, tmp_path):
    problems = check(row, [sys.executable, "-m", "superkappa.cli"], str(tmp_path))
    assert not problems, "; ".join(problems)


def main(argv):
    if not argv:
        print(f"usage: {sys.argv[0]} SUPERKAPPA-COMMAND...", file=sys.stderr)
        return 2
    failed = 0
    for row in ROWS:
        with tempfile.TemporaryDirectory() as directory:
            problems = check(row, argv, directory)
        failed += bool(problems)
        print(f"{'FAIL' if problems else 'ok'} {row.id}" + "".join(f"\n    {p}" for p in problems), flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
