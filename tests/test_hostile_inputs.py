"""How the CLI treats hostile and boundary inputs: one table, each row run in a child process.

A row is one command line, the files it reads and what the run must do: its
exit code, how many lines it prints on stderr (and a text they hold), and
optionally what its stdout holds, within an optional address-space limit and
a timeout. This is the one place to add a check of what a command line does
to the exit code, stderr and stdout, and `check` is the only code in `tests/`
that starts the CLI as a child process.

pytest collects this file and runs each row as `python -m superkappa.cli`.
Run as a script, it needs only the standard library and checks the command
line it is given, such as an installed console script, printing one line per
row with the seconds its command ran, and exiting 1 if any row fails:

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
import time
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
    argv: tuple  # "{name}" in an argument, or in the text of a row's file, is the path of the row's file `name`
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
_GOOD_ENTRY = {"id": "good", "theorem": "T2.1", "graph": {"expr": "kbip(2,3)"}, "n": 3}
_T39_ENTRY = {"id": "a", "theorem": "T3.9", "graph": {"expr": "cycle(3)"}}
_BINARY = b"\xff\xfe\x00\x9c binary"  # not UTF-8
_UNDECODABLE = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
_LIMITS = "258047-vertex or 1000000-edge limit"
_DIGITS = "9" * 5000  # above the interpreter's 4,300-digit limit on int()
_VERDICT_KEYS = ["theorem_id", "instance", "hypotheses", "predicted", "actual", "verdict", "runtime_ms", "witness", "notes"]


def _search(target, max_part_size, n_range, budget):
    return ("search-tightness", "--target", target, "--max-part-size", max_part_size, "--n-range", n_range,
            "--seed", "1", "--budget", budget)


def _expression_entries(expression):
    """A manifest whose entry b takes `expression`, between two entries that run."""
    return _manifest(*({"id": i, "theorem": "T3.1", "graph": {"expr": e}, "n": 3}
                       for i, e in zip("abc", ["kbip(2,3)", expression, "kbip(2,3)"])))


_SUITE = ("suite", "--manifest", "{m.json}")


ROWS = [
    # commands that work, run by the installed package
    # a verdict's JSON is its fields, in their declared order
    Row("verify-t37-json-key-order", ("verify", "--theorem", "T3.7", "--expr", "cycle(5)", "--n", "6"), 0, 0,
        stdout=_VERDICT_KEYS),
    Row("verify-t39-expression", ("verify", "--theorem", "T3.9", "--expr", "cycle(3) x cycle(5)"), 0, 0,
        stdout={'"predicted": 4,': 1, '"actual": 4,': 1, '"verdict": "confirmed",': 1}),
    # the odd-cycle clause reads G, so a graph6 file of C3 x C5 and its expression give one verdict
    Row("verify-t39-file", ("verify", "--theorem", "T3.9", "--graph", "{c.g6}"), 0, 0,
        stdout={'"predicted": 4,': 1, '"actual": 4,': 1, '"verdict": "confirmed",': 1},
        files={"c.g6": Gen("cycle(3) x cycle(5)")}),
    *(Row(f"verify-{theorem.lower().replace('.', '')}-{kind}", ("verify", "--theorem", theorem, *graph, "--n", n),
          0, 0, stdout={'"verdict": "confirmed",': 1}, files=files)
      for theorem, n in (("C3.10", "6"), ("C3.11", "7"))
      for kind, graph, files in (("file", ("--graph", "{c.g6}"), {"c.g6": Gen("cycle(3) x cycle(5)")}),
                                 ("expression", ("--expr", "cycle(3) x cycle(5)"), {}))),
    # 105 vertices, above ISO_CAP: the clause is undecided and the verdict indeterminate
    Row("verify-t39-undecided-factors", ("verify", "--theorem", "T3.9", "--expr", "cycle(3) x cycle(5) x cycle(7)"),
        2, 0, stdout={'"holds": null': 1, '"verdict": "indeterminate",': 1}),
    # a value verdict whose kappa scan skips the pairs the cycle reflection swaps
    Row("verify-t33-reflection-orbits", ("verify", "--theorem", "T3.3", "--expr", "cycle(5)", "--n", "6"), 0, 0,
        stdout={'"verdict": "confirmed"': 1}),
    # and one whose scan also skips the pairs the lifted automorphisms of G that fix G's scan source map together
    Row("verify-t34-stabiliser-orbits", ("verify", "--theorem", "T3.4", "--expr", "cycle(3) x cycle(5)", "--n", "7"),
        0, 0, stdout={'"verdict": "confirmed"': 1}),
    # a budget too small for the super-kappa decision leaves the verdict indeterminate
    Row("verify-t35-indeterminate-at-budget-1", ("verify", "--theorem", "T3.5", "--expr", "cycle(6)", "--n", "3",
                                                 "--budget", "1"), 2, 0, stdout={'"verdict": "indeterminate",': 1}),
    Row("gen-graph6-of-six-vertices", ("gen", "cycle(3) x complete(2)", "--format", "g6"), 0, 0, stdout={"EKU_\n": 1}),
    Row("kappa-of-a-gen-file", ("kappa", "{c.g6}"), 0, 0, files={"c.g6": Gen("cycle(3) x cycle(6)")}),
    Row("kappa-report", ("kappa", "{c.g6}"), 0, 0, files={"c.g6": Gen("cycle(3) x complete(2)")},
        stdout={'"kappa": 2,': 1, '"delta": 2,': 1, '"is_max_kappa": true,': 1}),
    Row("super-kappa-confirmed", ("super-kappa", "{c.g6}"), 0, 0, files={"c.g6": Gen("cycle(3) x cycle(6)")},
        stdout={'"is_super_kappa": true,': 1, '"minimum_cuts_examined": 18,': 1}),
    Row("super-kappa-of-c5-confirmed", ("super-kappa", "{c5.g6}"), 0, 0, files={"c5.g6": Gen("cycle(5)")},
        stdout={'"is_super_kappa": true,': 1}),
    Row("super-kappa-refuted", ("super-kappa", "{c8.g6}"), 1, 0, files={"c8.g6": Gen("cycle(8)")},
        stdout={'"witness": {': 1}),
    Row("super-kappa-of-c6-refuted", ("super-kappa", "{c6.g6}"), 1, 0, files={"c6.g6": Gen("cycle(6)")},
        stdout={'"is_super_kappa": false,': 1, '"size": 2,': 1}),
    Row("search-l22-witnesses", _search("L2.2", "3", "3..4", "40"), 1, 0, stdout={'"cut_size"': 3}),
    Row("search-l22-complete", _search("L2.2", "2", "3..3", "10"), 0, 0, stdout={'"complete": true,': 1}),
    # graph6 of 6,000 vertices is packed from adjacency bitmasks in well under 4 s
    Row("gen-6000-vertices-in-4s", ("gen", "cycle(3) x cycle(2000)"), 0, 0, stdout=2999505, timeout=4),
    # graph6 is packed a run of columns at a time: the largest output fits in 200 MB of address space
    Row("gen-16384-vertices-in-200mb", ("gen", "cycle(16384)"), 0, 0, stdout=22368261, limit_kb=200000),
    # graph6 of 12,000 vertices is decoded a column at a time, well under 5 s for the whole verify; its even order
    # fails the odd-cycle clause before any walk or search
    Row("verify-t39-12000-vertex-file", ("verify", "--theorem", "T3.9", "--graph", "{c.g6}"), 0, 0,
        files={"c.g6": Gen("cycle(3) x cycle(4000)")}, timeout=5),
    # each block map and the layer relabeling spans its own block, so 5001 layers fit in 200 MB and well under 10 s
    Row("decomposition-of-5001-layers", _SUITE, 0, 0,
        stdout={"d: decomposition:nonbipartite-odd confirmed": 1}, limit_kb=200000, timeout=10,
        files={"m.json": _manifest({"id": "d", "check": "decomposition", "graph": {"expr": "cycle(3)"}, "n": 5001})}),
    # a disconnected base meets no case's hypotheses ({"\n": 1}: the one line is all of stdout)
    Row("decomposition-of-a-disconnected-base", _SUITE, 0, 0,
        stdout={"d: decomposition:bipartite-even hypotheses-not-met\n": 1, "\n": 1},
        files={"m.json": _manifest({"id": "d", "check": "decomposition", "graph": {"graph6": "C`"}, "n": 4})}),
    # a pool of two runs the entries and prints them in manifest order
    Row("suite-jobs-2-in-manifest-order", (*_SUITE, "--jobs", "2"), 0, 0,
        stdout={"a: T2.1 confirmed\nb: T3.1 confirmed\n": 1},
        files={"m.json": _manifest({"id": "a", "theorem": "T2.1", "graph": {"expr": "cycle(6)"}, "n": 2},
                                   {"id": "b", "theorem": "T3.1", "graph": {"expr": "kbip(2,3)"}, "n": 3})}),
    # a tightness search draws no graph at an n its target's n-rule excludes (T3.5: odd n)
    Row("search-t35-excluded-n", _search("T3.5", "3", "4..4", "5"), 0, 0, stdout={'"instances_probed": 0,': 1}),
    # a long n-range is filtered lazily: the budget stops the search, indeterminate and without an error
    Row("search-long-n-range-lazily", _search("L2.2", "3", "3..1000000000000", "5"), 2, 0,
        stdout={'"instances_probed": 5,': 1, '"complete": false,': 1}, limit_kb=1_500_000, timeout=10),
    # tilde(E, n) is a family of the one expression grammar, in verify and in a manifest
    Row("verify-tilde-expression", ("verify", "--theorem", "T3.1", "--expr", "tilde(kbip(2,3), 3)", "--n", "3"), 0, 0,
        stdout={'"verdict": "confirmed",': 1}),
    Row("suite-tilde-expression", _SUITE, 0, 0, stdout={"t: T3.1 confirmed\n": 1, "\n": 1},
        files={"m.json": _manifest({"id": "t", "theorem": "T3.1", "graph": {"expr": "tilde(kbip(2,3), 3)"}, "n": 3})}),
    # a closed stdout is a fault (4) and prints nothing: no traceback, no EPIPE message
    Row("closed-stdout", ("gen", "cycle(3) x cycle(2000)"), 4, 0, stdout=CLOSED),
    # an output file that cannot be written is a fault (4), not malformed input
    Row("gen-unwritable-out", ("gen", "cycle(5)", "--out", "missing-dir/out"), 4,
        stderr="error: cannot write output: [Errno 2] No such file or directory: 'missing-dir/out'", stdout=0),
    Row("verify-unwritable-out", ("verify", "--theorem", "T3.7", "--expr", "cycle(5)", "--n", "6", "--out",
                                  "missing-dir/out"), 4,
        stderr="error: cannot write output: [Errno 2] No such file or directory: 'missing-dir/out'"),
    # usage errors are malformed input: one line from the argument parser
    Row("usage-removed-option", ("super-kappa", "--method", "separators", "g.g6"), 3,
        stderr="superkappa: error: unrecognized arguments: --method g.g6", stdout=0),
    Row("usage-unknown-command", ("frobnicate",), 3,
        stderr="superkappa: error: argument command: invalid choice: 'frobnicate'", stdout=0),
    Row("usage-missing-argument", ("kappa",), 3,
        stderr="superkappa kappa: error: the following arguments are required: graph", stdout=0),
    # a negative --budget and a --jobs below 1 are malformed input
    *(Row(f"{argv[0]}-budget={budget}", (*argv, "--budget", budget), 3,
          stderr=f"error: --budget must be non-negative, got {budget}", stdout=0,
          files={"c8.g6": Gen("cycle(8)")} if "{c8.g6}" in argv else {})
      for argv in [("kappa", "{c8.g6}"), ("super-kappa", "{c8.g6}"),
                   ("verify", "--theorem", "T3.7", "--expr", "cycle(5)", "--n", "6")]
      for budget in ("-5", "-1")),
    *(Row(f"suite-jobs={jobs}", (*_SUITE, "--jobs", jobs), 3, stderr=f"error: --jobs must be at least 1, got {jobs}",
          stdout=0, files={"m.json": _manifest(_T39_ENTRY)}) for jobs in ("0", "-1")),
    # an unknown family, and a graph file that is missing
    Row("gen-unknown-family", ("gen", "blob(3)"), 3, stderr="error: unknown family 'blob'", stdout=0),
    Row("kappa-of-a-missing-file", ("kappa", "/nonexistent.g6"), 3,
        stderr="error: [Errno 2] No such file or directory: '/nonexistent.g6'", stdout=0),
    # constructions, draws and outputs over the size limits are refused before they are built
    Row("gen-complete-100000", ("gen", "complete(100000)", "--format", "json"), 3, stderr=_LIMITS, stdout=0,
        timeout=60),
    Row("gen-cycle-300000", ("gen", "cycle(300000)"), 3,
        stderr=f"error: 300000 vertices and 300000 edges exceed the {_LIMITS}", stdout=0),
    Row("gen-cube-of-cycle-1000", ("gen", "cycle(1000) x cycle(1000) x cycle(1000)"), 3,
        stderr=f"error: 1000000 vertices and 2000000 edges exceed the {_LIMITS}", stdout=0),
    Row("gen-tilde-of-100000-layers", ("gen", "tilde(kbip(2,3), 100000)"), 3,
        stderr=f"error: 500000 vertices and 1200000 edges exceed the {_LIMITS}", stdout=0),
    Row("verify-product-with-a-long-cycle", ("verify", "--theorem", "T3.1", "--expr", "kbip(2,3)", "--n", "100000001"),
        3, stderr=f"edges exceed the {_LIMITS}", limit_kb=1_500_000, timeout=10),
    # with one pool worker or two, an entry over the limits stops the suite before any entry runs, within 1.5e9 bytes
    *(Row(f"manifest-entry-over-the-limits-jobs-{jobs}", (*_SUITE, "--jobs", jobs), 3,
          stderr=f"error: manifest entry long: 500000005 vertices and 1200000012 edges exceed the {_LIMITS}", stdout=0,
          files={"m.json": _manifest({"id": "small", "theorem": "T3.9", "graph": {"expr": "cycle(3)"}},
                                     {"id": "long", "check": "decomposition", "graph": {"expr": "kbip(2,3)"},
                                      "n": 100000001})},
          limit_kb=1_500_000_000 // 1024, timeout=60) for jobs in ("1", "2")),
    Row("search-draws-of-2000-vertices", _search("T3.8", "1000", "7..7", "1"), 3,
        stderr=f"error: 2000 vertices and 1999000 vertex pairs exceed the {_LIMITS}", limit_kb=1_500_000, timeout=10),
    # cycle(258047) is within every construction limit; gen sizes its graph6 from the parsed expression, unbuilt
    Row("gen-graph6-of-258047-vertices", ("gen", "cycle(258047)"), 3,
        stderr="error: graph6 output of 258047 vertices exceeds the 16384-vertex limit", stdout=0,
        limit_kb=100000, timeout=2),
    # so do verify --expr and a manifest's expression, whose verdicts record their graph's graph6
    Row("verify-graph6-of-258047-vertices", ("verify", "--theorem", "T3.7", "--expr", "cycle(258047)", "--n", "6"), 3,
        stderr="error: graph6 output of 258047 vertices exceeds the 16384-vertex limit", stdout=0,
        limit_kb=100000, timeout=2),
    Row("manifest-expression-graph6-of-258047-vertices", _SUITE, 3,
        stderr="error: manifest entry b: graph6 output of 258047 vertices exceeds the 16384-vertex limit", stdout=0,
        files={"m.json": _expression_entries("cycle(258047)")}, limit_kb=100000, timeout=2),
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
    # a JSON edge list's n is sized before Graph allocates n neighbour sets
    Row("edge-list-of-10-9-vertices", ("kappa", "{huge.json}"), 3,
        stderr="error: field 'n' is 1000000000, above the 258047-vertex limit", stdout=0,
        files={"huge.json": '{"n": 1000000000, "edges": []}'}),
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
    # an undecodable input file is malformed input, named in its one line
    Row("binary-graph-file", ("kappa", "{bin.g6}"), 3, stderr="decode", files={"bin.g6": b"\xff\xfe binary"}),
    Row("binary-manifest", _SUITE, 3, stderr="error: cannot decode /", stdout=0,
        files={"m.json": _BINARY + b'{"instances": []}'}),
    Row("binary-manifest-named", ("suite", "--manifest", "{input.bin}"), 3,
        stderr=f"/input.bin: {_UNDECODABLE}", stdout=0, files={"input.bin": _BINARY}),
    Row("binary-file-leaf-named", ("verify", "--theorem", "T3.9", "--expr", "cycle(3) x file({input.bin})"), 3,
        stderr=f"/input.bin: {_UNDECODABLE}", stdout=0, files={"input.bin": _BINARY}),
    Row("manifest-entry-b-binary-file-leaf", _SUITE, 3, stderr="error: manifest entry b: cannot decode /", stdout=0,
        files={"g.bin": _BINARY, "m.json": _manifest(_T39_ENTRY, {"id": "b", "theorem": "T3.9",
                                                                  "graph": {"expr": "cycle(3) x file({g.bin})"}})}),
    # a manifest entry's malformed graph, here its graph6 or a leaf below its family's minimum, is refused at load,
    # naming the entry, before any entry runs
    Row("manifest-entry-b-malformed-graph6", _SUITE, 3, stderr="manifest entry b", stdout=0,
        files={"m.json": _manifest(_C5_ENTRY, {"id": "b", "theorem": "T3.7", "graph": {"graph6": "Dl"}, "n": 6})}),
    Row("manifest-entry-b-leaf-below-minimum", _SUITE, 3, stderr="manifest entry b",
        stdout=0, files={"m.json": _manifest(_C5_ENTRY, {"id": "b", "theorem": "T3.1", "graph": {"expr": "kbip(0,3)"},
                                                       "n": 3})}),
    # so is any malformed entry, each after an entry that runs
    *(Row(f"manifest-entry-{name}", _SUITE, 3, stderr=f"error: manifest entry {entry['id']}: {message}", stdout=0,
          files={"m.json": _manifest(_GOOD_ENTRY, entry)}) for name, entry, message in [
        ("missing-theorem", {"id": "no-theorem", "graph": {"expr": "cycle(5)"}, "n": 6}, "unknown theorem id None"),
        ("random-bipartite-without-p",
         {"id": "no-p", "theorem": "T3.5", "graph": {"random_bipartite": {"m": 2, "n": 3, "seed": 1}}, "n": 3},
         "random_bipartite descriptor needs fields m, n, p, seed"),
        ("negative-budget", {"id": "minus-one", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": 6, "budget": -1},
         "'budget' must be a non-negative integer"),
        ("random-text-size",
         {"id": "text-n", "theorem": "T3.7", "graph": {"random_nonbipartite": {"n": "7", "p": 0.5, "seed": 1}}, "n": 6},
         "random_nonbipartite fields n, seed must be integers and p a number"),
        # refused by its size alone: drawing it would take ~5e9 random numbers
        ("random-oversized", {"id": "huge", "theorem": "T3.7",
                              "graph": {"random_nonbipartite": {"n": 100000, "p": 1e-9, "seed": 1}}, "n": 6},
         f"100000 vertices and 4999950000 vertex pairs exceed the {_LIMITS}"),
    ]),
    # every entry's expression is built at load, file leaves included, before any entry runs
    Row("manifest-expression-oversized", _SUITE, 3,
        stderr=f"error: manifest entry b: 100000 vertices and 4999950000 edges exceed the {_LIMITS}", stdout=0,
        files={"m.json": _expression_entries("complete(100000)"), "g.g6": "Dhc\n"}),
    Row("manifest-expression-unparsable", _SUITE, 3, stderr="error: manifest entry b: unknown family 'blob'", stdout=0,
        files={"m.json": _expression_entries("blob(3)"), "g.g6": "Dhc\n"}),
    Row("manifest-expression-oversized-with-file-leaf", _SUITE, 3,
        stderr=f"error: manifest entry b: 100000 vertices and 4999950000 edges exceed the {_LIMITS}", stdout=0,
        files={"m.json": _expression_entries("complete(100000) x file({g.g6})"), "g.g6": "Dhc\n"}),
    Row("manifest-expression-missing-file", _SUITE, 3,
        stderr="error: manifest entry b: [Errno 2] No such file or directory: '/", stdout=0,
        files={"m.json": _expression_entries("cycle(3) x file({g.g6}.missing)"), "g.g6": "Dhc\n"}),
    # a random draw that cannot succeed is refused at load: one attempt's draws fill the edge cap
    Row("manifest-draw-that-cannot-succeed", _SUITE, 3,
        stderr="error: manifest entry e: no connected non-bipartite instance with delta>=1 for n=1414, p=1e-09, seed=1 "
               "in 1 attempts", stdout=0,
        files={"m.json": _manifest({"id": "e", "theorem": "T3.7", "n": 6,
                                    "graph": {"random_nonbipartite": {"n": 1414, "p": 1e-9, "seed": 1}}})}),
    # a decomposition entry is no theorem entry: a theorem id beside it is refused, whatever it holds
    Row("manifest-decomposition-with-a-theorem", _SUITE, 3,
        stderr="error: manifest entry d: a decomposition check takes no 'theorem'", stdout=0,
        files={"m.json": _manifest({"id": "d", "check": "decomposition", "theorem": "T9.9",
                                    "graph": {"expr": "cycle(5)"}, "n": 6})}),
    # JSON that does not parse, is nested past the decoder's recursion limit, or holds an integer past the
    # interpreter's digit limit
    Row("manifest-invalid-json", _SUITE, 3,
        stderr="m.json is not valid JSON: Expecting value: line 1 column 16 (char 15)", stdout=0,
        files={"m.json": '{"instances": ['}),
    Row("edge-list-nested-100000-deep", ("kappa", "{deep.json}"), 3, stderr="error: invalid JSON: maximum recursion",
        stdout=0, files={"deep.json": '{"n": 2, "edges": ' + "[" * 100000}),
    Row("manifest-nested-100000-deep", _SUITE, 3, stderr="is not valid JSON: maximum recursion",
        stdout=0, files={"m.json": '{"instances": ' + "[" * 100000}),
    Row("edge-list-5000-digit-integer", ("kappa", "{g.json}"), 3, stderr="error: invalid JSON: Exceeds the limit",
        stdout=0, files={"g.json": '{"n": ' + _DIGITS + ', "edges": []}'}),
    Row("manifest-5000-digit-integer", _SUITE, 3, stderr="is not valid JSON: Exceeds the limit",
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
    Row("manifest-entry-id-with-a-line-break", _SUITE, 3,
        stderr="error: manifest entry a b: unknown theorem id 'T9.9'", stdout=0,
        files={"m.json": _manifest({"id": "a\nb", "theorem": "T9.9", "graph": {"expr": "cycle(3)"}})}),
    # a theorem id that is not a string
    Row("manifest-list-valued-theorem", _SUITE, 3,
        stderr="error: manifest entry a: unknown theorem id ['T3.9']", stdout=0,
        files={"m.json": _manifest({"id": "a", "theorem": ["T3.9"], "graph": {"expr": "cycle(3)"}})}),
]


def _paths_in(text, paths):
    """`text` with each "{name}" replaced by the path of the row's file `name`."""
    for name, path in paths.items():
        text = text.replace("{" + name + "}", path)
    return text


def _write(path, content, cli, paths):
    """Write one of a row's files, "{name}" in its text replaced as in argv; a problem, or None."""
    if isinstance(content, Gen):
        res = subprocess.run([*cli, "gen", content.expression, "--out", path], capture_output=True, timeout=120)
        return f"gen {content.expression!r} exited {res.returncode}" if res.returncode else None
    if callable(content):
        content = content()
    if isinstance(content, str):
        content = _paths_in(content, paths)
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
    """Run a row with the command line `cli` of the CLI, its files written in `directory`: what it got wrong,
    and the wall seconds its command ran (None if no command ran)."""
    paths = {name: os.path.join(directory, name) for name in row.files}
    problems = [p for name, content in row.files.items() if (p := _write(paths[name], content, cli, paths))]
    if problems:
        return problems, None
    argv = [_paths_in(arg, paths) for arg in row.argv]
    cap = None if row.limit_kb is None else row.limit_kb * 1024
    preexec = None if cap is None else lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    start = time.perf_counter()
    with subprocess.Popen([*cli, *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=preexec) as proc:
        if row.stdout == CLOSED:
            proc.stdout.close()
        try:
            out, err = proc.communicate(timeout=row.timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            return [f"no exit within {row.timeout} s"], row.timeout
    seconds = time.perf_counter() - start
    err = err.decode("utf-8", "replace")
    if proc.returncode != row.exit:
        problems.append(f"exit {proc.returncode}, not {row.exit}")
    if len(err.splitlines()) != row.stderr_lines:
        problems.append(f"{len(err.splitlines())} stderr lines, not {row.stderr_lines}: {err[:300]!r}")
    if row.stderr not in err:
        problems.append(f"stderr does not hold {row.stderr!r}: {err[:300]!r}")
    if row.stdout not in (None, CLOSED):
        problems.append(_stdout_problem(row.stdout, out))
    return [p for p in problems if p], seconds


def pytest_generate_tests(metafunc):
    if "row" in metafunc.fixturenames:
        metafunc.parametrize("row", ROWS, ids=[row.id for row in ROWS])


def test_hostile_input(row, tmp_path):
    problems, _ = check(row, [sys.executable, "-m", "superkappa.cli"], str(tmp_path))
    assert not problems, "; ".join(problems)


def main(argv):
    if not argv:
        print(f"usage: {sys.argv[0]} SUPERKAPPA-COMMAND...", file=sys.stderr)
        return 2
    failed = 0
    for row in ROWS:
        with tempfile.TemporaryDirectory() as directory:
            problems, seconds = check(row, argv, directory)
        failed += bool(problems)
        ran = "" if seconds is None else f" {seconds:.2f} s of {row.timeout:g}"
        print(f"{'FAIL' if problems else 'ok'} {row.id}{ran}" + "".join(f"\n    {p}" for p in problems), flush=True)
    print(f"{len(ROWS) - failed} of {len(ROWS)} rows pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
