"""A seeded mutation pass over valid inputs, run in-process through `cli.main`.

Each valid graph6 file, JSON edge list, manifest and expression is truncated,
has a byte replaced, or gets deep nesting or a long run of digits inserted.
Whatever the mutation, the CLI must answer as it does for any input: exit
0-3, with at most one stderr line. Exit 4 would call a malformed input a
fault of the program.
"""

import contextlib
import io
import json
import random

from superkappa import cli

SEED = 20261020
ROUNDS = 16  # mutations of each kind of each valid input

_MANIFEST = json.dumps({"instances": [
    {"id": "a", "theorem": "T3.9", "graph": {"expr": "cycle(3)"}},
    {"id": "b", "theorem": "T3.7", "graph": {"expr": "cycle(5)"}, "n": 6, "budget": 100},
    {"id": "c", "check": "decomposition", "graph": {"expr": "kbip(2,3)"}, "n": 3},
    {"id": "d", "theorem": "T3.5", "graph": {"random_bipartite": {"m": 2, "n": 3, "p": 0.5, "seed": 1}}, "n": 3},
    {"id": "e", "theorem": "T2.1", "graph": {"graph6": "Dhc"}, "n": 3},
]})

# (argv, with {} where the mutated text goes: a file's path, or the expression itself; the valid text)
VALID = [
    (["kappa", "{}"], "Dhc\n"),  # C5
    (["super-kappa", "{}"], ">>graph6<<IheA@GUAo\n"),  # Petersen
    (["kappa", "{}"], '{"edges":[[0,1],[0,4],[1,2],[2,3],[3,4]],"n":5}\n'),
    (["super-kappa", "{}"], '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]], "labels": ["a", "b", "c", "d"]}'),
    (["suite", "--manifest", "{}"], _MANIFEST),
    (["gen", "{}"], "cycle(3) x complete(2)"),
    (["gen", "{}"], "tilde(kbip(2,3), 3) x cycle(3)"),
    (["verify", "--theorem", "T3.7", "--expr", "{}", "--n", "6"], "cycle(5)"),
]


def _mutations(rng, text):
    """ROUNDS mutants of each kind."""
    for _ in range(ROUNDS):
        at = rng.randrange(len(text) + 1)
        yield text[: rng.randrange(len(text))]  # truncated
        yield text[:at] + chr(rng.randrange(1, 256)) + text[at + 1 :]  # one character replaced
        yield text[:at] + rng.choice(["[", "{", "tilde(", "("]) * rng.choice([50, 1000, 100000]) + text[at:]  # nesting
        yield text[:at] + rng.choice("0123456789") * rng.choice([7, 40, 5000]) + text[at:]  # a long integer


def _args(argv, text, path):
    """argv with `text` in place of {}: an expression itself, or else written to the file at `path`."""
    if argv[0] == "gen" or "--expr" in argv:
        return [a.replace("{}", text) for a in argv]
    path.write_bytes(text.encode("latin-1"))  # a replaced character is one byte, UTF-8 or not
    return [a.replace("{}", str(path)) for a in argv]


def _run(argv):
    """The exit code and stderr of `cli.main`; a usage error exits through argparse, as the console script does."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def test_no_mutation_of_a_valid_input_is_a_fault(tmp_path):
    rng = random.Random(SEED)
    path = tmp_path / "input"
    faults, cases = [], 0
    for argv, valid in VALID:
        assert _run(_args(argv, valid, path)) == (0, ""), argv
        for mutant in _mutations(rng, valid):
            code, err = _run(_args(argv, mutant, path))
            cases += 1
            if code not in (0, 1, 2, 3) or len(err.splitlines()) > 1:
                faults.append((argv[0], mutant[:120], code, err[:200]))
    assert cases == len(VALID) * 4 * ROUNDS
    assert not faults, faults
