"""Benchmark workloads: inputs drawn from a seed, one timed pass, and the
output checks behind `failed`.

The default seed replays `manifests/acceptance.json` exactly and runs the
tightness searches with search seeds 1..5, in every pass. Any other seed
makes one draw per pass: draw i redraws, from (seed, i), the `seed` field of
every random graph descriptor (entries that shared a graph still share one)
and every search seed, and keeps everything else. Medians over passes then
average over several draws, so one costly draw does not set a run's figure.

Timed passes drive the library only through `suite.run_instance`,
`tightness.tightness_search` and `cli.main`, looked up on their modules at
call time so the tracer's patches apply. Checks outside the timed region
also use `theorems.replay_witness` and the exhaustive kappa oracle.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from superkappa import cli, connectivity, construct, suite, theorems, tightness

DEFAULT_SEED = 0
WORKLOADS = ("kappa-products", "super-kappa-products", "tightness-boundary", "acceptance-jobs2")
SUPER_KAPPA_THEOREMS = frozenset({"L2.2", "T3.5", "T3.6", "T3.7", "T3.8", "C3.10", "C3.11"})
# (target, first n, last n); every search uses MAX_PART_SIZE and SEARCH_BUDGET
SEARCHES = (("L2.2", 3, 5), ("T3.5", 3, 7), ("T3.6", 6, 8), ("T3.7", 6, 8), ("T3.8", 7, 9))
MAX_PART_SIZE = 4
SEARCH_BUDGET = 400
POOL_JOBS = 2
# constructions whose kappa a refuted value verdict reports
_KAPPA_OF = {
    "T2.1": lambda G, n: construct.tilde(G, G.is_bipartite(), n)[0],
    "T3.1": lambda G, n: construct.direct_product(G, construct.cycle(n)),
    "T3.3": lambda G, n: construct.direct_product(G, construct.cycle(n)),
    "T3.4": lambda G, n: construct.direct_product(G, construct.cycle(n)),
    "T3.9": lambda G, n: construct.double_cover(G),
}
ORACLE_SUBSETS = 10**6  # largest C(|V|, kappa) the exhaustive re-check scans


@dataclass
class Inputs:
    workload: str
    seed: int
    draw: int  # passes with the same draw have the same inputs
    entries: list = field(default_factory=list)  # acceptance workloads
    searches: list = field(default_factory=list)  # (target, n_range, search seed)
    manifest_path: str = ""
    report_path: str = ""

    @property
    def jobs(self):
        return POOL_JOBS if self.workload == "acceptance-jobs2" else 1


@dataclass
class PassResult:
    wall_s: float
    call_ms: list  # one sample per call the caller made
    results: list  # per item: verdict / report / exception
    exit_code: int | None = None
    printed: str = ""
    call_scale: list = field(default_factory=list)  # per call, see hostspeed.py


def acceptance_entries(root, seed, draw=0):
    with open(root / "manifests" / "acceptance.json") as fh:
        entries = json.load(fh)["instances"]
    if seed == DEFAULT_SEED:
        return entries
    rng = random.Random(f"acceptance:{seed}:{draw}")
    redrawn = {}
    out = []
    for entry in entries:
        entry = copy.deepcopy(entry)
        (kind, desc), = entry["graph"].items()
        if kind.startswith("random_"):
            key = (kind, desc["seed"])
            if key not in redrawn:
                redrawn[key] = rng.randrange(10**9)
            desc["seed"] = redrawn[key]
        out.append(entry)
    return out


def search_inputs(seed, draw=0):
    if seed == DEFAULT_SEED:
        seeds = range(1, len(SEARCHES) + 1)
    else:
        rng = random.Random(f"tightness:{seed}:{draw}")
        seeds = [rng.randrange(10**9) for _ in SEARCHES]
    return [
        (target, range(lo, hi + 1), s) for (target, lo, hi), s in zip(SEARCHES, seeds)
    ]


def prepare(workload, seed, root, tmp, draw=0):
    """Load or generate the inputs of one draw of a workload."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    draw = 0 if seed == DEFAULT_SEED else draw
    inputs = Inputs(workload=workload, seed=seed, draw=draw)
    if workload == "tightness-boundary":
        inputs.searches = search_inputs(seed, draw)
        return inputs
    entries = acceptance_entries(root, seed, draw)
    if workload == "kappa-products":
        entries = [e for e in entries if e.get("theorem") not in SUPER_KAPPA_THEOREMS]
    elif workload == "super-kappa-products":
        entries = [e for e in entries if e.get("theorem") in SUPER_KAPPA_THEOREMS]
    else:
        tmp.mkdir(parents=True, exist_ok=True)
        name = f"acceptance-seed{seed}-draw{draw}"
        inputs.manifest_path = str(tmp / f"{name}.json")
        inputs.report_path = str(tmp / f"{name}-report.json")
        with open(inputs.manifest_path, "w") as fh:
            json.dump({"name": name, "instances": entries}, fh)
    inputs.entries = entries
    return inputs


def run_pass(inputs, between=None, clock=time.perf_counter):
    """One timed pass over the workload's inputs. `between()`, if given, is
    called before each call and after the last, outside the timed region;
    calls are timed with `clock`. wall_s is the sum of the call times.
    Exceptions are kept as results, not raised."""
    between = between or (lambda: None)
    call_ms = []
    results = []
    exit_code = None
    out = io.StringIO()
    if inputs.report_path:
        Path(inputs.report_path).unlink(missing_ok=True)
    if inputs.workload == "acceptance-jobs2":
        argv = ["suite", "--manifest", inputs.manifest_path,
                "--jobs", str(inputs.jobs), "--out", inputs.report_path]
        between()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(out):
                exit_code = cli.main(argv)
        except Exception as exc:  # counted as failed items
            results = [exc] * len(inputs.entries)
        call_ms.append((clock() - t0) * 1000)
    elif inputs.workload == "tightness-boundary":
        for target, n_range, seed in inputs.searches:
            between()
            t0 = clock()
            try:
                results.append(tightness.tightness_search(
                    target, MAX_PART_SIZE, n_range, seed, SEARCH_BUDGET))
            except Exception as exc:
                results.append(exc)
            call_ms.append((clock() - t0) * 1000)
    else:
        for entry in inputs.entries:
            between()
            t0 = clock()
            try:
                results.append(suite.run_instance(entry))
            except Exception as exc:
                results.append(exc)
            call_ms.append((clock() - t0) * 1000)
    between()
    wall = sum(call_ms) / 1000
    if inputs.workload == "acceptance-jobs2" and not results:
        results = _report_results(inputs)
    return PassResult(wall, call_ms, results, exit_code, out.getvalue())


def _report_results(inputs):
    try:
        with open(inputs.report_path) as fh:
            report = json.load(fh)
        return report["results"]
    except (OSError, ValueError, KeyError) as exc:
        return [exc] * len(inputs.entries)


def _plain(result):
    """A verdict or report as JSON without its run time."""
    doc = result if isinstance(result, dict) else result.to_json()
    return {k: v for k, v in doc.items() if k != "runtime_ms"}


def outcomes(result_pass):
    """What must not change between a traced and an untraced pass."""
    return [
        repr(r) if isinstance(r, Exception) else _plain(r) for r in result_pass.results
    ]


def items(inputs, result_pass):
    """Work items of a pass: manifest entries, or boundary probes."""
    if inputs.workload == "tightness-boundary":
        return sum(
            r.instances_probed for r in result_pass.results if not isinstance(r, Exception)
        )
    return len(inputs.entries)


def verdict_ms(result_pass):
    """Run time the library reports for each verdict of a pass."""
    return [
        r["runtime_ms"] if isinstance(r, dict) else r.runtime_ms
        for r in result_pass.results
        if isinstance(r, (dict, theorems.TheoremVerdict))
    ]


def busy_s(result_pass):
    """Time the library reports spending inside verdicts."""
    return sum(verdict_ms(result_pass)) / 1000


def refutation_stands(entry, doc):
    """A refuted verdict is a right output only when its evidence holds
    independently: its witness cut replays, or the exhaustive subset oracle
    gives the same kappa of the constructed graph as the flow method did."""
    if doc["witness"] is not None:
        return theorems.replay_witness(doc["witness"])
    build = _KAPPA_OF.get(doc["theorem_id"])
    if build is None or not isinstance(doc["actual"], int):
        return False
    graph = build(suite.resolve_graph(entry["graph"])[0], entry.get("n"))
    if math.comb(graph.n, doc["actual"]) > ORACLE_SUBSETS:
        return False
    return connectivity.vertex_connectivity_exhaustive(graph) == doc["actual"]


def refuted(inputs, result_pass):
    """Ids of the entries this pass refuted."""
    return [
        entry["id"]
        for entry, r in zip(inputs.entries, result_pass.results)
        if not isinstance(r, Exception) and _plain(r)["verdict"] == theorems.REFUTED
    ]


def check(inputs, result_pass, pinned):
    """Return one message per failed item; [] when every output is right.

    Acceptance items: the default seed accepts only "confirmed". Other seeds
    also accept "hypotheses-not-met", and "refuted" when the refutation
    stands (see `refutation_stands`): redrawn instances can break a claim
    as encoded, and saying so is the checker's job. A raised exception, an
    indeterminate verdict or a refutation that does not stand fails.
    Tightness items: every search must be complete and every witness must
    replay; on the default seed the probe count and each record's
    conclusion_holds must equal the pinned values.
    """
    if inputs.workload == "tightness-boundary":
        return _check_searches(inputs, result_pass, pinned)
    allowed = {theorems.CONFIRMED}
    if inputs.seed != DEFAULT_SEED:
        allowed.add(theorems.HYP_NOT_MET)
    failures = []
    results = result_pass.results
    if len(results) != len(inputs.entries):
        return [f"{len(results)} results for {len(inputs.entries)} entries"] * len(inputs.entries)
    for entry, result in zip(inputs.entries, results):
        if isinstance(result, Exception):
            failures.append(f"{entry['id']}: raised {result!r}")
            continue
        doc = _plain(result)
        if doc["instance"].get("id") != entry["id"]:
            failures.append(f"{entry['id']}: result is for {doc['instance'].get('id')}")
        elif doc["verdict"] not in allowed and not (
            inputs.seed != DEFAULT_SEED
            and doc["verdict"] == theorems.REFUTED
            and refutation_stands(entry, doc)
        ):
            failures.append(f"{entry['id']}: {doc['verdict']}")
    if inputs.workload == "acceptance-jobs2" and not failures:
        expected = "".join(
            f"{e['id']}: {r['theorem_id']} {r['verdict']}\n"
            for e, r in zip(inputs.entries, results)
        )
        refutes = any(r["verdict"] == theorems.REFUTED for r in results)
        exit_code = cli.EXIT_WITNESS if refutes else cli.EXIT_OK
        if result_pass.exit_code != exit_code or result_pass.printed != expected:
            failures.append(f"suite exit code {result_pass.exit_code} or output differs")
    return failures


def _check_searches(inputs, result_pass, pinned):
    failures = []
    expected = pinned["tightness-boundary"] if inputs.seed == DEFAULT_SEED else {}
    for (target, _, _), report in zip(inputs.searches, result_pass.results):
        if isinstance(report, Exception):
            failures.append(f"{target}: raised {report!r}")
            continue
        if not report.complete:
            failures.append(f"{target}: search incomplete")
            continue
        bad = [w for w in report.witnesses if not theorems.replay_witness(w.witness)]
        if bad:
            failures.append(f"{target}: {len(bad)} witnesses do not replay")
            continue
        holds = [r.conclusion_holds for r in report.records]
        want = expected.get(target)
        if want and (report.instances_probed != want["probes"] or holds != want["conclusion_holds"]):
            failures.append(f"{target}: probes or conclusions differ from the pinned values")
    return failures


def attempted(inputs):
    return len(inputs.searches) if inputs.workload == "tightness-boundary" else len(inputs.entries)
