"""Checks of the benchmark itself on tiny inputs: tracing changes no
verdict, reaches every layer, repeats its counts, and seeds behave."""

import signal
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from superkappa import connectivity, construct, suite, theorems, tightness  # noqa: E402

ALL_LAYERS = set(spans.LAYERS)
TINY_KAPPA = ("t21-00-n2", "t31-00", "t32-00", "t33-00", "t34-00-n5", "t39-k1", "d35-kbip23-n3")
TINY_SUPER = ("t35-c6-n3", "l22-c6-n3", "c310-c3-n6", "t36-c6-n6")
# layers each tiny workload must reach; tightness never resolves a manifest
EXPECTED = {
    "kappa-products": ALL_LAYERS - {"tightness"},
    "super-kappa-products": ALL_LAYERS - {"tightness"},
    "tightness-boundary": {"tightness", "theorems", "connectivity", "construct", "graph", "formats"},
    "acceptance-jobs2": ALL_LAYERS - {"tightness"},
}


def tiny_inputs(workload, tmp_path):
    inputs = workloads.prepare(
        "kappa-products" if workload == "acceptance-jobs2" else workload, 0, ROOT, tmp_path
    )
    if workload == "tightness-boundary":
        inputs.searches = [("L2.2", range(3, 4), 1), ("T3.6", range(6, 7), 3)]
        return inputs
    keep = TINY_SUPER if workload == "super-kappa-products" else TINY_KAPPA
    by_id = {e["id"]: e for e in workloads.acceptance_entries(ROOT, 0)}
    inputs.entries = [by_id[i] for i in keep]
    if workload == "acceptance-jobs2":
        inputs.workload = workload
        inputs.entries += [by_id[i] for i in TINY_SUPER]
        inputs.manifest_path = str(tmp_path / "tiny.json")
        inputs.report_path = str(tmp_path / "report.json")
        suite.write_run_report(inputs.manifest_path, {"instances": inputs.entries})
    return inputs


def traced_pass(tracer, inputs):
    tracer.install()
    try:
        result = workloads.run_pass(inputs)
    finally:
        tracer.uninstall()
    return result, tracer.take()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_keeps_verdicts_and_reaches_every_layer(workload, tmp_path):
    inputs = tiny_inputs(workload, tmp_path)
    plain = workloads.run_pass(inputs)
    tracer = spans.Tracer()
    first, first_spans = traced_pass(tracer, inputs)
    second, second_spans = traced_pass(tracer, inputs)

    assert workloads.check(inputs, plain, {"tightness-boundary": {}}) == []
    assert workloads.outcomes(first) == workloads.outcomes(plain)
    assert workloads.outcomes(second) == workloads.outcomes(plain)
    assert EXPECTED[workload] <= spans.layers_seen(first_spans)

    counts = [
        {k: v for k, (v, unit) in spans.layer_metrics(s).items() if unit != "s"}
        for s in (first_spans, second_spans)
    ]
    assert counts[0] == counts[1]


def test_every_binding_is_patched_and_restored():
    originals = {
        "suite.verify": suite.verify,
        "tightness.direct_product": tightness.direct_product,
        "theorems.direct_product": theorems.direct_product,
        "construct.direct_product": construct.direct_product,
        "Graph.induced_subgraph": construct.Graph.induced_subgraph,
        "connectivity.vertex_connectivity": connectivity.vertex_connectivity,
    }
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert suite.verify is theorems.verify is not originals["suite.verify"]
        assert tightness.direct_product is construct.direct_product
        assert theorems.direct_product is construct.direct_product
        assert construct.direct_product is not originals["construct.direct_product"]
        assert construct.Graph.induced_subgraph is not originals["Graph.induced_subgraph"]
        construct.double_cover(construct.cycle(3))
    finally:
        tracer.uninstall()
    assert [s[2] for s in tracer.take()] == ["construct.direct_product"]
    assert suite.verify is originals["suite.verify"]
    assert tightness.direct_product is originals["tightness.direct_product"]
    assert construct.Graph.induced_subgraph is originals["Graph.induced_subgraph"]
    assert connectivity.vertex_connectivity is originals["connectivity.vertex_connectivity"]


def test_seeds_redraw_inputs_and_keep_their_shape():
    default = workloads.acceptance_entries(ROOT, workloads.DEFAULT_SEED)
    other = workloads.acceptance_entries(ROOT, 7)
    assert other == workloads.acceptance_entries(ROOT, 7)
    assert other != default
    assert [e["id"] for e in other] == [e["id"] for e in default]
    shared = {}
    for old, new in zip(default, other):
        (kind, desc), = old["graph"].items()
        if kind.startswith("random_"):
            assert {k: v for k, v in new["graph"][kind].items() if k != "seed"} == {
                k: v for k, v in desc.items() if k != "seed"}
            assert shared.setdefault(desc["seed"], new["graph"][kind]["seed"]) == new["graph"][kind]["seed"]
        else:
            assert new == old
    assert workloads.search_inputs(7) == workloads.search_inputs(7)
    assert workloads.search_inputs(7) != workloads.search_inputs(workloads.DEFAULT_SEED)
    assert [s for _, _, s in workloads.search_inputs(workloads.DEFAULT_SEED)] == [1, 2, 3, 4, 5]


def test_benchmark_json_lists_every_per_layer_metric():
    import json

    with open(ROOT / "BENCHMARK.json") as fh:
        listed = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    printed = {k: unit for k, (_, unit) in spans.layer_metrics([]).items()}
    printed.update({"suite.pool.busy_frac": "ratio", "trace.overhead_s": "s"})
    assert listed == printed


def test_refutation_stands_only_on_independent_evidence():
    # a redrawn T3.4 entry: G has 8 vertices and kappa(G x C5) is 4
    entry = {"id": "t34-03-n5", "theorem": "T3.4", "n": 5, "graph": {
        "random_nonbipartite": {"n": 8, "p": 0.5, "seed": 688093993, "min_delta": 2}}}
    doc = {"theorem_id": "T3.4", "witness": None, "actual": 4}
    assert workloads.refutation_stands(entry, doc)
    assert not workloads.refutation_stands(entry, {**doc, "actual": 3})
    assert not workloads.refutation_stands(entry, {**doc, "theorem_id": "T3.2"})


def test_host_speed_sampler_brackets_every_call(tmp_path):
    inputs = tiny_inputs("kappa-products", tmp_path)
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler() as sampler:
        result = workloads.run_pass(inputs, sampler.gap, sampler.clock)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.marks) == len(result.call_ms) + 1 == len(inputs.entries) + 1
    assert result.wall_s == pytest.approx(sum(result.call_ms) / 1000)
    scales = sampler.call_scales()
    assert len(scales) == len(result.call_ms) and all(k > 0 for k in scales)
    # a call whose samples say the kernel ran twice as slow counts half
    ref = hostspeed.REFERENCE_S
    sampler = hostspeed.Sampler()
    sampler.marks = [0, hostspeed.GAP]
    sampler.samples = [ref] + [2 * ref] * (2 * hostspeed.GAP - 1)
    assert sampler.call_scales() == [0.5]
