"""superkappa benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One closed-loop caller in this
process repeats passes over the workload's inputs for S seconds (and at
least a minimum number of passes). With --trace 0 it prints the end-to-end
metrics, measured untraced; with --trace 1 it alternates untraced and
traced passes and prints the per-layer metrics of the traced passes plus
the tracing overhead. End-to-end times are scaled to a reference host
speed read around and during the calls (see hostspeed.py). The last line of
stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it records the run's environment and sample counts.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TMP = ROOT / ".perfbench_tmp"
SETUP_SAMPLES = 7  # this process plus fresh processes that only set up
MIN_PASSES = 3
# tightness-boundary draws differ by up to half a pass: a rare costly
# T3.7/T3.8 probe. The median of four or more draws stays off that tail.
TIGHTNESS_PASSES = 4
P90_SAMPLES = 100  # ten samples beyond the 90th percentile
PASS_LIMIT_S = 120  # start no pass after this, whatever the sample floor says


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def git_sha():
    """HEAD of the checkout's own repository, read from its files."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    cpu = platform.machine() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "seed": seed,
    }


def min_passes(inputs, traced):
    """Untraced passes a run needs: enough per-entry samples for the 90th
    percentile on the --jobs 1 workloads, enough draws on tightness-boundary,
    and two of each kind when tracing."""
    if traced:
        return 2
    if inputs.workload in ("kappa-products", "super-kappa-products"):
        return max(MIN_PASSES, math.ceil(P90_SAMPLES / len(inputs.entries)))
    if inputs.workload == "tightness-boundary":
        return TIGHTNESS_PASSES
    return MIN_PASSES


def timed_pass(workloads, inputs):
    """One pass, with the host-speed kernel timed around and during its
    calls; the result carries each call's scale."""
    with hostspeed.Sampler() as sampler:
        sampler.take(hostspeed.BLOCK)
        result = workloads.run_pass(inputs, sampler.gap, sampler.clock)
        sampler.take(hostspeed.BLOCK)
    result.call_scale = sampler.call_scales()
    return result


def scaled_wall_s(result):
    return sum(ms * k for ms, k in zip(result.call_ms, result.call_scale)) / 1000


def typical_pass_s(results):
    """Scaled time of a typical pass: the sum over the calls of a pass of
    each call's median time across passes. Every pass makes the same calls
    (on other draws), so one costly draw or one slow stretch of the host
    moves only the calls it touched, not a whole pass."""
    per_call = zip(*(
        [ms * k for ms, k in zip(r.call_ms, r.call_scale)] for r in results))
    return sum(statistics.median(ms) for ms in per_call) / 1000


def scaled_instance_ms(workloads, inputs, result):
    """Scaled time of each manifest entry or search of a pass. Through the
    pool these are the verdicts' own run times, scaled as the suite call."""
    if inputs.jobs > 1:
        return [ms * result.call_scale[0] for ms in workloads.verdict_ms(result)]
    return [ms * k for ms, k in zip(result.call_ms, result.call_scale)]


def measure(workloads, first, seconds, draw, tracer=None):
    """Repeat passes until `seconds` have gone and the pass floor is met.

    Untraced, pass i runs on `draw(i)`. With a tracer, passes alternate
    untraced and traced, all on `first`. Returns (inputs, result, spans)
    per pass; spans is None for an untraced pass.
    """
    passes = []
    start = time.perf_counter()
    floor = min_passes(first, tracer is not None)
    n_plain = n_traced = 0
    while True:
        if tracer is not None and n_traced < n_plain:
            tracer.install()
            try:
                result = timed_pass(workloads, first)
            finally:
                tracer.uninstall()
            passes.append((first, result, tracer.take()))
            n_traced += 1
        else:
            inputs = draw(len(passes)) if passes and tracer is None else first
            passes.append((inputs, timed_pass(workloads, inputs), None))
            n_plain += 1
        elapsed = time.perf_counter() - start
        enough = n_plain >= floor and (tracer is None or n_traced >= floor)
        if (enough and elapsed >= seconds) or elapsed >= PASS_LIMIT_S:
            return passes


def scaled_setup(own):
    """Set-up time of this process, scaled by the host speed read after it."""
    return own * hostspeed.scale([hostspeed.sample() for _ in range(hostspeed.BLOCK)])


def setup_samples(args, own):
    """Scaled set-up time of this process and of fresh processes that only
    set up."""
    samples = [own]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mb(with_children):
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024


def end_to_end(workloads, passes):
    """passes: (inputs, result) of the untraced passes. Times are scaled."""
    samples = [ms for i, p in passes for ms in scaled_instance_ms(workloads, i, p)]
    wall = typical_pass_s([p for _, p in passes])
    return {
        "wall_s": (wall, "s"),
        "instance_ms_p50": (statistics.median(samples), "ms"),
        "instance_ms_p90": (
            statistics.quantiles(samples, n=10, method="inclusive")[-1], "ms"),
        "items_per_s": (statistics.median(workloads.items(i, p) for i, p in passes) / wall, "1/s"),
        "peak_rss_mb": (peak_rss_mb(passes[0][0].jobs > 1), "MB"),
    }


def per_layer(workloads, spans_mod, plain, traced):
    """Per-layer metrics: median over traced passes for times; counts must
    repeat exactly across them. Returns (metrics, determinism failures)."""
    per_pass = [spans_mod.layer_metrics(spans) for _, _, spans in traced]
    failures = []
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [m[name][0] for m in per_pass]
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
            continue
        if len(set(values)) != 1:
            failures.append(f"{name} differs between traced passes: {values}")
        metrics[name] = (values[0], unit)
    metrics["suite.pool.busy_frac"] = (
        statistics.median(workloads.busy_s(p) / (p.wall_s * i.jobs) for i, p, _ in plain),
        "ratio",
    )
    metrics["trace.overhead_s"] = (
        typical_pass_s([p for _, p, _ in traced]) - typical_pass_s([p for _, p, _ in plain]), "s")
    return metrics, failures


def write_spans(path, env, spans):
    with open(path, "w") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for sid, parent, name, start, end, info in spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end, "info": info}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    manifest = ROOT / "manifests" / "acceptance.json"
    if not (src / "superkappa" / "__init__.py").is_file() or not manifest.is_file():
        print(f"perfbench: no superkappa source tree under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans as spans_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: workload must be one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    inputs = workloads.prepare(args.workload, args.seed, ROOT, TMP)
    own_setup = time.perf_counter() - _T0
    if args.setup_only:
        print(scaled_setup(own_setup))
        return 0
    own_setup = scaled_setup(own_setup)

    with open(HERE / "pinned.json") as fh:
        pinned = json.load(fh)
    tracer = spans_mod.Tracer() if args.trace else None
    passes = measure(
        workloads, inputs, args.seconds,
        lambda i: workloads.prepare(args.workload, args.seed, ROOT, TMP, draw=i), tracer,
    )
    plain = [p for p in passes if p[2] is None]
    traced = [p for p in passes if p[2] is not None]

    failures = []  # failed items
    problems = []  # wrong results that are not a single item's
    reference = {}
    for inputs, result, spans in passes:
        failures += workloads.check(inputs, result, pinned)
        seen = reference.setdefault(inputs.draw, workloads.outcomes(result))
        if workloads.outcomes(result) != seen:
            problems.append(
                f"{'traced' if spans else 'untraced'} pass on draw {inputs.draw} "
                "gave other outcomes than the first pass on it")
    env = environment(args.seed)
    if args.trace:
        metrics, gate = per_layer(workloads, spans_mod, plain, traced)
        problems += gate
        TMP.mkdir(exist_ok=True)
        write_spans(TMP / f"spans-{args.workload}-seed{args.seed}.jsonl", env, traced[-1][2])
    else:
        metrics = end_to_end(workloads, [(i, p) for i, p, _ in plain])
        metrics["setup_s"] = (statistics.median(setup_samples(args, own_setup)), "s")
    print(json.dumps({
        "env": env,
        "workload": args.workload,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "instance_samples": sum(
            len(scaled_instance_ms(workloads, i, p)) for i, p, _ in plain),
        "pass_wall_s": [round(p.wall_s, 4) for _, p, _ in passes],
        "pass_scaled_wall_s": [round(scaled_wall_s(p), 4) for _, p, _ in passes],
        "refuted": sorted({
            f"{entry_id}@draw{i.draw}"
            for i, p, _ in passes if i.entries for entry_id in workloads.refuted(i, p)
        }),
        "failures": (problems + failures)[:20],
    }))
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": sum(workloads.attempted(i) for i, _, _ in passes),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
