"""Sweep benchmark for iseki: end-to-end metrics, or per-layer metrics
from a traced run, for one seeded workload.

    python3 perfbench/run.py --workload acceptance --seed 1 --seconds 60 --trace 0

Run it from the repository root.  It writes the workload's documents
(``inputs.py``) under ``.bench_build/perfbench/`` and then, for
``--seconds`` seconds, runs samples: each sample is a fresh Python
process (``sample.py``) that imports iseki from ``src/``, ingests the
documents and calls ``iseki.sweep.sweep`` as ``iseki sweep`` does, so
every ``lru_cache`` starts cold.  The loop is closed: the next sample
starts when the previous one has ended.

``--trace 0`` alternates samples at ``jobs=1`` and ``jobs=2`` (the two
cores of the reference machine; never more workers than that) and
reports the end-to-end metrics, which are CPU-time based; wall-clock
figures are printed alongside.  ``--trace 1`` adds a traced ``jobs=1``
sample to each round and reports the per-layer metrics (``tracer.py``),
the wall-clock figures among them.  Timings are medians over the run's
samples.

Every run checks the program's outputs: report bytes are identical
across all samples and worker counts, per-oracle tallies equal the
recorded seed-0 tallies in ``expected.json``, and every t0, t1,
connectedness, disconnection and contraction witness re-checks through
``iseki.verify``.  Every metric is printed by name and unit on stderr;
the last line of stdout is the JSON result.  Exit code 1 means a check
failed, 2 means the benchmark could not run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

from inputs import WORKLOADS, write_inputs
from tracer import ROOT

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
WORK = REPO / ".bench_build" / "perfbench"
PARALLEL_JOBS = 2
SAMPLE_TIMEOUT_S = 60

END_TO_END = {
    "cpu_s": "s",
    "cpu_s.jobs2": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "checks_per_s": "1/s",
}
WALL = {"wall_s": "s", "wall_s.jobs2": "s", "setup_wall_s": "s"}
PER_LAYER = {
    "kernels.self_s": "s",
    "kernels.close_mask.calls": "count",
    "kernels.close_mask.self_s": "s",
    "kernels.ideal_masks.self_s": "s",
    "semiring.self_s": "s",
    "semiring.validate_semiring.calls": "count",
    "enumeration.self_s": "s",
    "enumeration.yield_ratio": "ratio",
    "ideals.self_s": "s",
    "ideals.sum_ideals.calls": "count",
    "ideals.product_ideals.calls": "count",
    "ideals.classify.calls": "count",
    "ideals.cache_hit_ratio": "ratio",
    "topology.self_s": "s",
    "topology.closed_family.builds": "count",
    "topology.closed_family.hit_ratio": "ratio",
    "topology.spectrum.calls": "count",
    "morphisms.self_s": "s",
    "morphisms.induced_map.calls": "count",
    "morphisms.induced_per_hom": "ratio",
    "sweep.self_s": "s",
    "sweep.phase.topology_s": "s",
    "sweep.phase.ideal_checks_s": "s",
    "sweep.phase.morphisms_s": "s",
    "sweep.phase.quotients_s": "s",
    "sweep.oracle_evaluations": "count",
    "sweep.oracle_failures": "count",
    "sweep.failure_share": "ratio",
    "serialize.self_s": "s",
    "serialize.semiring_from_json.calls": "count",
    "serialize.report_bytes": "B",
    "trace_overhead": "ratio",
    **WALL,
}
SAMPLE_KINDS = {
    "jobs1": {"jobs": 1},
    "jobs2": {"jobs": PARALLEL_JOBS},
    "traced": {"jobs": 1, "trace": True},
}
PHASES = {
    "topology": "sweep.topology_instance_report",
    "ideal_checks": "sweep.ideal_lattice_report",
    "morphisms": "sweep.morphism_report",
    "quotients": "sweep.quotient_report",
}


class SampleFailed(Exception):
    pass


def run_sample(files, enumerate_n, jobs, trace=False, check=False):
    """Run one sample process to completion and return its result."""
    cmd = [
        sys.executable,
        str(HERE / "sample.py"),
        *map(str, files),
        "--src",
        str(SRC),
        "--jobs",
        str(jobs),
        "--enumerate",
        ",".join(map(str, enumerate_n)),
    ]
    if trace:
        cmd.append("--trace")
    if check:
        cmd.append("--check")
    cmd += ["--t0", repr(time.perf_counter())]
    # The sample's pool workers share its new process group, so a
    # timeout stops them too.
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SampleFailed(f"sample timed out after {SAMPLE_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise SampleFailed(f"sample exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def measure(files, enumerate_n, seconds, kinds):
    """Run rounds of one sample of each kind, rotating their order, until
    the next round would end after ``seconds``.  The first untraced
    sample also re-checks the report's witnesses."""
    samples = {kind: [] for kind in kinds}
    checked = False
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        started = time.perf_counter()
        for i in range(len(kinds)):
            kind = kinds[(i + rounds) % len(kinds)]
            check = not checked and kind != "traced"
            samples[kind].append(
                run_sample(files, enumerate_n, check=check, **SAMPLE_KINDS[kind])
            )
            checked = checked or check
        rounds += 1
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return samples


def check_outputs(samples, expected):
    """Check every sample's output; return the problems found and the
    number of samples with a problem."""
    problems = []
    failed = 0
    flat = [s for group in samples.values() for s in group]
    reference = next(s["sha256"] for s in flat if "rejected_witnesses" in s)
    for s in flat:
        found = []
        if s["sha256"] != reference:
            found.append("report bytes differ from the first sample's")
        for key in ("tallies", "observations"):
            if s[key] != expected[key]:
                diff = sorted(
                    name
                    for name in set(s[key]) | set(expected[key])
                    if s[key].get(name) != expected[key].get(name)
                )
                found.append(f"{key} differ from the seed-0 {key}: {diff}")
        if s.get("rejected_witnesses"):
            found.append(f"iseki.verify rejects {s['rejected_witnesses']}")
        problems += [f"jobs={s['jobs']} sample: {p}" for p in found]
        failed += bool(found)
    return problems, failed


def wall_figures(samples):
    """Per-sample wall-clock values.  Printed with every run; on a VM whose
    hypervisor steals a varying share of CPU time they spread too widely
    to be bounded, so they are recorded among the per-layer metrics."""
    jobs1, jobs2 = samples["jobs1"], samples["jobs2"]
    return {
        "wall_s": [s["wall_s"] for s in jobs1],
        "wall_s.jobs2": [s["wall_s"] for s in jobs2],
        "setup_wall_s": [s["setup_s"] for s in jobs1 + jobs2],
    }


def end_to_end_metrics(samples):
    """Per-sample values of each end-to-end metric (all CPU-time based)."""
    jobs1, jobs2 = samples["jobs1"], samples["jobs2"]
    return {
        "cpu_s": [s["cpu_s"] for s in jobs1],
        "cpu_s.jobs2": [s["cpu_s"] for s in jobs2],
        "setup_s": [s["setup_cpu_s"] for s in jobs1 + jobs2],
        "peak_rss_mb": [s["peak_rss_mb"] for s in jobs2],
        "checks_per_s": [s["evaluations"] / s["cpu_s"] for s in jobs1],
    }


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(samples):
    """Per-layer metrics: counts from the first traced sample (they must
    repeat exactly), times per traced sample."""
    problems = []
    traced = samples["traced"]
    traces = [s["trace"] for s in traced]
    calls = [{k: v["calls"] for k, v in t["spans"].items()} for t in traces]
    if any(c != calls[0] for c in calls):
        problems.append("call counts differ between traced samples")
    for s, t in zip(traced, traces):
        root = t["spans"][ROOT]["total_s"]
        gap = sum(t["layers"].values()) - root
        if abs(gap) > 1e-6 * root:
            problems.append(f"layer self times miss the root span by {gap:.3g}s")
        if s["wall_s"] > root:
            problems.append("the root span does not cover the timed sweep")

    def span(key, field="calls", trace=None):
        return (trace or traces[0])["spans"].get(key, {}).get(field, 0)

    def timed(fn):
        return [fn(t) for t in traces]

    first = traces[0]
    sample = traced[0]
    checked = next(s for s in samples["jobs1"] + samples["jobs2"] if "rejected_witnesses" in s)
    ideal_caches = first["caches"]["ideals"]
    hits = sum(h for h, _ in ideal_caches)
    lookups = sum(h + m for h, m in ideal_caches)
    cf_hits, cf_misses = first["caches"]["closed_family"]
    untraced_wall = median([s["wall_s"] for s in samples["jobs1"]])
    metrics = {
        "kernels.close_mask.calls": span("kernels.close_mask"),
        "kernels.close_mask.self_s": timed(lambda t: span("kernels.close_mask", "self_s", t)),
        "kernels.ideal_masks.self_s": timed(lambda t: span("kernels.ideal_masks", "self_s", t)),
        "semiring.validate_semiring.calls": span("semiring.validate_semiring"),
        "enumeration.yield_ratio": _ratio(
            span("enumeration.enumerate_semirings", "yields"),
            first["edges"].get("enumeration.enumerate_semirings>kernels.distributes", 0),
        ),
        "ideals.sum_ideals.calls": span("ideals.sum_ideals"),
        "ideals.product_ideals.calls": span("ideals.product_ideals"),
        "ideals.classify.calls": span("ideals.classify"),
        "ideals.cache_hit_ratio": _ratio(hits, lookups),
        "topology.closed_family.builds": cf_misses,
        "topology.closed_family.hit_ratio": _ratio(cf_hits, cf_hits + cf_misses),
        "topology.spectrum.calls": span("topology.spectrum"),
        "morphisms.induced_map.calls": span("morphisms.induced_map"),
        "morphisms.induced_per_hom": _ratio(
            span("morphisms.induced_map"), sample["homomorphisms"]
        ),
        "sweep.oracle_evaluations": sample["evaluations"],
        "sweep.oracle_failures": sample["oracle_failures"],
        "sweep.failure_share": _ratio(
            sample["oracle_failures"] + len(checked["rejected_witnesses"]),
            sample["evaluations"],
        ),
        "serialize.semiring_from_json.calls": span("serialize.semiring_from_json"),
        "serialize.report_bytes": sample["report_bytes"],
        "trace_overhead": [s["wall_s"] / untraced_wall for s in traced],
        **wall_figures(samples),
    }
    for layer in ("kernels", "semiring", "enumeration", "ideals", "topology",
                  "morphisms", "sweep", "serialize"):
        metrics[f"{layer}.self_s"] = timed(lambda t: t["layers"].get(layer, 0.0))
    for phase, name in PHASES.items():
        metrics[f"sweep.phase.{phase}_s"] = timed(lambda t: span(name, "total_s", t))
    return metrics, problems


def describe(values):
    """Median of a metric's per-sample values, with quartiles and count."""
    if not isinstance(values, list):
        return values, ""
    if len(values) < 2:
        return values[0], "  (1 sample)"
    q1, _, q3 = quantiles(values, n=4)
    return median(values), f"  (median of {len(values)} samples, quartiles {q1:.4g}..{q3:.4g})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "iseki" / "__init__.py").is_file():
        print(f"perfbench: no iseki package under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]
    files = write_inputs(args.workload, args.seed, WORK / f"{args.workload}-seed{args.seed}")

    kinds = ["traced", "jobs1", "jobs2"] if args.trace else ["jobs1", "jobs2"]
    try:
        samples = measure(files, workload["enumerate_n"], args.seconds, kinds)
    except SampleFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    problems, failed = check_outputs(samples, expected)
    if args.trace:
        figures, trace_problems = layer_metrics(samples)
        problems += trace_problems
        if trace_problems:
            failed = max(failed, 1)
        units = PER_LAYER
    else:
        figures = {**end_to_end_metrics(samples), **wall_figures(samples)}
        units = {**END_TO_END, **WALL}

    first = samples["jobs1"][0]
    counts = ", ".join(f"{len(v)} {k}" for k, v in samples.items())
    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
        f"samples {counts}; {first['evaluations']} oracle evaluations and "
        f"{first['oracle_failures']} universal oracle failures per sample "
        f"(expected {expected['oracle_failures']})",
        file=sys.stderr,
    )
    metrics = {}
    for name, unit in units.items():
        metrics[name], detail = describe(figures[name])
        print(f"  {name} = {metrics[name]:.6g} {unit}{detail}", file=sys.stderr)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)

    attempted = sum(len(v) for v in samples.values())
    reported = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": reported[name]} for name in reported
        },
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
