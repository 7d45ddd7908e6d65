"""One benchmark sample: a fresh process that ingests the workload's
documents and runs ``iseki.sweep.sweep`` once, as ``iseki sweep`` does.

    python perfbench/sample.py FILES... --src SRC --jobs J --t0 T
        [--enumerate N,...] [--trace] [--check]

``--t0`` is the parent's ``time.perf_counter()`` just before it started
this process (the monotonic clock is shared between processes), so
``setup_s`` covers interpreter start, ``import iseki`` and the ingest;
``setup_cpu_s`` is the CPU time the process used over the same span.
``wall_s`` and ``cpu_s`` run from the ``sweep`` call until the canonical
report text exists; ``cpu_s`` includes the pool workers, which have been
reaped by then.  Prints one JSON object on stdout.
"""

import argparse
import hashlib
import io
import json
import resource
import sys
import time
from pathlib import Path


def _cpu_seconds(who=(resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)):
    """User+sys CPU seconds of this process and its reaped children."""
    return sum(
        usage.ru_utime + usage.ru_stime for usage in map(resource.getrusage, who)
    )


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _counts(tallies):
    return {
        name: [entry["instances"], entry["passes"], entry["failures"]]
        for name, entry in tallies.items()
    }


def _rejected_witnesses(report, semirings):
    """Re-check every t0, t1, connectedness, disconnection and contraction
    witness in the report through ``iseki.verify``; return the rejected
    ones and the number checked."""
    from iseki import verify

    rejected = []
    checked = 0
    for rep in report["topology"]:
        if "skipped" in rep:
            continue
        s = semirings[rep["semiring"]]
        points = rep["points"]
        where = f"{rep['semiring']}/{rep['class']}"
        checks = []
        if rep["t0_witness"] is not None:
            checks.append(("t0", verify.verify_t0_witness(s, points, rep["t0_witness"])))
        if rep["t1_witness"] is not None:
            checks.append(("t1", verify.verify_t1_witness(s, points, rep["t1_witness"])))
        if rep["connected_witness"] is not None:
            checks.append(
                (
                    "connected",
                    verify.verify_connected_false_witness(
                        s, points, rep["connected_witness"]
                    ),
                )
            )
        if rep["disconnection_witness"] is not None:
            checks.append(
                (
                    "disconnection",
                    verify.verify_disconnection_witness(
                        s, points, rep["disconnection_witness"]
                    ),
                )
            )
        for kind, ok in checks:
            checked += 1
            if not ok:
                rejected.append(f"{kind}:{where}")
    for rep in report["morphisms"]["reports"]:
        if rep["contraction"]:
            continue
        checked += 1
        witness = rep["contraction_witness"]
        ok = verify.verify_contraction_witness(
            semirings[rep["source"]],
            semirings[rep["target"]],
            rep["hom"],
            witness["point"],
            witness["preimage"],
        )
        if not ok:
            rejected.append(f"contraction:{rep['source']}->{rep['target']}")
    return rejected, checked


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("files", nargs="+")
    parser.add_argument("--src", required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--enumerate", default="", help="comma list of orders")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    enumerate_n = [int(n) for n in args.enumerate.split(",") if n]

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import iseki
    import iseki.serialize
    import iseki.sweep

    if src not in Path(iseki.__file__).resolve().parents:
        raise SystemExit(f"imported iseki from {iseki.__file__}, not from {src}")
    corpus = [iseki.serialize.ingest(path) for path in args.files]
    setup_s = time.perf_counter() - args.t0
    setup_cpu_s = _cpu_seconds((resource.RUSAGE_SELF,))

    tracer = None
    if args.trace:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
        root = tracer.open(ROOT)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    report = iseki.sweep.sweep(
        corpus=corpus, enumerate_n=enumerate_n, jobs=args.jobs, log=io.StringIO()
    )
    text = iseki.serialize.canonical_json(report)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    if tracer is not None:
        tracer.close(root)

    tallies = _counts(report["tallies"])
    observations = _counts(report["observations"])
    out = {
        "jobs": args.jobs,
        "setup_s": setup_s,
        "setup_cpu_s": setup_cpu_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": _peak_rss_mb(),
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "report_bytes": len(text.encode("utf-8")),
        "tallies": tallies,
        "observations": observations,
        "evaluations": sum(c[0] for c in tallies.values())
        + sum(c[0] for c in observations.values()),
        "oracle_failures": report["failures"],
        "homomorphisms": report["morphisms"]["homs"],
    }
    if args.check:
        semirings = {s.id: s for s in corpus}
        for n in enumerate_n:
            semirings.update(
                (s.id, s) for s in iseki.enumerate_semirings(n, up_to_iso=True)
            )
        out["rejected_witnesses"], out["checked_witnesses"] = _rejected_witnesses(
            report, semirings
        )
    if tracer is not None:
        from iseki import ideals, topology

        def cache(fn):
            while not hasattr(fn, "cache_info"):
                fn = fn.__wrapped__  # the tracer's wrapper around an lru_cache
            info = fn.cache_info()
            return [info.hits, info.misses]

        out["trace"] = tracer.summary()
        out["trace"]["caches"] = {
            "ideals": [
                cache(getattr(ideals, name))
                for name in (
                    "_ideal_masks_all",
                    "_proper_ideal_masks",
                    "prime_ideal_masks",
                    "maximal_ideal_masks",
                    "classified_ideals",
                )
            ],
            "closed_family": cache(topology._closed_family_cached),
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
