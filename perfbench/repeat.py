"""Run the sweep benchmark over several workloads and seeds, print every
metric by name and unit with its median and spread, and optionally save
the summary as a baseline.

    python3 perfbench/repeat.py --seeds 1-10 --seconds 60 --trace 0 \\
        [--workloads acceptance,enumerate4] [--out FILE]

Spread is the distance between the first and third quartile of a
metric's per-run values (``statistics.quantiles(values, n=4)``) as a
share of their median.  Runs one ``run.py`` at a time; exit code 1 if
any run failed its correctness check or did not finish.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(values):
    out = {"median": statistics.median(values), "runs": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / out["median"] if out["median"] else 0.0)
    return out


def main():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        benchmark = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in benchmark["workloads"])
    )
    parser.add_argument("--seeds", type=seed_list, default="1-10")
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    ok = True
    summary = {}
    for workload in args.workloads.split(","):
        per_metric = {}
        units = {}
        for seed in args.seeds:
            cmd = [
                sys.executable,
                str(HERE / "run.py"),
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                ok = False
                print(f"{workload} seed {seed}: FAILED\n{proc.stderr}", file=sys.stderr)
                continue
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {}
        for name, values in per_metric.items():
            stats = summarize(values)
            summary[workload][name] = {"unit": units[name], **stats, "values": values}
            spread = f"  spread {stats['spread']:.3f}" if "spread" in stats else ""
            print(f"{workload} {name} = {stats['median']:.6g} {units[name]}"
                  f" (median of {stats['runs']} runs){spread}")
    if args.out:
        # Merge, so that runs of different workloads or trace modes can
        # share one baseline file.
        out = Path(args.out)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        doc["machine"] = (
            f"{platform.machine()}, {os.cpu_count()} cores, "
            f"{platform.python_implementation()} {platform.python_version()}"
        )
        section = doc.setdefault(f"trace{args.trace}", {})
        for workload, metrics in summary.items():
            section[workload] = {"seeds": args.seeds, "seconds": args.seconds, **metrics}
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
