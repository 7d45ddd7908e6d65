#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallbacks.

Workloads mirror the package's hot paths: axiom scans over candidate
table pairs (the enumeration inner loop) and exhaustive ideal searches
over bitmasks (the spectrum substrate).  The numba path is warmed once
before timing so compilation is not counted.  Ideal closure has a single
implementation (an intersection over the cached ideal lattice), timed
through ``iseki.ideals.generated_ideal`` with the lattice already cached.

    python benchmarks/bench_kernels.py [--scan-tables 2000] [--ideal-n 14]
"""

import argparse
import time

import numpy as np

from iseki import _kernels
from iseki.catalog import build_recipe
from iseki.ideals import generated_ideal
from iseki.semiring import direct_product, validate_semiring


def _random_tables(count, n, seed):
    rng = np.random.default_rng(seed)
    return [
        (rng.integers(0, n, (n, n)), rng.integers(0, n, (n, n)))
        for _ in range(count)
    ]


def _chain_tables(n):
    rng = np.arange(n)
    return np.maximum.outer(rng, rng), np.minimum.outer(rng, rng)


def _time(fn, reps=3):
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scan-tables", type=int, default=2000)
    parser.add_argument("--ideal-n", type=int, default=14)
    args = parser.parse_args()

    impls = _kernels.implementations()
    print(f"active backend: {_kernels.backend()}")
    print(f"available: {', '.join(impls)}")

    n = 4
    tables = _random_tables(args.scan_tables, n, seed=7)
    tables = [(a.astype(np.int64), m.astype(np.int64)) for a, m in tables]
    big_add, big_mul = _chain_tables(args.ideal_n)
    bb = direct_product(
        build_recipe(("named", "B")), build_recipe(("named", "C5"))
    )

    workloads = {
        f"axiom scan, {args.scan_tables} random {n}x{n} pairs": lambda impl: [
            impl["axiom_witness"](n, a, m, 1) for a, m in tables
        ],
        f"ideal masks, chain n={args.ideal_n}": lambda impl: impl["ideal_masks"](
            args.ideal_n, big_add, big_mul
        ),
        "ideal masks, B x C5 (n=10)": lambda impl: impl["ideal_masks"](
            bb.n, bb.add, bb.mul
        ),
    }

    if "numba" in impls:
        # Warm the JIT outside the timed region.
        for job in workloads.values():
            job(impls["numba"])

    results = {}
    for label, job in workloads.items():
        row = {}
        for name, impl in impls.items():
            row[name] = _time(lambda: job(impl))
        results[label] = row

    chain = validate_semiring(big_add, big_mul, args.ideal_n - 1, id="chain")
    seeds = [
        [e for e in range(args.ideal_n) if (mask >> e) & 1]
        for mask in range(1, 2001, 2)
    ]
    generated_ideal(chain, [])  # fill the ideal-lattice cache
    closure = _time(lambda: [generated_ideal(chain, seed) for seed in seeds])
    closure_label = f"ideal closure, {len(seeds)} seeds on chain n={args.ideal_n}"

    width = max(len(label) for label in [*results, closure_label])
    names = list(impls)
    header = f"{'workload':<{width}}  " + "  ".join(f"{n:>10}" for n in names)
    if len(names) == 2:
        header += "   speedup"
    print(header)
    for label, row in results.items():
        line = f"{label:<{width}}  " + "  ".join(
            f"{row[n] * 1e3:9.2f}ms" for n in names
        )
        if len(names) == 2:
            a, b = (row[n] for n in names)
            line += f"   {max(a, b) / min(a, b):6.1f}x"
        print(line)
    print(f"{closure_label:<{width}}  {closure * 1e3:9.2f}ms  (generated_ideal)")


if __name__ == "__main__":
    main()
