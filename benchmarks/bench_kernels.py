#!/usr/bin/env python3
"""Benchmark the numpy kernels and ideal closure.

Workloads mirror the package's hot paths: axiom scans over candidate
table pairs (the enumeration inner loop) and exhaustive ideal searches
over bitmasks (the spectrum substrate).  Ideal closure (an intersection
over the cached ideal lattice) is timed through
``iseki.ideals.generated_ideal`` with the lattice already cached.

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

    n = 4
    tables = _random_tables(args.scan_tables, n, seed=7)
    tables = [(a.astype(np.int64), m.astype(np.int64)) for a, m in tables]
    big_add, big_mul = _chain_tables(args.ideal_n)
    bb = direct_product(
        build_recipe(("named", "B")), build_recipe(("named", "C5"))
    )
    chain = validate_semiring(big_add, big_mul, args.ideal_n - 1, id="chain")
    seeds = [
        [e for e in range(args.ideal_n) if (mask >> e) & 1]
        for mask in range(1, 2001, 2)
    ]
    generated_ideal(chain, [])  # fill the ideal-lattice cache

    workloads = {
        f"axiom scan, {args.scan_tables} random {n}x{n} pairs": lambda: [
            _kernels.axiom_witness(a, m, 1) for a, m in tables
        ],
        f"ideal masks, chain n={args.ideal_n}": lambda: _kernels.ideal_masks(
            big_add, big_mul
        ),
        "ideal masks, B x C5 (n=10)": lambda: _kernels.ideal_masks(bb.add, bb.mul),
        f"ideal closure, {len(seeds)} seeds on chain n={args.ideal_n}": lambda: [
            generated_ideal(chain, seed) for seed in seeds
        ],
    }

    width = max(len(label) for label in workloads)
    for label, job in workloads.items():
        print(f"{label:<{width}}  {_time(job) * 1e3:9.2f}ms")


if __name__ == "__main__":
    main()
