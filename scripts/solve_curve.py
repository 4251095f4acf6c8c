#!/usr/bin/env python3
"""End-to-end solve curve: wall time and value queries against n.

For each n in {5, 10, 20, 30} and each mode (det, rand), solves the
additive `benchmarks/gen.general_position_instance` drawn from
`random.Random(seed)` for seeds 1-3 with `solve_deterministic` or
`solve_randomized`, and prints one JSON line:

  {"mode": "rand", "n": 10, "median_ms": ..., "ms": [...], "value_queries": [...]}

`ms` holds each seed's best of `--repeats` timed solves and `median_ms` is
their median; `value_queries` counts each seed's cost-oracle value queries
(from one more solve, through `CountingOracle`).  Times are wall clock on
whatever host runs the script, so compare two trees in one session.

Then, for each n in {4, 5, 6, 7}, the same for the LP oracle
`brute_force_randomized`, with mode "oracle-rand" and, per seed, its LP
solves and simplex pivots per call besides its value queries.  Those are
counted on one more call, with the oracle module's simplex core and pivot
wrapped by counters for that call only.  Last, for each n in {7, 10, 12},
the same for the deterministic oracle `brute_force_deterministic`, with
mode "oracle-det" and, per seed, the `_ICBounds` it builds per call (one
per suggestion it visits), counted the same way.

Usage: PYTHONPATH=src python scripts/solve_curve.py [--repeats 5]
"""

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import gen  # noqa: E402  (benchmarks/gen.py)

from icx import oracle  # noqa: E402
from icx.costfn import CountingOracle  # noqa: E402
from icx.deterministic import solve_deterministic  # noqa: E402
from icx.randomized import solve_randomized  # noqa: E402

SIZES = (5, 10, 20, 30)
ORACLE_SIZES = (4, 5, 6, 7)
DET_ORACLE_SIZES = (7, 10, 12)
SEEDS = (1, 2, 3)
SOLVERS = {"det": solve_deterministic, "rand": solve_randomized}


def best_ms(solve, inst, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        solve(inst)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best


def value_queries(solve, inst) -> int:
    counted = CountingOracle(inst.cost_fn)
    solve(inst.with_cost_fn(counted))
    return counted.value_queries


def oracle_counts(search, inst, names) -> tuple[int, ...]:
    """Calls to each of the oracle module's `names` in one `search(inst)`, then its
    value queries."""
    counts = dict.fromkeys(names, 0)
    originals = {name: getattr(oracle, name) for name in names}

    def counting(name):
        def counted_call(*args):
            counts[name] += 1
            return originals[name](*args)
        return counted_call

    counted = CountingOracle(inst.cost_fn)
    try:
        for name in names:
            setattr(oracle, name, counting(name))
        search(inst.with_cost_fn(counted))
    finally:
        for name, fn in originals.items():
            setattr(oracle, name, fn)
    return (*counts.values(), counted.value_queries)


def instances(n: int) -> list:
    return [gen.general_position_instance(random.Random(seed), n, "additive")
            for seed in SEEDS]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed solves per instance; the best counts (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for n in SIZES:
        insts = instances(n)
        for mode, solve in SOLVERS.items():
            ms = [best_ms(solve, inst, args.repeats) for inst in insts]
            print(json.dumps({
                "mode": mode, "n": n, "median_ms": round(statistics.median(ms), 3),
                "ms": [round(t, 3) for t in ms],
                "value_queries": [value_queries(solve, inst) for inst in insts],
            }), flush=True)
    for n in ORACLE_SIZES:
        insts = instances(n)
        ms = [best_ms(oracle.brute_force_randomized, inst, args.repeats) for inst in insts]
        solves, pivots, queries = zip(*(
            oracle_counts(oracle.brute_force_randomized, inst, ("_simplex", "_pivot"))
            for inst in insts))
        print(json.dumps({
            "mode": "oracle-rand", "n": n, "median_ms": round(statistics.median(ms), 3),
            "ms": [round(t, 3) for t in ms], "lp_solves": solves, "pivots": pivots,
            "value_queries": queries,
        }), flush=True)
    for n in DET_ORACLE_SIZES:
        insts = instances(n)
        ms = [best_ms(oracle.brute_force_deterministic, inst, args.repeats) for inst in insts]
        built, queries = zip(*(
            oracle_counts(oracle.brute_force_deterministic, inst, ("_ICBounds",))
            for inst in insts))
        print(json.dumps({
            "mode": "oracle-det", "n": n, "median_ms": round(statistics.median(ms), 3),
            "ms": [round(t, 3) for t in ms], "ic_bounds": built, "value_queries": queries,
        }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
