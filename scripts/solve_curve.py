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

from icx.costfn import CountingOracle  # noqa: E402
from icx.deterministic import solve_deterministic  # noqa: E402
from icx.randomized import solve_randomized  # noqa: E402

SIZES = (5, 10, 20, 30)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed solves per instance; the best counts (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    for n in SIZES:
        insts = [gen.general_position_instance(random.Random(seed), n, "additive")
                 for seed in SEEDS]
        for mode, solve in SOLVERS.items():
            ms = [best_ms(solve, inst, args.repeats) for inst in insts]
            print(json.dumps({
                "mode": mode, "n": n, "median_ms": round(statistics.median(ms), 3),
                "ms": [round(t, 3) for t in ms],
                "value_queries": [value_queries(solve, inst) for inst in insts],
            }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
