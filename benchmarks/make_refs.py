"""Regenerate the committed reference utilities under benchmarks/refs/.

    python3 benchmarks/make_refs.py [--seeds 0-15] [--workload cli-mixed]

For every op beyond oracle range (all of rand-scale; the solves with n > 7
in cli-mixed) it records the utility the package returns, keyed by seed and
op id, over the first REF_ROUNDS rounds.  Ops are checked before their
utilities are written; any failure aborts without writing.  Later commits
must reproduce these utilities within 1e-9; ops beyond the recorded seeds
and rounds keep only the invariant checks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import run

REF_ROUNDS = {"rand-scale": 8, "cli-mixed": 12}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("0-15"))
    parser.add_argument("--workload", choices=sorted(REF_ROUNDS), action="append",
                        help="only this workload (repeatable; default all)")
    args = parser.parse_args(argv)
    if run._import_package() is None:
        print(f"no icx package under {run.SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    for name in args.workload or REF_ROUNDS:
        wl, rounds = WORKLOADS[name], REF_ROUNDS[name]
        table = {}
        for seed in args.seeds:
            runner = run.Runner(wl, seed)
            done, results = {}, []
            for r in range(rounds):
                results += [runner.execute(op, done) for op in runner.round(r)]
            failures = runner.check(results, {})
            if failures:
                print(f"{name} seed {seed}: {failures[:3]}", file=sys.stderr)
                return 1
            table[str(seed)] = {
                res.op.id: {"utility": u, "n": res.op.n}
                for res in results if (u := wl.ref_value(res.op, res.out)) is not None}
            print(f"{name} seed {seed}: {len(table[str(seed)])} references", flush=True)
        write_refs(os.path.join(run.HERE, "refs", f"{name}.json"), table)
    return 0


def write_refs(path: str, table: dict) -> None:
    """JSON with one line per seed."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    lines = [f"{json.dumps(seed)}: {json.dumps(table[seed], sort_keys=True)}"
             for seed in sorted(table, key=int)]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
