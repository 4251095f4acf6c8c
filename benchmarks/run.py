"""End-to-end and per-layer benchmark of icx.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload rand-scale --seed 1 --seconds 30 --trace 0

Workloads: rand-scale, verify-small, cli-mixed (see workloads.py).  The
package is imported from the checkout's own `src/`; without it the command
exits 2 and prints no result.

With `--trace 0` the run sets up (import, corpus generation, JSON inputs,
warm-up; three times, median reported), then runs whole rounds of ops for
at least `--seconds` seconds, checks every output outside the timed spans
and reports the end-to-end metrics.  With `--trace 1` it runs a fixed set
of rounds twice, untraced then traced, and reports the per-layer metrics
and the tracing overhead (traced time / untraced time).

Times are scaled to a reference machine speed measured between ops (see
speed.py); the raw figures are in the detail line and file.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Details (machine, corpus composition, per-kind latencies, every
failure) go to the lines before it and to `.bench_out/` in the checkout.
The exit code is 1 when any op fails its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from speed import REFERENCE_PROBE_S, SpeedTracker

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
TIMED_CAP_S = 120.0  # stop early, at an op boundary, if the program is that slow


def _import_package():
    if not os.path.isfile(os.path.join(SRC, "icx", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import icx

    if os.path.dirname(os.path.dirname(os.path.abspath(icx.__file__))) != SRC:
        return None
    return icx


def machine_info() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "loadavg": list(os.getloadavg())}


def composition(results) -> dict:
    ops = [r.op for r in results]
    sized = [op for op in ops if op.n]
    return {
        "ops_by_kind": dict(sorted(Counter(op.kind for op in ops).items())),
        "n_histogram": {str(n): c for n, c in sorted(Counter(op.n for op in sized).items())},
        "cost_types": dict(sorted(Counter(op.cost_type for op in ops).items())),
        "general_position_share": sum(op.general_position for op in ops) / len(ops),
    }


def _percentiles(xs) -> tuple[float, float]:
    cuts = statistics.quantiles(xs, n=10, method="inclusive")
    return statistics.median(xs), cuts[8]


def latency_by_kind(results, scaled) -> dict:
    out = {}
    for key in sorted({(r.op.kind, r.op.n) for r in results}):
        xs = [1e3 * t for r, t in zip(results, scaled) if (r.op.kind, r.op.n) == key]
        out[f"{key[0]}/n={key[1]}"] = {"count": len(xs), "median_ms": statistics.median(xs)}
    return out


class Runner:
    def __init__(self, workload, seed: int):
        self.wl, self.seed = workload, seed
        self.workdir = os.path.join(OUT, f"{workload.name}-seed{seed}")
        self.rounds: list = []
        self.speed = SpeedTracker()

    def execute(self, op, done: dict, tracer=None):
        from workloads import Result, Timed

        res = Result(op)
        timed = Timed(op.id, tracer)
        try:
            res.out, res.queries = self.wl.run(op, timed, done)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            res.error = f"{type(exc).__name__}: {exc}"
        res.start, res.seconds = timed.t0, timed.seconds
        done[op.id] = res
        return res

    def scaled(self, res) -> float:
        """The op's time at the reference machine speed."""
        return res.seconds * self.speed.factor(res.start, res.start + res.seconds)

    def setup(self, rounds: int) -> tuple[list[float], list[float]]:
        """Import, corpus, JSON inputs and warm-up, repeated.

        Returns their raw times and their times at the reference speed.
        """
        raw, scaled = [], []
        env = dict(os.environ, PYTHONPATH=SRC)
        for _ in range(SETUP_REPEATS):
            self.speed.probe_now()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import icx"], env=env, check=True,
                           timeout=120)
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.rounds = [self.wl.make_round(self.seed, r, self.workdir)
                           for r in range(rounds)]
            done = {}
            for op in self.wl.warmup_ops(self.workdir):
                self.execute(op, done)
            t1 = time.perf_counter()
            self.speed.probe_now()
            raw.append(t1 - t0)
            scaled.append(raw[-1] * self.speed.factor(t0, t1))
        return raw, scaled

    def round(self, r: int):
        while len(self.rounds) <= r:
            self.rounds.append(self.wl.make_round(self.seed, len(self.rounds), self.workdir))
        return self.rounds[r]

    def run_ops(self, ops, done: dict, tracer=None, deadline=float("inf")) -> list:
        results = []
        for op in ops:
            if time.perf_counter() > deadline:
                break
            self.speed.maybe_probe()
            results.append(self.execute(op, done, tracer))
        self.speed.probe_now()
        return results

    def timed_phase(self, seconds: float):
        """Whole rounds until `seconds` have passed and min_rounds are done.

        Returns the results, the rounds run and how many results the first
        min_rounds rounds hold.
        """
        results, done, elapsed, r, n_min = [], {}, 0.0, 0, 0
        while True:
            ops = self.round(r)  # generating a new round is not timed
            t0 = time.perf_counter()
            results += self.run_ops(ops, done, deadline=t0 + TIMED_CAP_S - elapsed)
            elapsed += time.perf_counter() - t0
            r += 1
            if r <= self.wl.min_rounds:
                n_min = len(results)
            if elapsed > TIMED_CAP_S or (r >= self.wl.min_rounds and elapsed >= seconds):
                return results, r, n_min

    def check(self, results, refs: dict) -> list[dict]:
        from workloads import CheckContext

        ctx = CheckContext({res.op.id: res for res in results}, refs)
        failures = []
        for res in results:
            reason = res.error
            if reason is None:
                try:
                    reason = self.wl.check(res, ctx)
                except Exception as exc:  # a malformed output fails its op
                    reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is not None:
                failures.append({"op": res.op.id, "kind": res.op.kind, "n": res.op.n,
                                 "reason": reason})
        return failures


def load_refs(workload: str, seed: int) -> dict:
    path = os.path.join(HERE, "refs", f"{workload}.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh).get(str(seed), {})


def run_timed(runner: Runner, seconds: float, refs: dict) -> tuple[dict, dict, list, int]:
    setup_raw, setup_scaled = runner.setup(runner.wl.min_rounds)
    results, rounds, n_min = runner.timed_phase(seconds)
    failures = runner.check(results, refs)
    raw = [r.seconds for r in results]
    lat = [runner.scaled(r) for r in results]
    p50, p90 = _percentiles(lat)
    raw_p50, raw_p90 = _percentiles(raw)
    # Over the rounds every run completes, so the count repeats exactly.
    counted = [r.queries for r in results[:n_min]]
    metrics = {
        "ops_per_s": (len(results) / sum(lat), "1/s"),
        "op_p50_ms": (1e3 * p50, "ms"),
        "op_p90_ms": (1e3 * p90, "ms"),
        "value_queries_per_op": (sum(counted) / len(counted), "count"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    factors = [REFERENCE_PROBE_S / t for t in runner.speed.took]
    detail = {
        "rounds": rounds, "op_time_s": sum(raw), "latency_samples": len(lat),
        "samples_beyond_p90": sum(x > p90 for x in lat),
        "value_queries_ops": len(counted),
        "raw": {"ops_per_s": len(raw) / sum(raw), "op_p50_ms": 1e3 * raw_p50,
                "op_p90_ms": 1e3 * raw_p90, "setup_runs_s": setup_raw},
        "speed_factor": {"probes": len(factors), "median": statistics.median(factors),
                         "min": min(factors), "max": max(factors)},
        "ops_failed_ratio": len(failures) / len(results),
        "composition": composition(results), "latency_by_kind": latency_by_kind(results, lat),
        "references_used": sum(r.op.id in refs for r in results),
        # id, kind, n, raw ms, ms at reference speed, value queries
        "ops": [[r.op.id, r.op.kind, r.op.n, 1e3 * r.seconds, 1e3 * t, r.queries]
                for r, t in zip(results, lat)],
    }
    return metrics, detail, failures, len(results)


def run_traced(runner: Runner, refs: dict) -> tuple[dict, dict, list, int]:
    import tracing

    with open(os.path.join(HERE, "layers.json")) as fh:
        layers = json.load(fh)["per_layer"]
    runner.setup(runner.wl.trace_rounds)
    ops = [op for r in range(runner.wl.trace_rounds) for op in runner.round(r)]

    def one_pass(tracer=None):
        results = runner.run_ops(ops, {}, tracer)
        return results, sum(runner.scaled(r) for r in results)

    plain, plain_s = one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_s = one_pass(tracer)
    finally:
        tracer.uninstall()
    # Layer times are scaled like the op times, by the traced pass's speed.
    scale = traced_s / sum(r.seconds for r in traced)
    failures = runner.check(plain, refs) + runner.check(traced, refs)
    summary = tracer.summary()
    for op_id in summary["self_sum_mismatch_ops"]:
        failures.append({"op": op_id, "kind": "trace", "n": 0,
                         "reason": "span self times do not sum to the op's traced duration"})
    values, absent = tracing.layer_metrics(tracer, layers, traced_s / plain_s)
    units = {m["name"]: m["unit"] for m in layers}
    metrics = {name: (value * scale if units[name] == "ms" else value, units[name])
               for name, value in values.items()}
    spans_path = os.path.join(OUT, f"{runner.wl.name}-seed{runner.seed}-spans.txt.gz")
    tracer.dump(spans_path)
    detail = {"traced_ops": len(ops), "untraced_s": plain_s, "traced_s": traced_s,
              "absent": absent, "spans_file": os.path.relpath(spans_path, ROOT),
              "composition": composition(traced)}
    return metrics, detail, failures, len(plain) + len(traced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("rand-scale", "verify-small", "cli-mixed"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_package() is None:
        print(f"benchmark: no icx package under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    runner = Runner(WORKLOADS[args.workload], args.seed)
    info = machine_info()
    print(json.dumps({"machine": info}))
    refs = load_refs(args.workload, args.seed)
    if args.trace:
        metrics, detail, failures, attempted = run_traced(runner, refs)
    else:
        metrics, detail, failures, attempted = run_timed(runner, args.seconds, refs)

    for f in failures:
        print(f"FAILED op {f['op']} ({f['kind']}, n={f['n']}): {f['reason']}")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      **{k: v for k, v in detail.items() if k != "ops"}}))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "machine": info,
                   "metrics": {k: v for k, (v, _) in metrics.items()},
                   "failures": failures, **detail}, fh, indent=1)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
