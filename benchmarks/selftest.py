"""Self-test of the benchmark's own checks and tracing.

    python3 benchmarks/selftest.py

Shows that each output check passes a correct output and rejects a
corrupted one (a utility off by 1e-6, a non-IC scheme, a wrong exit code,
a wrong query-experiment summary, a det solver over its query budget);
that a traced function missing at some commit is reported absent rather
than crashing the run; that span self times add up to each op's traced
duration; and that BENCHMARK.json lists exactly the per-layer metrics of
layers.json.  Exits 1 if any expectation breaks.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys

import run

FAILED = []


def expect(label: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {label}")
    if not ok:
        FAILED.append(label)


def check_rand_scale(wl, ctx_for):
    import icx
    from workloads import Result, Timed

    op = wl.make_round(0, 0, "")[0]
    report, _ = wl.run(op, Timed(op.id), {})
    good = Result(op, out=report)
    ref = {op.id: {"utility": report.utility, "n": op.n}}
    expect("rand-scale: correct output passes", wl.check(good, ctx_for(good, ref)) is None)

    shifted = dataclasses.replace(report, utility=report.utility + 1e-6)
    bad = Result(op, out=shifted)
    expect("rand-scale: utility off by 1e-6 is rejected",
           wl.check(bad, ctx_for(bad, ref)) is not None)
    off_ref = {op.id: {"utility": report.utility + 1e-6, "n": op.n}}
    expect("rand-scale: reference off by 1e-6 is rejected",
           wl.check(good, ctx_for(good, off_ref)) is not None)

    # Paying nothing for a costly action: the free null action does better.
    costly = next(a.id for a in op.data["inst"].actions if a.cost > 0)
    non_ic = icx.InspectionScheme(costly, 0.0, [(frozenset(), 1.0)])
    bad = Result(op, out=dataclasses.replace(report, scheme=non_ic))
    reason = wl.check(bad, ctx_for(bad, {}))
    expect("rand-scale: non-IC scheme is rejected", reason is not None and "IC" in reason)


def check_verify_small(wl, ctx_for):
    from workloads import Result, Timed

    ops = wl.make_round(0, 0, "")
    for kind in ("det", "rand", "chain"):
        op = next(o for o in ops if o.kind == kind)
        out, _ = wl.run(op, Timed(op.id), {})
        good = Result(op, out=out)
        expect(f"verify-small {kind}: correct output passes",
               wl.check(good, ctx_for(good, {})) is None)
        key = {"det": "oracle", "rand": "oracle", "chain": "lp"}[kind]
        corrupted = dict(out, **{key: out[key] + (2e-4 if kind == "rand" else 1e-6)})
        bad = Result(op, out=corrupted)
        expect(f"verify-small {kind}: oracle gap beyond tolerance is rejected",
               wl.check(bad, ctx_for(bad, {})) is not None)
    op = next(o for o in ops if o.kind == "det")
    out, _ = wl.run(op, Timed(op.id), {})
    bad = Result(op, out=dict(out, solver_queries=op.n * op.n + 1))
    expect("verify-small det: more than n^2 value queries is rejected",
           wl.check(bad, ctx_for(bad, {})) is not None)


def check_cli_mixed(wl, ctx_for, workdir):
    from workloads import Result, Timed

    ops = wl.make_round(0, 0, workdir)
    done = {}
    for op in ops:
        out, _ = wl.run(op, Timed(op.id), done)
        done[op.id] = Result(op, out=out)
    refs = {op.id: {"utility": u, "n": op.n} for op in ops
            if (u := wl.ref_value(op, done[op.id].out)) is not None}
    failures = [op.id for op in ops
                if wl.check(done[op.id], ctx_for(done[op.id], refs, done)) is not None]
    expect("cli-mixed: every correct output passes", not failures)

    exit4 = next(op for op in ops if op.data["expect"] == 4)
    wrong = Result(exit4, out=dict(done[exit4.id].out, code=0))
    expect("cli-mixed: wrong exit code (0 instead of 4) is rejected",
           wl.check(wrong, ctx_for(wrong, refs, done)) is not None)
    solve = next(op for op in ops if op.kind == "solve_rand" and op.n > 7
                 and op.data["expect"] == 0)
    out = done[solve.id].out
    wrong = Result(solve, out=dict(out, code=3))
    expect("cli-mixed: wrong exit code (3 instead of 0) is rejected",
           wl.check(wrong, ctx_for(wrong, refs, done)) is not None)
    doc = dict(out["doc"], utility=out["doc"]["utility"] + 1e-6)
    shifted = Result(solve, out=dict(out, doc=doc))
    expect("cli-mixed: solve utility off by 1e-6 is rejected",
           wl.check(shifted, ctx_for(shifted, refs, done)) is not None)

    ev = next(op for op in ops if op.kind == "eval")
    bad = Result(ev, out=dict(done[ev.id].out, doc=dict(done[ev.id].out["doc"], ic=False)))
    expect("cli-mixed: eval reporting ic=false is rejected",
           wl.check(bad, ctx_for(bad, refs, done)) is not None)
    qe = next(op for op in ops if op.kind == "query_experiment")
    for field, value in (("classes", 5), ("mean_queries", 3.5 * 1.2)):
        doc = dict(done[qe.id].out["doc"], **{field: value})
        bad = Result(qe, out=dict(done[qe.id].out, doc=doc))
        expect(f"cli-mixed: query-experiment with wrong {field} is rejected",
               wl.check(bad, ctx_for(bad, refs, done)) is not None)


def check_tracing(wl):
    import tracing
    from workloads import Timed

    with open(os.path.join(run.HERE, "layers.json")) as fh:
        layers = json.load(fh)["per_layer"]
    saved = dict(tracing.SPANS)
    tracing.SPANS["randomized.breakpoints"] = ("icx.randomized", "no_such_function")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for op in sorted(wl.make_round(0, 0, ""), key=lambda o: o.n)[:5]:
            wl.run(op, Timed(op.id, tracer), {})
    finally:
        tracer.uninstall()
        tracing.SPANS.clear()
        tracing.SPANS.update(saved)
    values, absent = tracing.layer_metrics(tracer, layers, 1.0)
    expect("tracing: a missing function is reported absent",
           "randomized.breakpoints.calls" in absent
           and values["randomized.breakpoints.calls"] == 0)
    expect("tracing: every per-layer metric gets a value",
           set(values) == {m["name"] for m in layers})
    summary = tracer.summary()
    expect("tracing: span self times sum to each op's traced duration",
           summary["ops"] == 5 and not summary["self_sum_mismatch_ops"])
    import icx.randomized

    expect("tracing: uninstall restores the package",
           not hasattr(icx.randomized.solve_subproblem, "__wrapped__"))


def check_manifest():
    with open(os.path.join(run.HERE, "layers.json")) as fh:
        layers = json.load(fh)["per_layer"]
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    expect("BENCHMARK.json per_layer matches layers.json",
           manifest["per_layer"] == [{k: m[k] for k in ("name", "unit", "better")}
                                     for m in layers])
    from workloads import WORKLOADS

    expect("BENCHMARK.json workloads match workloads.py",
           manifest["workloads"] == [{"name": w.name, "why": w.why}
                                     for w in WORKLOADS.values()])


def main() -> int:
    if run._import_package() is None:
        print(f"no icx package under {run.SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, CheckContext

    def ctx_for(res, refs, results=None):
        return CheckContext(results or {res.op.id: res}, refs)

    check_rand_scale(WORKLOADS["rand-scale"], ctx_for)
    check_verify_small(WORKLOADS["verify-small"], ctx_for)
    check_cli_mixed(WORKLOADS["cli-mixed"], ctx_for, os.path.join(run.OUT, "selftest"))
    check_tracing(WORKLOADS["rand-scale"])
    check_manifest()
    print(f"{len(FAILED)} failed" if FAILED else "all self-tests passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
