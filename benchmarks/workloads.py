"""The three workloads: how their ops are generated, run and checked.

Every workload is a closed loop: one caller, in one process and thread,
sends the next op when the previous one has returned.  Ops come in rounds
of fixed composition, each round drawn fresh from (workload, seed, round),
so no instance repeats within a run and every run sees the same size mix.
The mixes are chosen so that neither the median nor the 90th percentile
of op latency falls on the boundary between two size classes: there the
percentile would jump between classes from one run to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Optional

import icx
from icx import cli, serialization
from icx.costfn import CountingOracle

import checks
import gen


@dataclass
class Op:
    id: str
    kind: str
    n: int  # number of actions (ground-set size for chain ops); 0 if none
    cost_type: str
    general_position: bool
    data: dict = field(repr=False)


@dataclass
class Result:
    op: Op
    start: float = float("nan")  # perf_counter() when the timed span began
    seconds: float = float("nan")
    queries: int = 0
    out: Any = None
    error: Optional[str] = None  # the exception an op raised, if any


class Timed:
    """Times exactly the calls into the package, and marks the op's root span."""

    def __init__(self, op_id: str, tracer=None):
        self.op_id, self.tracer = op_id, tracer
        self.t0 = self.seconds = float("nan")

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.begin_op(self.op_id)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0
        if self.tracer is not None:
            self.tracer.end_op()
        return False


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _scheme_of(doc: dict) -> SimpleNamespace:
    """A scheme from its JSON form, without going through the package."""
    return SimpleNamespace(
        suggested=doc["suggested"], alpha=float(doc["alpha"]),
        distribution=[(frozenset(e["set"]), float(e["prob"])) for e in doc["distribution"]])


class Workload:
    name = ""
    why = ""
    min_rounds = 1  # rounds every timed run completes (at least 100 ops)
    trace_rounds = 1  # rounds in a traced run

    def make_round(self, seed: int, r: int, workdir: str) -> list[Op]:
        raise NotImplementedError

    def warmup_ops(self, workdir: str) -> list[Op]:
        raise NotImplementedError

    def run(self, op: Op, timed: Timed, done: dict):
        """Run op inside `timed`; return (output, value queries)."""
        raise NotImplementedError

    def check(self, res: Result, ctx: "CheckContext") -> Optional[str]:
        raise NotImplementedError

    def ref_value(self, op: Op, out) -> Optional[float]:
        """The utility to commit as reference for op, or None if op needs none."""
        return None


@dataclass
class CheckContext:
    results: dict  # op id -> Result, for checks that compare two ops
    refs: dict  # op id -> {"utility", "n"}, for the run's seed; may be empty

    def ref_failure(self, op: Op, utility: float) -> Optional[str]:
        ref = self.refs.get(op.id)
        if ref is None:
            return None
        if ref["n"] != op.n:
            return f"reference for {op.id} is for n={ref['n']}, op has n={op.n}"
        return checks.check_close("utility vs committed reference", utility,
                                  ref["utility"], checks.DET_TOL)


# ---------------------------------------------------------------------------
# rand-scale
# ---------------------------------------------------------------------------


class RandScale(Workload):
    name = "rand-scale"
    why = ("solve_randomized on general-position submodular instances, n=8..20; "
           "the randomized solver and model id lookups do nearly all the work")
    # (n, instances per round): the median falls mid n=10 (where the
    # exhaustive submodularity check still runs), the 90th percentile inside
    # n=14, and n=16..20 carry a third of the time.
    MIX = ((8, 15), (10, 20), (12, 8), (14, 6), (16, 1), (18, 1), (20, 1))
    min_rounds = 4
    trace_rounds = 1

    def make_round(self, seed, r, workdir):
        rng = _rng(self.name, seed, r)
        ops = []
        for n, count in self.MIX:
            for t in range(count):
                kind = gen.SUBMODULAR_TYPES[(t + r) % len(gen.SUBMODULAR_TYPES)]
                inst = gen.general_position_instance(rng, n, kind)
                ops.append(Op(f"r{r}.{len(ops)}", "solve_rand", n, kind,
                              gen.is_general_position(inst), {"inst": inst}))
        rng.shuffle(ops)
        return ops

    def warmup_ops(self, workdir):
        rng = random.Random("warm")
        return [Op(f"warm.{k}", "solve_rand", 8, kind, True,
                   {"inst": gen.general_position_instance(rng, 8, kind)})
                for k, kind in enumerate(gen.SUBMODULAR_TYPES)]

    def run(self, op, timed, done):
        counted = CountingOracle(op.data["inst"].cost_fn)
        inst = op.data["inst"].with_cost_fn(counted)
        with timed:
            report = icx.solve_randomized(inst)
        return report, counted.value_queries

    def check(self, res, ctx):
        inst, report = res.op.data["inst"], res.out
        det_best, _ = icx.solve_deterministic(inst)
        return checks.first_failure(
            checks.check_ic(inst, report.scheme),
            checks.check_support(inst, report.scheme),
            checks.check_close("report utility vs scheme's principal utility",
                               report.utility, checks.principal_utility(inst, report.scheme),
                               checks.DET_TOL),
            checks.check_at_least("utility vs deterministic optimum",
                                  report.utility, det_best.utility),
            ctx.ref_failure(res.op, report.utility))

    def ref_value(self, op, out):
        return out.utility


# ---------------------------------------------------------------------------
# verify-small
# ---------------------------------------------------------------------------


class VerifySmall(Workload):
    name = "verify-small"
    why = ("solvers cross-checked against brute-force and LP oracles at n<=7 with "
           "ties and free actions; the oracles and simplex do nearly all the work")
    # (kind, sizes, ops per round, eligible actions).  Chain and small-n
    # pairs fill the bottom 30%; det pairs at n=7 hold the median, rand pairs
    # at n=7 the 90th percentile.  The oracle's time grows with the number
    # of actions worth incentivising (f > c > 0), so the n=7 rand pairs all
    # have two: a mix of 0..5 would make their median jump between modes.
    MIX = (("chain", (1, 6), 9, None), ("det", (1, 5), 3, None), ("rand", (2, 4), 3, None),
           ("det", (7, 7), 20, None), ("rand", (5, 6), 5, None), ("rand", (7, 7), 10, 2))
    min_rounds = 16  # the oracles' query counts vary widely; 800 ops average them
    trace_rounds = 3

    def _op(self, rng, op_id, kind, n, eligible=None):
        if kind == "chain":
            fn = gen.tied_submodular_fn(rng, n)
            ground, marginals, mass = gen.marginal_profile(rng, n)
            return Op(op_id, kind, n, gen.cost_type(fn), False,
                      {"fn": fn, "ground": ground, "marginals": marginals, "mass": mass})
        while True:
            fn = gen.monotone_table(rng, n) if kind == "det" else gen.tied_submodular_fn(rng, n)
            inst = gen.tied_instance(rng, n, fn)
            if eligible is None or gen.eligible_count(inst) == eligible:
                return Op(op_id, kind, n, gen.cost_type(fn), gen.is_general_position(inst),
                          {"inst": inst})

    def make_round(self, seed, r, workdir):
        rng = _rng(self.name, seed, r)
        ops = []
        for kind, (lo, hi), count, eligible in self.MIX:
            for _ in range(count):
                ops.append(self._op(rng, f"r{r}.{len(ops)}", kind, rng.randint(lo, hi),
                                    eligible))
        rng.shuffle(ops)
        return ops

    def warmup_ops(self, workdir):
        rng = random.Random("warm")
        return [self._op(rng, f"warm.{k}", kind, 3)
                for k, kind in enumerate(("chain", "det", "rand"))]

    def run(self, op, timed, done):
        if op.kind == "chain":
            counted = CountingOracle(op.data["fn"])
            index = {e: t for t, e in enumerate(op.data["ground"])}

            def value_of(s):
                return counted.value(sum(1 << index[e] for e in s))

            args = (op.data["ground"], op.data["marginals"], op.data["mass"], value_of)
            with timed:
                nested = icx.nested_min_cost_distribution(*args)
                _, lp_cost = icx.lp_min_cost_given_marginals(*args)
            return {"nested": nested.expected_cost, "lp": lp_cost}, counted.value_queries

        counted = CountingOracle(op.data["inst"].cost_fn)
        inst = op.data["inst"].with_cost_fn(counted)
        if op.kind == "det":
            with timed:
                best, _ = icx.solve_deterministic(inst)
                solver_queries = counted.value_queries
                _, oracle_utility = icx.brute_force_deterministic(inst)
            return {"det": best.utility, "oracle": oracle_utility,
                    "solver_queries": solver_queries}, counted.value_queries
        with timed:
            report = icx.solve_randomized(inst)
            det_best, _ = icx.solve_deterministic(inst)
            _, oracle_utility = icx.brute_force_randomized(inst, alpha_resolution=0.02)
        return {"report": report, "det": det_best.utility,
                "oracle": oracle_utility}, counted.value_queries

    def check(self, res, ctx):
        op, out = res.op, res.out
        if op.kind == "chain":
            return checks.check_close("nested chain vs coupling LP", out["nested"],
                                      out["lp"], checks.DET_TOL)
        if op.kind == "det":
            return checks.first_failure(
                checks.check_close("det solver vs brute force", out["det"], out["oracle"],
                                   checks.DET_TOL),
                checks.check_query_budget(out["solver_queries"], op.n))
        inst, report = op.data["inst"], out["report"]
        return checks.first_failure(
            checks.check_close("rand solver vs LP oracle", report.utility, out["oracle"],
                               checks.RAND_ORACLE_TOL),
            checks.check_ic(inst, report.scheme),
            checks.check_support(inst, report.scheme),
            checks.check_at_least("rand utility vs det utility", report.utility, out["det"]))


# ---------------------------------------------------------------------------
# cli-mixed
# ---------------------------------------------------------------------------


class CliMixed(Workload):
    name = "cli-mixed"
    why = ("icx.cli.main in-process on JSON files: solve det/rand at n=6..16, xos-hard "
           "gen+solve, eval, query-experiment; load checks and JSON I/O dominate")
    # Submodular instance sizes solved in both modes, and solved det only;
    # every emitted scheme is then evaluated.  Evals fill the bottom 42% of
    # op latencies, det solves at n=6..8 hold the median, and det solves at
    # n=16 (load-time monotone check) the 90th percentile.
    BOTH_MODES = (6, 10, 14, 16)
    DET_ONLY = (8, 8, 8, 8, 8, 8, 12, 16, 16)
    XOS_K = (7, 11, 13)  # xos-hard instances have n = k + 3 actions
    min_rounds = 3
    trace_rounds = 1

    def _solve(self, op_id, path, mode, n, cost_type, gp, inst=None, expect=0, det=None):
        """`det` is the det solve of the same file, which a rand solve must match or beat."""
        return Op(op_id, f"solve_{mode}", n, cost_type, gp,
                  {"argv": ["solve", path, "--mode", mode], "expect": expect,
                   "path": path, "inst": inst, "det": det})

    def _eval(self, op_id, solve_op):
        path = solve_op.data["path"]
        scheme_path = f"{os.path.splitext(path)[0]}.{solve_op.kind}.scheme.json"
        return Op(op_id, "eval", solve_op.n, solve_op.cost_type, solve_op.general_position,
                  {"argv": ["eval", path, scheme_path], "scheme_path": scheme_path,
                   "from": solve_op.id, "expect": 0})

    def _ops_for(self, rng, r, prefix, workdir, both_modes, det_only, xos_k):
        os.makedirs(workdir, exist_ok=True)
        ops = []

        def add(make, *args, **kwargs):
            op = make(f"{prefix}.{len(ops)}", *args, **kwargs)
            ops.append(op)
            return op

        sizes = [(n, ("det", "rand")) for n in both_modes] + [(n, ("det",)) for n in det_only]
        for t, (n, modes) in enumerate(sizes):
            # Types rotate by round, so every run sees nearly the same type mix
            # at each size: load-time checks cost differ by type.
            kind = gen.SUBMODULAR_TYPES[(t + r) % len(gen.SUBMODULAR_TYPES)]
            inst = gen.general_position_instance(rng, n, kind)
            path = os.path.join(workdir, f"sub{t}.json")
            with open(path, "w") as fh:
                json.dump(serialization.instance_to_json(inst), fh)
            det = None
            for mode in modes:
                solve = add(self._solve, path, mode, n, kind, True, inst, det=det)
                add(self._eval, solve)
                det = solve.id
        for k in xos_k:
            path = os.path.join(workdir, f"xos{k}.json")
            ops.append(Op(f"{prefix}.{len(ops)}", "gen_xos", k + 3, "table", False,
                          {"argv": ["gen", "--family", "xos-hard", "--k", str(k), "--seed",
                                    str(rng.randrange(1 << 30)), "--out", path],
                           "path": path, "k": k, "expect": 0}))
            solve = add(self._solve, path, "det", k + 3, "table", False)
            add(self._eval, solve)
            if k == 7:
                # The hidden-shift cost is not submodular: exit 4 is correct.
                add(self._solve, path, "rand", k + 3, "table", False, expect=4)
        if xos_k:
            ops.append(Op(f"{prefix}.{len(ops)}", "query_experiment", 0, "xos_hard", False,
                          {"argv": ["query-experiment", "--k", "13", "--seed",
                                    str(rng.randrange(1 << 30))], "expect": 0}))
        return ops

    def make_round(self, seed, r, workdir):
        return self._ops_for(_rng(self.name, seed, r), r, f"r{r}",
                             os.path.join(workdir, f"r{r}"),
                             self.BOTH_MODES, self.DET_ONLY, self.XOS_K)

    def warmup_ops(self, workdir):
        return self._ops_for(random.Random("warm"), 0, "warm", os.path.join(workdir, "warm"),
                             (6,), (), (7,))

    def run(self, op, timed, done):
        if op.kind == "eval":
            with open(op.data["scheme_path"], "w") as fh:
                json.dump(done[op.data["from"]].out["doc"]["scheme"], fh)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with timed:
                code = cli.main(op.data["argv"])
        text = stdout.getvalue()
        try:
            doc = json.loads(text) if text else None
        except json.JSONDecodeError:
            doc = None
        queries = 0
        if op.kind.startswith("solve") and isinstance(doc, dict):
            queries = doc.get("query_counts", {}).get("value", 0)
        return {"code": code, "doc": doc, "stdout": text,
                "stderr": stderr.getvalue()[-500:]}, queries

    def _solve_failure(self, res, ctx):
        op, doc = res.op, res.out["doc"]
        inst = op.data["inst"] or serialization.load_instance(op.data["path"])
        utility, scheme = doc["utility"], _scheme_of(doc["scheme"])
        own = [checks.check_ic(inst, scheme),
               checks.check_close("report utility vs scheme's principal utility", utility,
                                  checks.principal_utility(inst, scheme), checks.DET_TOL)]
        if op.n <= 7:
            if op.kind == "solve_det":
                _, oracle_utility = icx.brute_force_deterministic(inst)
                own.append(checks.check_close("det solve vs brute force", utility,
                                              oracle_utility, checks.DET_TOL))
            else:
                _, oracle_utility = icx.brute_force_randomized(inst, alpha_resolution=0.02)
                own.append(checks.check_close("rand solve vs LP oracle", utility,
                                              oracle_utility, checks.RAND_ORACLE_TOL))
        else:
            own.append(ctx.ref_failure(op, utility))
        det = ctx.results.get(op.data["det"])
        if det is not None and det.error is None and isinstance(det.out["doc"], dict):
            own.append(checks.check_at_least("rand utility vs det utility", utility,
                                             det.out["doc"]["utility"]))
        return checks.first_failure(*own)

    def check(self, res, ctx):
        op, out = res.op, res.out
        failure = checks.check_exit(out["code"], op.data["expect"])
        if failure:
            return f"{failure}; stderr {out['stderr'][-200:]!r}"
        if op.data["expect"] != 0:
            return None
        doc = out["doc"]
        if op.kind != "gen_xos" and not isinstance(doc, dict):
            return f"output is not a JSON object: {out['stdout'][:80]!r}"
        if op.kind.startswith("solve"):
            return self._solve_failure(res, ctx)
        if op.kind == "eval":
            solve = ctx.results[op.data["from"]].out["doc"]
            if doc.get("ic") is not True:
                return "eval reports the emitted scheme not IC"
            return checks.check_close("eval principal utility vs solve utility",
                                      doc["principal_utility_suggested"], solve["utility"],
                                      checks.DET_TOL)
        if op.kind == "gen_xos":
            with open(op.data["path"]) as fh:
                values = json.load(fh)["cost_fn"]["values"]
            if len(values) != 1 << (op.data["k"] + 3):
                return f"gen wrote {len(values)} table values, expected 2^{op.data['k'] + 3}"
            if not os.path.exists(op.data["path"] + ".T.json"):
                return "gen wrote no hidden-set sidecar"
            return None
        return checks.check_query_experiment(doc)

    def ref_value(self, op, out):
        if op.kind.startswith("solve") and op.n > 7 and op.data["expect"] == 0:
            return out["doc"]["utility"]
        return None


WORKLOADS = {w.name: w for w in (RandScale(), VerifySmall(), CliMixed())}
