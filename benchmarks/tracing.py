"""Spans and counters recorded from outside the package, around its layers.

`Tracer.install()` replaces each traced function at every name its callers
look it up by: a module-level function is swapped in every loaded `icx`
module that binds it (so `from .model import is_IC` copies are covered), a
method on its class.  Nothing is recorded outside an op, so the
benchmark's own checks do not count.  Functions missing at the traced
commit are reported absent instead of failing the run.

A span is (name, start, end, parent span, op).  Spans are kept in flat
arrays in memory and written out once, when the run ends.  Hot id lookups
and cost-oracle value calls would dwarf every other span, so they are
counted, not timed: their time stays in their caller's self time.
"""

from __future__ import annotations

import gzip
import importlib
import json
import sys
import time
from array import array
from collections import Counter

# Traced functions: layer name -> (module, attribute path).
SPANS = {
    "model.is_IC": ("icx.model", "is_IC"),
    "costfn.check_monotone": ("icx.costfn", "check_monotone"),
    "costfn.check_submodular": ("icx.costfn", "check_submodular"),
    "deterministic.solve_deterministic": ("icx.deterministic", "solve_deterministic"),
    "deterministic.candidate_sets": ("icx.deterministic", "candidate_sets"),
    "randomized.solve_randomized": ("icx.randomized", "solve_randomized"),
    "randomized.breakpoints": ("icx.randomized", "breakpoints"),
    "randomized.stationary_alpha_candidates": ("icx.randomized", "stationary_alpha_candidates"),
    "randomized.solve_subproblem": ("icx.randomized", "solve_subproblem"),
    "randomized.subproblem_objective": ("icx.randomized", "subproblem_objective"),
    "randomized.assemble_scheme": ("icx.randomized", "assemble_scheme"),
    "randomized.nested_min_cost_distribution": ("icx.randomized", "nested_min_cost_distribution"),
    "oracle.brute_force_deterministic": ("icx.oracle", "brute_force_deterministic"),
    "oracle.brute_force_randomized": ("icx.oracle", "brute_force_randomized"),
    "oracle.lp_best_distribution": ("icx.oracle", "lp_best_distribution"),
    "oracle.simplex_solve": ("icx.oracle", "simplex_solve"),
    "oracle.lp_min_cost_given_marginals": ("icx.oracle", "lp_min_cost_given_marginals"),
    "serialization.load_instance": ("icx.serialization", "load_instance"),
    "serialization.load_scheme": ("icx.serialization", "load_scheme"),
    "serialization.instance_digest": ("icx.serialization", "instance_digest"),
    "reports.build_report": ("icx.reports", "build_report"),
    "reports.compute_digest": ("icx.reports", "compute_digest"),
    "cli.main": ("icx.cli", "main"),
    "families.gen_xos_hard": ("icx.families", "gen_xos_hard"),
    "families.query_experiment": ("icx.families", "query_experiment"),
}

# Counted methods: counter name -> (module, class, method).
COUNTERS = {
    "model.Instance.action.calls": ("icx.model", "Instance", "action"),
    "costfn.value.calls.additive": ("icx.costfn", "Additive", "value"),
    "costfn.value.calls.budget_additive": ("icx.costfn", "BudgetAdditive", "value"),
    "costfn.value.calls.coverage": ("icx.costfn", "WeightedCoverage", "value"),
    "costfn.value.calls.concave_cardinality": ("icx.costfn", "ConcaveCardinality", "value"),
    "costfn.value.calls.table": ("icx.costfn", "ExplicitTable", "value"),
    "costfn.value.calls.xos_hard": ("icx.families", "VTCost", "value"),
}

ROOT = "op"
HINTS = ("randomized.breakpoints", "randomized.stationary_alpha_candidates")
HINT_CALLER = "oracle.brute_force_randomized"


def _resolve(module: str, path: str):
    try:
        obj = importlib.import_module(module)
        for part in path.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return obj


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self.name_of = {ROOT: 0}
        self.op_ids: list[str] = []
        self.op = -1  # index into op_ids while an op runs, else -1
        # One entry per span.
        self.s_name = array("l")
        self.s_parent = array("l")
        self.s_op = array("l")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_outer = array("b")  # no enclosing span of the same name
        self.stack: list[int] = []
        self.open_names: Counter = Counter()
        self.counts: Counter = Counter()
        self.feasible = 0
        self.present: set[str] = set()
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.s_name)
        self.s_name.append(name_id)
        self.s_parent.append(self.stack[-1] if self.stack else -1)
        self.s_op.append(self.op)
        self.s_outer.append(self.open_names[name_id] == 0)
        self.s_end.append(0.0)
        self.open_names[name_id] += 1
        self.stack.append(sid)
        self.s_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.s_end[sid] = time.perf_counter()
        self.stack.pop()
        self.open_names[self.s_name[sid]] -= 1

    def begin_op(self, op_id: str) -> None:
        self.op = len(self.op_ids)
        self.op_ids.append(op_id)
        self._open(0)

    def end_op(self) -> None:
        self._close(self.stack[-1])
        if self.stack:
            raise RuntimeError("unbalanced spans at the end of an op")
        self.op = -1

    # -- installation ------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        name_id = self.name_of.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        feasible = name == "randomized.solve_subproblem"

        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if feasible and getattr(result, "feasible", False):
                self.feasible += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, key: str, fn):
        counts = self.counts

        def counted(obj, *args, **kwargs):
            if self.op >= 0:
                counts[key] += 1
            return fn(obj, *args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        for name, (module, path) in SPANS.items():
            fn = _resolve(module, path)
            if fn is None:
                continue
            self.present.add(name)
            wrapper = self._span_wrapper(name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "icx" or mod_name.startswith("icx.")):
                    continue
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)
        for key, (module, cls_name, method) in COUNTERS.items():
            cls = _resolve(module, cls_name)
            fn = getattr(cls, method, None) if cls is not None else None
            if fn is None or method not in vars(cls):
                continue
            self.present.add(key)
            self._undo.append((cls, method, fn))
            setattr(cls, method, self._count_wrapper(key, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls / busy / self seconds, per-op root checks, hints."""
        n = len(self.s_name)
        child = [0.0] * n
        for sid in range(n):
            p = self.s_parent[sid]
            if p >= 0:
                child[p] += self.s_end[sid] - self.s_start[sid]
        calls, busy, self_s = Counter(), Counter(), Counter()
        op_self, op_root = Counter(), {}
        for sid in range(n):
            name = self.names[self.s_name[sid]]
            dur = self.s_end[sid] - self.s_start[sid]
            own = dur - child[sid]
            calls[name] += 1
            self_s[name] += own
            if self.s_outer[sid]:
                busy[name] += dur
            op_self[self.s_op[sid]] += own
            if self.s_parent[sid] < 0:
                op_root[self.s_op[sid]] = dur
        mismatched = [self.op_ids[op] for op, dur in op_root.items()
                      if abs(op_self[op] - dur) > 1e-9 + 1e-9 * dur]
        hint_ids = {self.name_of[h] for h in HINTS if h in self.name_of}
        caller_id = self.name_of.get(HINT_CALLER)
        hints = 0.0
        for sid in range(n):
            if self.s_name[sid] not in hint_ids:
                continue
            p, under_caller = self.s_parent[sid], False
            while p >= 0 and self.s_name[p] not in hint_ids:
                under_caller = under_caller or self.s_name[p] == caller_id
                p = self.s_parent[p]
            if p < 0 and under_caller:
                hints += self.s_end[sid] - self.s_start[sid]
        return {"calls": calls, "busy_s": busy, "self_s": self_s, "spans": n,
                "ops": len(op_root), "self_sum_mismatch_ops": mismatched,
                "solver_hints_s": hints}

    def dump(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "ops": self.op_ids,
                                 "fields": ["name", "start", "end", "parent", "op"]}) + "\n")
            for sid in range(len(self.s_name)):
                fh.write(f"{self.s_name[sid]} {self.s_start[sid]!r} {self.s_end[sid]!r} "
                         f"{self.s_parent[sid]} {self.s_op[sid]}\n")


def layer_metrics(tracer: Tracer, layers: list[dict], overhead: float) -> tuple[dict, list]:
    """Values for every per-layer metric in `layers`, and the absent ones.

    A metric whose function no longer exists reads 0 and is listed absent.
    """
    s = tracer.summary()
    values, absent = {}, []
    for m in layers:
        name = m["name"]
        base, _, stat = name.rpartition(".")
        if name == "trace.overhead_ratio":
            values[name] = overhead
            continue
        if name == "trace.spans":
            values[name] = s["spans"]
            continue
        if name == "oracle.solver_hints_ms":
            values[name] = 1e3 * s["solver_hints_s"]
            if HINT_CALLER not in tracer.present:
                absent.append(name)
            continue
        if name in COUNTERS:
            values[name] = tracer.counts[name]
            if name not in tracer.present:
                absent.append(name)
            continue
        if base not in tracer.present:
            absent.append(name)
        if stat == "calls":
            values[name] = s["calls"][base]
        elif stat == "busy_ms":
            values[name] = 1e3 * s["busy_s"][base]
        elif stat == "self_ms":
            values[name] = 1e3 * s["self_s"][base]
        elif stat == "feasible_ratio":
            calls = s["calls"][base]
            values[name] = tracer.feasible / calls if calls else 0.0
        else:
            raise ValueError(f"no rule for layer metric {name!r}")
    return values, absent
