"""Command-line front end.

Commands: solve, eval, compare, brute-force, check-costfn, gen,
query-experiment.  All emit JSON on stdout (or --out FILE).  Exit codes:
0 success, 2 parse or output error, 3 validation failure, 4 cost-class check failure
in rand mode, 5 oracle size limit exceeded.

Config precedence: flags > environment (ICX_TOL) > defaults.
All randomness flows from --seed.  Reports are byte-identical across runs
for identical inputs and seeds; --timing adds a wall-clock field.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import deterministic, families, oracle, randomized, reports, serialization
from .costfn import (CountingOracle, ExplicitTable, check_mode, check_monotone,
                     check_submodular)
from .model import (DEFAULT_TOL, Instance, ValidationError, agent_utility,
                    best_responses, check_tolerance, principal_utility, validate_scheme)

# compare --mode rand passes when the solver and the LP oracle, whose
# golden-section payment search is approximate, agree within this.
RAND_COMPARE_TOL = 1e-4


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise serialization.ParseError(f"environment {name}={raw!r} is not a number")


def _tol(args) -> float:
    tol = args.tol if args.tol is not None else _env_float("ICX_TOL", DEFAULT_TOL)
    return check_tolerance(tol)


class OutputError(Exception):
    """An output file could not be opened or written."""


def _emit(doc: dict, out: str | None) -> None:
    """Write json.dump(doc, indent=2, sort_keys=True) and a newline.

    Those are the bytes whichever way they are made: in one write from
    serialization.indented_dumps, or, where it returns None (a list longer
    than 4,096 items, say), streamed chunk by chunk by json.dump, so that a
    2^16-entry table never exists as one string.  An OSError from opening
    or writing the output raises OutputError.
    """
    text = serialization.indented_dumps(doc)
    try:
        with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as fh:
            if text is None:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            else:
                fh.write(text + "\n")
    except OSError as exc:  # its text names the path
        raise OutputError(str(exc)) from exc


def cmd_solve(args) -> int:
    inst = serialization.load_instance(args.instance)
    counted = CountingOracle(inst.cost_fn)
    counted_inst = inst.with_cost_fn(counted)
    start = time.perf_counter()
    if args.mode == "det":
        best, candidates = deterministic.solve_deterministic(counted_inst)
        report = reports.build_report(
            counted_inst, "det", best.scheme(),
            provenance={"kind": best.provenance, "suggested": best.suggested})
        extra = {
            "candidates": [
                {"suggested": c.suggested, "alpha": c.alpha,
                 "inspected": sorted(c.inspected), "utility": c.utility,
                 "provenance": c.provenance}
                for c in candidates
            ]
        }
    else:
        report = randomized.solve_randomized(counted_inst)
        extra = {}
    report.query_counts = {"value": counted.value_queries,
                           "demand": counted.demand_queries}
    if args.timing:
        report.wall_clock_sec = time.perf_counter() - start
    doc = report.to_dict()
    doc.update(extra)
    _emit(doc, args.out)
    return 0


def cmd_eval(args) -> int:
    inst = serialization.load_instance(args.instance)
    scheme = serialization.load_scheme(args.scheme)
    validate_scheme(inst, scheme)
    tol = _tol(args)
    utilities = {a.id: agent_utility(inst, scheme, a.id) for a in inst.actions}
    responses = sorted(best_responses(inst, scheme, tol))
    principal = {j: principal_utility(inst, scheme, j) for j in responses}
    favored = max(principal, key=principal.__getitem__)
    doc = {
        "agent_utilities": utilities,
        "best_responses": responses,
        "ic": scheme.suggested in responses,
        "principal_utility_suggested": principal_utility(inst, scheme, scheme.suggested),
        "best_response_for_principal": {
            "action": favored,
            "principal_utility": principal[favored],
        },
        "tolerance": tol,
    }
    _emit(doc, args.out)
    return 0


def _run_oracle(inst: Instance, mode: str):
    if mode == "det":
        return oracle.brute_force_deterministic(inst)
    return oracle.brute_force_randomized(inst)


def cmd_brute_force(args) -> int:
    inst = serialization.load_instance(args.instance)
    scheme, utility = _run_oracle(inst, args.mode)
    doc = {
        "mode": args.mode,
        "scheme": serialization.scheme_to_json(scheme),
        "utility": utility,
    }
    _emit(doc, args.out)
    return 0


def cmd_compare(args) -> int:
    inst = serialization.load_instance(args.instance)
    if args.mode == "det":
        tolerance = _tol(args)
        best, _ = deterministic.solve_deterministic(inst)
        solver_utility = best.utility
    else:
        if args.tol is not None:
            raise ValidationError(f"--tol applies to --mode det only; --mode rand "
                                  f"passes within {RAND_COMPARE_TOL:g}")
        tolerance = RAND_COMPARE_TOL
        report = randomized.solve_randomized(inst)
        solver_utility = report.utility
    _, oracle_utility = _run_oracle(inst, args.mode)
    gap = abs(solver_utility - oracle_utility)
    doc = {
        "mode": args.mode,
        "solver_utility": solver_utility,
        "oracle_utility": oracle_utility,
        "gap": gap,
        "tolerance": tolerance,
        "pass": gap <= tolerance,
    }
    _emit(doc, args.out)
    return 0


def cmd_check_costfn(args) -> int:
    inst = serialization.load_instance(args.instance)
    mode = check_mode(inst.cost_fn)
    mono, mono_wit = check_monotone(inst.cost_fn, mode=mode, seed=args.seed)
    sub, sub_wit = check_submodular(inst.cost_fn, mode=mode, seed=args.seed)
    doc = {
        "n": inst.n,
        "mode": mode,
        "normalized": inst.cost_fn.value(0) == 0.0,
        "monotone": mono,
        "monotone_witness": _witness_doc(inst, mono_wit),
        "submodular": sub,
        "submodular_witness": _witness_doc(inst, sub_wit),
    }
    _emit(doc, args.out)
    return 0


def _witness_doc(inst: Instance, witness):
    if witness is None:
        return None
    mask, *elems = witness
    return {"set": sorted(inst.ids_of(mask)),
            "elements": [inst.actions[e].id for e in elems]}


def cmd_gen(args) -> int:
    if args.family == "intro":
        inst = families.gen_intro_example()
        _emit(serialization.instance_to_json(inst), args.out)
    elif args.family == "gap":
        inst = families.gen_gap_instance(args.n)
        _emit(serialization.instance_to_json(inst), args.out)
    elif args.family == "nonic":
        inst, scheme, refs = families.gen_nonic_example()
        _emit({
            "instance": serialization.instance_to_json(inst),
            "non_ic_scheme": serialization.scheme_to_json(scheme),
            "references": refs,
        }, args.out)
    elif args.family == "xos-hard":
        if not args.out:
            raise serialization.ParseError(
                "gen --family xos-hard needs --out (writes a hidden-set sidecar)")
        params = families.random_hard_params(args.k, args.seed, args.m)
        inst = families.gen_xos_hard(params)
        # Publish the cost as an explicit table so the instance file itself
        # does not spell out the hidden set; the sidecar records it.
        table_inst = inst.with_cost_fn(ExplicitTable(inst.cost_fn.table()))
        _emit(serialization.instance_to_json(table_inst), args.out)
        _emit({"k": params.k, "m": params.m, "T": sorted(params.T), "seed": args.seed},
              args.out + ".T.json")
    return 0


def cmd_query_experiment(args) -> int:
    stats = families.query_experiment(args.k, args.trials, args.seed, args.m)
    _emit(stats, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icx",
        description="Optimal inspection schemes for principal-agent contracts.")
    parser.add_argument("--version", action="version", version=reports.__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scheme_file=False):
        p.add_argument("instance", help="instance JSON file")
        if scheme_file:
            p.add_argument("scheme", help="scheme JSON file")
        p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("solve", help="run the exact solver")
    add_common(p)
    p.add_argument("--mode", choices=["det", "rand"], required=True)
    p.add_argument("--timing", action="store_true", help="include wall-clock time")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eval", help="evaluate a scheme on an instance")
    add_common(p, scheme_file=True)
    p.add_argument("--tol", type=float, default=None,
                   help=f"best-response tolerance (default env ICX_TOL or {DEFAULT_TOL:g})")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("brute-force", help="run the reference oracle solver")
    add_common(p)
    p.add_argument("--mode", choices=["det", "rand"], required=True)
    p.set_defaults(func=cmd_brute_force)

    p = sub.add_parser("compare", help="solver vs oracle diff report")
    add_common(p)
    p.add_argument("--mode", choices=["det", "rand"], required=True)
    p.add_argument("--tol", type=float, default=None,
                   help=f"det-mode tolerance (default env ICX_TOL or {DEFAULT_TOL:g}); "
                        f"rand mode passes within {RAND_COMPARE_TOL:g}")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("check-costfn", help="monotonicity/submodularity checks")
    add_common(p)
    p.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    p.set_defaults(func=cmd_check_costfn)

    p = sub.add_parser("gen", help="generate a benchmark instance")
    p.add_argument("--family", choices=["intro", "gap", "nonic", "xos-hard"],
                   required=True)
    p.add_argument("--n", type=int, default=10, help="size for the gap family")
    p.add_argument("--k", type=int, default=7, help="prime size for xos-hard")
    p.add_argument("--m", type=int, default=None,
                   help="override the hidden-set size (experimental knob)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write instance JSON here")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("query-experiment", help="count queries needed to find the hidden set")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=None,
                   help="override the hidden-set size (experimental knob)")
    p.add_argument("--out", help="write stats JSON here")
    p.set_defaults(func=cmd_query_experiment)
    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    # One parser per process: parsing leaves no state in it, so reusing it
    # is invisible, and building one costs more than a small command does.
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # Looked up now, not bound when the parser was built.
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except serialization.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except randomized.SubmodularityError as exc:
        print(f"cost-class check failed: {exc}", file=sys.stderr)
        return 4
    except oracle.OracleSizeError as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return 5
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
