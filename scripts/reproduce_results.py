#!/usr/bin/env python3
"""Regenerate the package's reference numbers end to end.

Covers: the three-action warm-up instance (plain contract vs deterministic
vs randomized inspection), the non-IC example, the deterministic-vs-
randomized gap family with the exhaustive deterministic oracle's
cross-check at n=10 and at its size limit n=12, the hidden-shift XOS
instance at k=7, and the query-count experiment at k=13 with and without
the size override.  Exits 1 when the oracle and the solver disagree.

Usage: python scripts/reproduce_results.py [--seed 8] [--trials 500]
"""

import argparse
import sys

from icx.costfn import check_monotone, check_submodular, check_xos_pointwise
from icx.deterministic import solve_deterministic
from icx.families import (gen_gap_instance, gen_intro_example,
                          gen_nonic_example, gen_xos_hard, gap_reference_scheme,
                          query_experiment, random_hard_params,
                          unique_optimal_scheme, xos_certificate)
from icx.model import agent_utility, is_IC, principal_utility
from icx.oracle import (DET_ORACLE_MAX_N, brute_force_deterministic,
                        brute_force_randomized, deterministic_non_ic_best,
                        lp_best_distribution, no_inspection_best)
from icx.randomized import solve_randomized


def line(label, value, note=""):
    print(f"  {label:<44} {value:<22} {note}")


def intro_section():
    print("== warm-up instance (3 actions, additive cost) ==")
    inst = gen_intro_example()
    _, _, plain = no_inspection_best(inst)
    line("best plain contract (no inspection)", f"{plain:.12f}", "= 1/2")
    det, _ = solve_deterministic(inst)
    line("best deterministic inspection", f"{det.utility:.12f}", "= 11/20")
    rand = solve_randomized(inst)
    line("best randomized inspection", f"{rand.utility:.12f}", "= 71/120")
    _, oracle = brute_force_randomized(inst)
    line("LP oracle cross-check", f"{oracle:.12f}")
    print("  note: the often-quoted 17/28 for this instance assumes the scheme")
    print("  (g, 7/20, inspect {g} w.p. 3/7), which is not IC here: opting out")
    print("  pays the agent 1/50 > 0. The verified optimum is 71/120.")
    print()


def nonic_section():
    print("== non-IC example (suggest the null action, inspect it) ==")
    inst, scheme, refs = gen_nonic_example()
    rand = solve_randomized(inst)
    line("best IC randomized", f"{rand.utility:.12f}", "= 1.45 - 2*sqrt(0.3)")
    line("non-IC scheme, agent plays action 2",
         f"{principal_utility(inst, scheme, '2'):.12f}", "= 0.425")
    _, det_ic = brute_force_deterministic(inst)
    line("best deterministic (IC)", f"{det_ic:.12f}")
    line("best deterministic (non-IC allowed)",
         f"{deterministic_non_ic_best(inst):.12f}", "no gain")
    print()


def gap_section(n=10):
    """Returns False when the exhaustive oracle disagrees with the solver."""
    print(f"== deterministic-vs-randomized gap family (n={n}) ==")
    inst = gen_gap_instance(n)
    det, _ = solve_deterministic(inst)
    ref = gap_reference_scheme(n)
    rand_ref = principal_utility(inst, ref, str(n - 1))
    line("deterministic optimum", f"{det.utility:.10f}", f"= 2/2^{n}")
    line("randomized reference scheme", f"{rand_ref:.10f}", f"= {n}/2^{n+1}")
    line("ratio", f"{rand_ref / det.utility:.3f}", f">= n/4 = {n / 4}")
    agree = True
    for m in (n, DET_ORACLE_MAX_N):
        other = gen_gap_instance(m)
        solved = solve_deterministic(other)[0].utility
        _, oracle = brute_force_deterministic(other)
        agree = agree and oracle == solved
        line(f"exhaustive oracle cross-check (n={m})", f"{oracle:.10f}",
             f"= solver = 2/2^{m}" if oracle == solved else f"solver: {solved!r}")
    print()
    return agree


def hard_section(seed):
    print("== hidden-shift XOS instance (k=7) ==")
    params = random_hard_params(7, seed)
    inst = gen_xos_hard(params)
    fn = inst.cost_fn
    line("hidden set T", str(sorted(params.T)))
    line("monotone (exhaustive, 2^10 sets)", str(check_monotone(fn)[0]))
    line("XOS certificate pointwise",
         str(check_xos_pointwise(fn, xos_certificate(params))))
    ok, witness = check_submodular(fn)
    line("submodular", f"{ok}", f"witness {witness}")
    scheme = unique_optimal_scheme(params)
    line("reference scheme IC", str(is_IC(inst, scheme, 1e-12)))
    line("principal utility", f"{principal_utility(inst, scheme, 'g'):.12f}",
         "= 847/960")
    worst = max(abs(agent_utility(inst, scheme, j)) for j in inst.ids)
    line("max |agent utility|", f"{worst:.2e}", "all indifferent")
    lp_scheme, _ = lp_best_distribution(inst, "g", 0.1)
    ours, theirs = dict(scheme.distribution), dict(lp_scheme.distribution)
    tv = 0.5 * sum(abs(ours.get(s, 0.0) - theirs.get(s, 0.0))
                   for s in set(ours) | set(theirs))
    line("fixed-payment LP vs reference (TV)", f"{tv:.2e}")
    print()


def experiment_section(seed, trials):
    print(f"== query-count experiment (k=13, {trials} trials, seed {seed}) ==")
    for override in (None, 7):
        stats = query_experiment(13, trials=trials, seed=seed, m_override=override)
        tag = "default m=11" if override is None else f"override m={override}"
        line(f"{tag}: classes C(k,m)/k", str(stats["classes"]))
        line(f"{tag}: mean queries", f"{stats['mean_queries']:.3f}",
             f"analytic {stats['analytic_mean_queries']}")
    print("  the exponential floor (5/4)^k/k only bites at scales far beyond")
    print("  desk-size k; the class counts above show the growth mechanism.")
    print()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--trials", type=int, default=500)
    args = parser.parse_args(argv)
    intro_section()
    nonic_section()
    agree = gap_section()
    hard_section(args.seed)
    experiment_section(args.seed, args.trials)
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
