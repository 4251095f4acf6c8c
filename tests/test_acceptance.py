"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.  Expected total runtime is a few minutes; the randomized
solver-vs-oracle battery dominates.
"""

import math
import random

import pytest

from icx.costfn import CountingOracle, check_monotone, check_submodular, \
    check_xos_pointwise, demand_default
from icx.deterministic import solve_deterministic
from icx.families import (HardParams, demand_vt, gen_gap_instance,
                          gen_intro_example, gen_nonic_example, gen_xos_hard,
                          gap_reference_scheme, query_experiment,
                          unique_optimal_scheme, xos_certificate)
from icx.model import agent_utility, is_IC, principal_utility
from icx.oracle import (brute_force_deterministic, brute_force_randomized,
                        deterministic_non_ic_best, lp_best_distribution,
                        lp_min_cost_given_marginals, no_inspection_best)
from icx.randomized import nested_min_cost_distribution, solve_randomized
from conftest import (nested_marginal, nested_support_size, nested_total_mass,
                      random_instance, random_marginals, random_submodular_fn)

HARD7 = HardParams(7, frozenset([1, 2, 4, 5, 6, 7]))


def _report(line: str) -> None:
    print(f"\n{line}")


def test_criterion_1_intro_fixture():
    inst = gen_intro_example()

    _, _, plain = no_inspection_best(inst)
    assert plain == pytest.approx(0.5, abs=1e-12)

    det_best, _ = solve_deterministic(inst)
    assert det_best.utility == pytest.approx(11 / 20, abs=1e-12)

    rand_report = solve_randomized(inst)
    assert is_IC(inst, rand_report.scheme, 1e-12)
    _, oracle_utility = brute_force_randomized(inst)
    assert abs(rand_report.utility - oracle_utility) <= 1e-4
    # The oracle independently confirms the pinned regression value 71/120.
    assert oracle_utility == pytest.approx(71 / 120, abs=1e-6)
    assert rand_report.utility == pytest.approx(71 / 120, abs=1e-9)

    _report(
        "ACCEPTANCE 1 PASS: no-inspection 1/2, deterministic 11/20, randomized "
        "71/120 (oracle-confirmed). Note: the often-quoted randomized value "
        "17/28 for this instance belongs to the scheme (g, 7/20, inspect {g} "
        "w.p. 3/7), which is not IC under these utility semantics -- opting "
        "out pays the agent 1/50 > 0 -- so 71/120 is the reference value.")


def test_criterion_2_deterministic_solver_equals_brute_force():
    rng = random.Random(1002)
    worst = 0.0
    for trial in range(500):
        n = rng.randint(1, 7)
        inst = random_instance(rng, n)
        counted = CountingOracle(inst.cost_fn)
        best, _ = solve_deterministic(inst.with_cost_fn(counted))
        assert counted.value_queries <= n * n, f"trial {trial}: query budget"
        _, oracle_utility = brute_force_deterministic(inst)
        gap = abs(best.utility - oracle_utility)
        worst = max(worst, gap)
        assert gap <= 1e-9, f"trial {trial}: gap {gap}"
    _report(f"ACCEPTANCE 2 PASS: 500 instances, worst objective gap {worst:.2e}, "
            f"query budget n^2 respected.")


def test_criterion_3_nested_distribution_optimality():
    rng = random.Random(1003)
    worst = 0.0
    for trial in range(1000):
        g = rng.randint(1, 6)
        ground = [f"e{t}" for t in range(g)]
        fn = random_submodular_fn(rng, g)
        value_of = lambda s: fn.value(sum(1 << ground.index(e) for e in s))
        marginals = random_marginals(rng, ground)
        top = max(marginals.values())
        mass = top + rng.uniform(0.0, 1.0 - top)
        nd = nested_min_cost_distribution(ground, marginals, mass, value_of)
        assert abs(nested_total_mass(nd) - mass) <= 1e-12
        for e in ground:
            assert abs(nested_marginal(nd, e) - marginals[e]) <= 1e-12
        assert nested_support_size(nd) <= g + 1
        _, lp_cost = lp_min_cost_given_marginals(ground, marginals, mass, value_of)
        gap = abs(nd.expected_cost - lp_cost)
        worst = max(worst, gap)
        assert gap <= 1e-9, f"trial {trial}: nested vs LP gap {gap}"
    _report(f"ACCEPTANCE 3 PASS: 1000 marginal profiles, worst nested-vs-LP gap "
            f"{worst:.2e}; marginals, mass, support all within tolerance.")


def test_criterion_4_randomized_solver_vs_oracle():
    rng = random.Random(1004)
    worst = 0.0
    for trial in range(200):
        n = rng.randint(2, 6)
        inst = random_instance(rng, n, fn_kind="submodular")
        report = solve_randomized(inst)
        assert is_IC(inst, report.scheme, 1e-9), f"trial {trial}: IC"
        assert len(report.scheme.support()) <= n + 1, f"trial {trial}: support"
        det_best, _ = solve_deterministic(inst)
        assert report.utility >= det_best.utility - 1e-9, f"trial {trial}: vs det"
        _, oracle_utility = brute_force_randomized(inst)
        gap = abs(report.utility - oracle_utility)
        worst = max(worst, gap)
        assert gap <= 1e-4, f"trial {trial}: solver {report.utility} vs " \
                            f"oracle {oracle_utility}"
    _report(f"ACCEPTANCE 4 PASS: 200 submodular instances, worst solver-vs-oracle "
            f"gap {worst:.2e}; IC, support <= n+1, >= deterministic everywhere.")


def test_criterion_5_non_ic_example():
    inst, non_ic_scheme, refs = gen_nonic_example()

    report = solve_randomized(inst)
    exact = 1.45 - 2.0 * math.sqrt(0.3)
    assert report.utility == pytest.approx(exact, abs=1e-6)
    assert report.utility == pytest.approx(0.355, abs=1e-3)

    assert principal_utility(inst, non_ic_scheme, "2") == pytest.approx(
        0.425, abs=1e-12)

    _, det_ic = brute_force_deterministic(inst)
    non_ic_best = deterministic_non_ic_best(inst)
    assert non_ic_best <= det_ic + 1e-9

    _report(
        f"ACCEPTANCE 5 PASS: randomized IC optimum {report.utility:.6f} "
        f"(= 1.45 - 2*sqrt(0.3)); non-IC randomized reference evaluates to "
        f"0.425; no deterministic scheme, IC or not, beats the deterministic "
        f"IC optimum {det_ic:.6f}.")


def test_criterion_6_hidden_shift_instance():
    inst = gen_xos_hard(HARD7)
    fn = inst.cost_fn

    ok, _ = check_monotone(fn, mode="exhaustive")
    assert ok
    assert check_xos_pointwise(fn, xos_certificate(HARD7))

    ok, witness = check_submodular(fn, mode="exhaustive")
    assert not ok
    mask, i, j = witness
    assert fn.value(mask | (1 << j) | (1 << i)) - fn.value(mask | (1 << j)) > \
        fn.value(mask | (1 << i)) - fn.value(mask)

    scheme = unique_optimal_scheme(HARD7)
    assert is_IC(inst, scheme, 1e-12)
    for j in ("bot", "x", "1", "g"):
        assert abs(agent_utility(inst, scheme, j)) <= 1e-12
    assert principal_utility(inst, scheme, "g") == pytest.approx(847 / 960, abs=1e-12)

    lp_scheme, _ = lp_best_distribution(inst, "g", 0.1)
    ours = dict(scheme.distribution)
    theirs = dict(lp_scheme.distribution)
    tv = 0.5 * sum(abs(ours.get(s, 0.0) - theirs.get(s, 0.0))
                   for s in set(ours) | set(theirs))
    assert tv <= 1e-6

    _report(f"ACCEPTANCE 6 PASS: cost monotone + XOS-certified over all 1024 "
            f"subsets, submodularity witness found, reference scheme IC with "
            f"principal utility 847/960, fixed-payment LP matches it within "
            f"total variation {tv:.2e}.")


def test_criterion_7_gap_instance():
    inst = gen_gap_instance(10)
    det_best, _ = solve_deterministic(inst)
    assert det_best.utility <= 2 / 1024 + 1e-15

    ref = gap_reference_scheme(10)
    assert is_IC(inst, ref, 0.0)
    rand_utility = principal_utility(inst, ref, "9")
    assert rand_utility == 10 / 2048

    ratio = rand_utility / det_best.utility
    assert ratio >= 2.5
    _report(f"ACCEPTANCE 7 PASS: deterministic {det_best.utility} <= 2/1024, "
            f"randomized reference exactly 10/2048, ratio {ratio} >= 2.5.")


def test_criterion_8_query_experiment():
    standard = query_experiment(13, trials=500, seed=8)
    assert standard["classes"] == 6
    assert abs(standard["mean_queries"] - 3.5) <= 0.15 * 3.5

    override = query_experiment(13, trials=500, seed=8, m_override=7)
    assert override["classes"] == 132
    assert abs(override["mean_queries"] - 66.5) <= 0.10 * 66.5

    _report(
        f"ACCEPTANCE 8 PASS: k=13 mean queries {standard['mean_queries']:.3f} "
        f"(analytic 3.5); size-override 7 mean {override['mean_queries']:.2f} "
        f"(analytic 66.5), demonstrating class-count growth C(k,m)/k. The "
        f"exponential floor (5/4)^k/k = {standard['exponential_rate_floor']:.2f} "
        f"is not directly reproducible at desk scale; these class-count checks "
        f"stand in for it.")


def test_criterion_9_demand_shortcut_fidelity():
    rng = random.Random(1009)
    inst = gen_xos_hard(HARD7)
    fn = inst.cost_fn
    for trial in range(1000):
        prices = [rng.uniform(0.0, 2.2) for _ in range(inst.n)]
        fast = demand_vt(HARD7, prices)
        slow = demand_default(fn, prices)
        assert fast == slow, f"trial {trial}: {fast:b} vs {slow:b}"
    _report("ACCEPTANCE 9 PASS: shortcut demand oracle matches exhaustive "
            "enumeration on 1000 random price vectors (exact set equality).")
