import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icx import costfn
from icx.deterministic import solve_deterministic
from icx.families import gen_intro_example, gen_nonic_example
from icx.model import Action, Instance, ValidationError, is_IC, marginal
from icx.oracle import lp_min_cost_given_marginals
from icx.randomized import (SubmodularityError, assemble_scheme, breakpoints,
                            eta, nested_min_cost_distribution, solve_randomized,
                            solve_subproblem)
from conftest import (random_coupling, random_instance, random_marginals,
                      random_submodular_fn)


class TestEta:
    def test_intro_crossing_point(self):
        inst = gen_intro_example()
        assert eta(inst, "g", "bot", 0.375, 0.0) == pytest.approx(1 / 3, abs=1e-12)
        assert eta(inst, "g", "b", 0.375, 0.0) == pytest.approx(1 / 3, abs=1e-12)

    def test_free_deviation_identity(self):
        # At break-even payment, a zero-cost deviation needs full deterrence.
        inst = gen_intro_example()
        alpha = inst.c("g") / inst.f("g")
        assert eta(inst, "g", "bot", alpha, 0.25) == pytest.approx(0.75, abs=1e-12)

    def test_nonic_stationary_value(self):
        inst, _, _ = gen_nonic_example()
        a = math.sqrt(0.3)
        expected = 1.0 - (a - 0.4) / (0.4 * a)
        assert eta(inst, "2", "1", a, 0.0) == pytest.approx(expected, abs=1e-12)
        assert round(eta(inst, "2", "1", a, 0.0), 3) == 0.326

    def test_zero_success_deviation_rejected(self):
        inst, _, _ = gen_nonic_example()
        with pytest.raises(ValidationError):
            eta(inst, "2", "bot", 0.6, 0.0)


class TestNestedDistribution:
    def test_uniform_marginals_single_level(self):
        nd = nested_min_cost_distribution(["a", "b", "c"],
                                          {"a": 0.4, "b": 0.4, "c": 0.4}, 1.0)
        assert nd.levels == ((frozenset("abc"), 0.4),)
        assert nd.empty_mass == pytest.approx(0.6, abs=1e-15)

    def test_additive_cost_equals_marginal_sum(self):
        weights = {"a": 1.0, "b": 1.0}
        nd = nested_min_cost_distribution(
            ["a", "b"], {"a": 0.2, "b": 0.5}, 1.0,
            lambda s: sum(weights[e] for e in s))
        assert dict(nd.levels) == pytest.approx(
            {frozenset("ab"): 0.2, frozenset("b"): 0.3})
        assert nd.expected_cost == pytest.approx(0.7, abs=1e-12)

    def test_matches_lp_on_capped_cost(self):
        nd = nested_min_cost_distribution(["a", "b"], {"a": 0.2, "b": 0.5}, 1.0,
                                          lambda s: min(len(s), 1))
        _, lp_cost = lp_min_cost_given_marginals(["a", "b"],
                                                 {"a": 0.2, "b": 0.5}, 1.0,
                                                 lambda s: min(len(s), 1))
        assert nd.expected_cost == pytest.approx(lp_cost, abs=1e-9)
        assert nd.expected_cost == pytest.approx(0.5, abs=1e-12)

    def test_infeasible_mass(self):
        with pytest.raises(ValidationError):
            nested_min_cost_distribution(["a"], {"a": 0.9}, 0.5)

    def test_preserves_marginals_and_mass(self, rng):
        for trial in range(200):
            g = rng.randint(1, 6)
            ground = [f"e{t}" for t in range(g)]
            marg = random_marginals(rng, ground)
            top = max(marg.values())
            mass = top + rng.uniform(0.0, 1.0 - top)
            nd = nested_min_cost_distribution(ground, marg, mass)
            assert abs(nd.total_mass() - mass) <= 1e-12
            for e in ground:
                assert abs(nd.marginal(e) - marg[e]) <= 1e-12
            assert nd.support_size() <= g + 1

    def test_beats_random_couplings(self, rng):
        for trial in range(100):
            g = rng.randint(2, 6)
            ground = [f"e{t}" for t in range(g)]
            fn = random_submodular_fn(rng, g)
            value_of = lambda s: fn.value(sum(1 << ground.index(e) for e in s))
            marg = random_marginals(rng, ground)
            top = max(marg.values())
            mass = top + rng.uniform(0.0, 1.0 - top)
            nd = nested_min_cost_distribution(ground, marg, mass, value_of)
            coupling = random_coupling(rng, ground, marg, mass)
            for e in ground:
                got = sum(p for s, p in coupling if e in s)
                assert got == pytest.approx(marg[e], abs=1e-9)
            coupling_cost = sum(p * value_of(s) for s, p in coupling)
            assert nd.expected_cost <= coupling_cost + 1e-9


class TestBreakpoints:
    def test_intro_cutpoints(self):
        part = breakpoints(gen_intro_example(), "g")
        assert len(part.cutpoints) == 3
        assert part.cutpoints[0] == 0.0 and part.cutpoints[-1] == 1.0
        assert part.cutpoints[1] == pytest.approx(0.375, abs=1e-12)
        assert part.active == ("bot", "b")

    def test_two_actions_no_pairs(self):
        inst = Instance((Action("bot", 0.0, 0.0), Action("i", 0.2, 0.6)),
                        "bot", costfn.Additive([0.5, 0.5]))
        part = breakpoints(inst, "i")
        assert part.cutpoints == (0.0, 1.0)
        assert part.orders == ((),)

    def test_nonic_zero_success_pair_discarded(self):
        inst, _, _ = gen_nonic_example()
        part = breakpoints(inst, "2")
        assert part.cutpoints == (0.0, 1.0)
        assert part.orders == (("1",),)

    def test_order_invariance_within_intervals(self, rng):
        for trial in range(40):
            inst = random_instance(rng, rng.randint(2, 6), fn_kind="submodular")
            for a in inst.actions:
                if not a.prob > a.cost > 0:
                    continue
                part = breakpoints(inst, a.id)
                for ell in range(len(part.orders)):
                    lo, hi = part.cutpoints[ell], part.cutpoints[ell + 1]
                    if hi - lo < 1e-9:
                        continue
                    p_i = rng.random()
                    samples = [lo + (hi - lo) * rng.uniform(0.05, 0.95) for _ in range(2)]
                    orders = []
                    for alpha in samples:
                        keyed = sorted(
                            (eta(inst, a.id, j, alpha, p_i), inst.index(j), j)
                            for j in part.active)
                        orders.append(tuple(j for _, _, j in keyed))
                    assert orders[0] == orders[1] == part.orders[ell]


class TestSubproblem:
    def test_nonic_closed_form(self):
        inst, _, refs = gen_nonic_example()
        part = breakpoints(inst, "2")
        res = solve_subproblem(inst, part, 0, 0)
        assert res.feasible
        assert res.alpha == pytest.approx(math.sqrt(0.3), abs=1e-12)
        assert res.p_i == pytest.approx(0.0, abs=1e-12)
        assert inst.f("2") - res.objective == pytest.approx(
            refs["ic_randomized_optimum"], abs=1e-12)

    def test_intro_corner_optimum(self):
        inst = gen_intro_example()
        part = breakpoints(inst, "g")
        res = solve_subproblem(inst, part, 1, 0)
        assert res.feasible
        assert res.alpha == pytest.approx(3 / 8, abs=1e-9)
        assert res.p_i == pytest.approx(1 / 3, abs=1e-9)
        assert inst.f("g") - res.objective == pytest.approx(71 / 120, abs=1e-9)

    def test_infeasible_split(self):
        # The rival is so costly its constraint can never bind from below.
        inst = Instance((Action("bot", 0.0, 0.0), Action("i", 0.1, 0.5),
                         Action("j", 0.9, 0.6)), "bot",
                        costfn.Additive([0.1, 0.1, 0.1]))
        part = breakpoints(inst, "i")
        res = solve_subproblem(inst, part, 0, 0)
        assert not res.feasible

    def test_objective_matches_reassembled_cost(self, rng):
        # The telescoped objective must equal payment-rate + expected cost of
        # the assembled distribution.
        for trial in range(40):
            inst = random_instance(rng, rng.randint(2, 5), fn_kind="submodular")
            for a in inst.actions:
                if not a.prob > a.cost > 0:
                    continue
                part = breakpoints(inst, a.id)
                for ell in range(len(part.orders)):
                    for k in range(len(part.orders[ell]) + 1):
                        res = solve_subproblem(inst, part, ell, k)
                        if not res.feasible:
                            continue
                        scheme = assemble_scheme(inst, a.id, res, part, ell, k)
                        cost = sum(p * inst.inspection_cost(s)
                                   for s, p in scheme.distribution)
                        assert res.objective == pytest.approx(
                            res.alpha * a.prob + cost, abs=1e-9)


class TestAssemble:
    def test_single_binding_deviation(self):
        inst, _, refs = gen_nonic_example()
        part = breakpoints(inst, "2")
        res = solve_subproblem(inst, part, 0, 0)
        scheme = assemble_scheme(inst, "2", res, part, 0, 0)
        support = {s for s, p in scheme.distribution if p > 0}
        assert support == {frozenset(["1"]), frozenset()}
        assert marginal(scheme, "1") == pytest.approx(
            eta(inst, "2", "1", res.alpha, 0.0), abs=1e-12)
        assert is_IC(inst, scheme, 1e-9)

    def test_all_slack_degenerate_split(self):
        inst = Instance((Action("bot", 0.0, 0.0), Action("i", 0.1, 0.5),
                         Action("j", 0.9, 0.6)), "bot",
                        costfn.Additive([0.1, 0.1, 0.1]))
        part = breakpoints(inst, "i")
        k = len(part.orders[0])
        res = solve_subproblem(inst, part, 0, k)
        scheme = assemble_scheme(inst, "i", res, part, 0, k)
        assert {s for s, p in scheme.distribution if p > 0} <= {
            frozenset(["i"]), frozenset()}

    def test_tied_eta_rounding_above_one_is_clamped(self):
        # eta of 'bot' evaluates to 1.0000000000000002 at the winning payment
        # for a4; the marginal must be clamped before the chain construction.
        inst = Instance((Action("bot", 0.0, 0.3933961909846232),
                         Action("a1", 0.6875, 0.0),
                         Action("a2", 0.8250000000000001, 0.5161109927850797),
                         Action("a3", 0.41250000000000003, 1.0),
                         Action("a4", 0.0308734040208047, 0.7498460912931564)), "bot",
                        costfn.Additive([0.012775592938903875, 0.4305386178253532,
                                         0.2530005988152861, 0.1110556891054099,
                                         0.33926289157655803]))
        report = solve_randomized(inst)
        assert report.scheme.suggested == "a4"
        assert marginal(report.scheme, "bot") == pytest.approx(1.0, abs=1e-12)
        assert is_IC(inst, report.scheme, 1e-9)


class TestSolveRandomized:
    def test_intro(self):
        report = solve_randomized(gen_intro_example())
        assert report.utility == pytest.approx(71 / 120, abs=1e-9)
        assert report.scheme.suggested == "g"
        assert is_IC(gen_intro_example(), report.scheme, 1e-9)

    def test_nonic(self):
        inst, _, refs = gen_nonic_example()
        report = solve_randomized(inst)
        assert report.utility == pytest.approx(refs["ic_randomized_optimum"], abs=1e-9)

    def test_all_free_actions_shortcut(self):
        inst = Instance((Action("bot", 0.0, 0.2), Action("a", 0.0, 0.9)),
                        "bot", costfn.Additive([1.0, 1.0]))
        report = solve_randomized(inst)
        assert report.utility == pytest.approx(0.9, abs=1e-15)
        assert report.scheme.suggested == "a"
        assert report.payment == 0.0

    def test_rejects_non_submodular(self):
        fn = costfn.ExplicitTable([0.0, 0.0, 0.0, 1.0], validate=False)
        inst = Instance((Action("bot", 0.0, 0.1), Action("a", 0.2, 0.8)), "bot", fn)
        with pytest.raises(SubmodularityError):
            solve_randomized(inst)

    def test_beats_deterministic(self, rng):
        for trial in range(60):
            inst = random_instance(rng, rng.randint(1, 6), fn_kind="submodular")
            det_best, _ = solve_deterministic(inst)
            report = solve_randomized(inst)
            assert report.utility >= det_best.utility - 1e-9
            assert is_IC(inst, report.scheme, 1e-9)
            assert len(report.scheme.support()) <= inst.n + 1

    def test_report_decomposition(self):
        report = solve_randomized(gen_intro_example())
        inst = gen_intro_example()
        f_i = inst.f(report.scheme.suggested)
        assert report.utility == pytest.approx(
            f_i - report.payment - report.inspection_cost, abs=1e-9)

    def test_gap_instance_beats_reference(self):
        from icx.families import gen_gap_instance
        report = solve_randomized(gen_gap_instance(10))
        assert report.utility >= 10 / 2048 - 1e-12

    def test_matches_oracle_at_full_oracle_size(self, rng):
        from icx.oracle import brute_force_randomized
        for trial in range(15):
            inst = random_instance(rng, 7, fn_kind="submodular")
            report = solve_randomized(inst)
            _, oracle_utility = brute_force_randomized(inst, alpha_resolution=0.05)
            assert abs(report.utility - oracle_utility) <= 1e-4


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6),
       st.lists(st.floats(0, 1, allow_nan=False), min_size=6, max_size=6),
       st.floats(0, 1, allow_nan=False))
def test_nested_mass_feasibility_property(g, margs, slack):
    ground = [f"e{t}" for t in range(g)]
    marg = {e: margs[t] for t, e in enumerate(ground)}
    top = max(marg.values())
    mass = top + slack * (1.0 - top)
    nd = nested_min_cost_distribution(ground, marg, mass)
    assert abs(nd.total_mass() - mass) <= 1e-12
    assert all(p >= 0 for _, p in nd.levels)
    assert nd.empty_mass >= 0.0
