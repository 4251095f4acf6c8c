import hashlib
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icx import costfn, randomized
from icx.deterministic import solve_deterministic
from icx.families import (gen_intro_example, gen_nonic_example, gen_xos_hard,
                          random_hard_params)
from icx.model import Action, Instance, ValidationError, is_IC, marginal
from icx.oracle import lp_min_cost_given_marginals
from icx.randomized import (SubmodularityError, _eta_order, _intervals, _partition,
                            _Values, assemble_scheme, nested_min_cost_distribution,
                            solve_randomized, solve_subproblem)
from icx.serialization import canonical_dumps
from conftest import (Squared, nested_marginal, nested_support_size, nested_total_mass,
                      random_coupling, random_instance, random_marginals,
                      random_submodular_fn, scaled_rivals_instance)


def eta(inst, i, j, alpha, p_i):
    """Minimal inspection marginal on j making suggestion i weakly preferred.

    The id-based form of the bound the solver reads from each rival's curve.
    """
    fj = inst.f(j)
    if fj <= 0.0:
        raise ValidationError(f"eta undefined for f({j}) = 0; constraint is vacuous")
    if alpha <= 0.0:
        raise ValidationError("eta requires a positive payment")
    return 1.0 - p_i - (alpha * inst.f(i) - inst.c(i) + inst.c(j)) / (alpha * fj)


def partition(inst, i):
    """(cutpoints, orders, active) of suggestion i, with ids for action indices.

    `orders` holds the solver's eta order (`_eta_order` at the cutpoint
    midpoint) of every interval, those below break-even included."""
    f = [a.prob for a in inst.actions]
    c = [a.cost for a in inst.actions]
    curves, active, cutpoints = _partition(f, c, inst.index(i))
    ids = inst.ids
    orders = tuple(
        tuple(ids[x] for x in _eta_order(curves, active, 0.5 * (lo + hi)))
        for lo, hi in zip(cutpoints, cutpoints[1:]))
    return tuple(cutpoints), orders, tuple(ids[x] for x in active)


def intervals(inst, ii):
    """The interval contexts of suggestion index ii, with a memo of their own."""
    return _intervals(inst, ii, _Values(inst.cost_fn.value))


def interval(inst, i, ell):
    """Interval ell of suggestion i, which must reach the break-even payment."""
    return next(ctx for ctx in intervals(inst, inst.index(i)) if ctx.ell == ell)


def subproblem_objective(inst, i, order, k, alpha, p_i):
    """alpha*f(i) + p_i*v({i}) + sum_{t>=k} eta_t * (w_t - w_{t+1}), from ids.

    The id-based reference for the objective solve_subproblem evaluates;
    w[t] = v({order[t], ..., order[-1]}) with w[len] = 0.
    """
    w = [inst.inspection_cost(order[t:]) for t in range(len(order))] + [0.0]
    total = alpha * inst.f(i) + p_i * inst.inspection_cost([i])
    for t in range(k, len(order)):
        total += eta(inst, i, order[t], alpha, p_i) * (w[t] - w[t + 1])
    return total


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
            assert abs(nested_total_mass(nd) - mass) <= 1e-12
            for e in ground:
                assert abs(nested_marginal(nd, e) - marg[e]) <= 1e-12
            assert nested_support_size(nd) <= g + 1

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
        cutpoints, _, active = partition(gen_intro_example(), "g")
        assert len(cutpoints) == 3
        assert cutpoints[0] == 0.0 and cutpoints[-1] == 1.0
        assert cutpoints[1] == pytest.approx(0.375, abs=1e-12)
        assert active == ("bot", "b")

    def test_two_actions_no_pairs(self):
        inst = Instance((Action("bot", 0.0, 0.0), Action("i", 0.2, 0.6)),
                        "bot", costfn.Additive([0.5, 0.5]))
        cutpoints, orders, _ = partition(inst, "i")
        assert cutpoints == (0.0, 1.0)
        assert orders == ((),)

    def test_nonic_zero_success_pair_discarded(self):
        inst, _, _ = gen_nonic_example()
        cutpoints, orders, _ = partition(inst, "2")
        assert cutpoints == (0.0, 1.0)
        assert orders == (("1",),)

    def test_order_invariance_within_intervals(self, rng):
        for trial in range(40):
            inst = random_instance(rng, rng.randint(2, 6), fn_kind="submodular")
            for a in inst.actions:
                if not a.prob > a.cost > 0:
                    continue
                cutpoints, part_orders, active = partition(inst, a.id)
                for ell in range(len(part_orders)):
                    lo, hi = cutpoints[ell], cutpoints[ell + 1]
                    if hi - lo < 1e-9:
                        continue
                    p_i = rng.random()
                    samples = [lo + (hi - lo) * rng.uniform(0.05, 0.95) for _ in range(2)]
                    orders = []
                    for alpha in samples:
                        keyed = sorted(
                            (eta(inst, a.id, j, alpha, p_i), inst.index(j), j)
                            for j in active)
                        orders.append(tuple(j for _, _, j in keyed))
                    assert orders[0] == orders[1] == part_orders[ell]


class TestSubproblem:
    def test_nonic_closed_form(self):
        inst, _, refs = gen_nonic_example()
        res = solve_subproblem(interval(inst, "2", 0), 0)
        assert res is not None
        objective, alpha, p_i = res
        assert alpha == pytest.approx(math.sqrt(0.3), abs=1e-12)
        assert p_i == pytest.approx(0.0, abs=1e-12)
        assert inst.f("2") - objective == pytest.approx(
            refs["ic_randomized_optimum"], abs=1e-12)

    def test_intro_corner_optimum(self):
        inst = gen_intro_example()
        res = solve_subproblem(interval(inst, "g", 1), 0)
        assert res is not None
        objective, alpha, p_i = res
        assert alpha == pytest.approx(3 / 8, abs=1e-9)
        assert p_i == pytest.approx(1 / 3, abs=1e-9)
        assert inst.f("g") - objective == pytest.approx(71 / 120, abs=1e-9)

    def test_infeasible_split(self):
        # The rival is so costly its constraint can never bind from below.
        inst = Instance((Action("bot", 0.0, 0.0), Action("i", 0.1, 0.5),
                         Action("j", 0.9, 0.6)), "bot",
                        costfn.Additive([0.1, 0.1, 0.1]))
        res = solve_subproblem(interval(inst, "i", 0), 0)
        assert res is None

    def test_objective_matches_reassembled_cost(self, rng):
        # The telescoped objective must equal payment-rate + expected cost of
        # the assembled distribution.
        for trial in range(40):
            inst = random_instance(rng, rng.randint(2, 5), fn_kind="submodular")
            for ii, a in enumerate(inst.actions):
                if not a.prob > a.cost > 0:
                    continue
                for ctx in intervals(inst, ii):
                    for k in range(len(ctx.order) + 1):
                        res = solve_subproblem(ctx, k)
                        if res is None:
                            continue
                        objective, alpha, p_i = res
                        scheme = assemble_scheme(inst, ctx, k, alpha, p_i)
                        cost = sum(p * inst.inspection_cost(s)
                                   for s, p in scheme.distribution)
                        assert objective == pytest.approx(
                            alpha * a.prob + cost, abs=1e-9)

    def test_objective_equals_id_based_reference(self, rng):
        # The index-native evaluation keeps eta's float operation order, so
        # it reproduces the id-based reference bit for bit.  Splits run from
        # the last down, so each one extends the suffix values read so far.
        for trial in range(40):
            inst = random_instance(rng, rng.randint(2, 7), fn_kind="submodular")
            for ii, a in enumerate(inst.actions):
                if not a.prob > a.cost > 0:
                    continue
                _, orders, _ = partition(inst, a.id)
                for ctx in intervals(inst, ii):
                    for k in reversed(range(len(ctx.order) + 1)):
                        res = solve_subproblem(ctx, k)
                        if res is not None:
                            objective, alpha, p_i = res
                            assert objective == subproblem_objective(
                                inst, a.id, orders[ctx.ell], k, alpha, p_i)


# ---------------------------------------------------------------------------
# Interval orders and the per-interval cut lists, against an independent
# per-interval midpoint sort and the per-split cut grid the lists replaced
# ---------------------------------------------------------------------------


def midpoint_partition(f, c, ii):
    """(curves, cutpoints, orders) with every interval's order, those below
    break-even included, sorted at its midpoint by the key (h(mid), index)."""
    fi, ci = f[ii], c[ii]
    curves = [None] * len(f)
    active = []
    for x, (fx, cx) in enumerate(zip(f, c)):
        if x != ii and fx > 0.0:
            active.append(x)
            curves[x] = (1.0 - fi / fx, (ci - cx) / fx,
                         None if fi == fx else (ci - cx) / (fi - fx), (ci - cx) / fi)
    pts = []
    for s, x in enumerate(active):
        fx, cx = f[x], c[x]
        for y in active[s + 1:]:
            fy = f[y]
            if fx == fy:
                continue
            alpha = ((ci - cx) * fy - (ci - c[y]) * fx) / ((fy - fx) * fi)
            if costfn.EQ_TOL < alpha < 1.0 - costfn.EQ_TOL:
                pts.append(alpha)
    pts.sort()
    cutpoints = [0.0]
    for p in pts:
        if p - cutpoints[-1] > costfn.EQ_TOL:
            cutpoints.append(p)
    cutpoints.append(1.0)
    orders = []
    for ell in range(len(cutpoints) - 1):
        mid = 0.5 * (cutpoints[ell] + cutpoints[ell + 1])
        orders.append(sorted(active, key=lambda x: (curves[x][0] + curves[x][1] / mid, x)))
    return curves, cutpoints, orders


def grid_spans(ctx, k):
    """The alpha-pieces of split k as the screen cut them before the cut
    lists: {lo, hi} and each boundary curve's 0/1 payments inside, sorted."""
    lo, hi = ctx.lo, ctx.hi
    below = ctx.curves[k - 1] if k >= 1 else None
    above = ctx.curves[k] if k < len(ctx.order) else None
    cuts = {lo, hi}
    for curve in (below, above):
        if curve is not None:
            for x in curve[2:]:
                if x is not None and lo < x < hi:
                    cuts.add(x)
    grid = sorted(cuts)
    return list(zip(grid, grid[1:])) if len(grid) > 1 else [(lo, hi)]


def near_coincident_instance(rng, trial):
    """Suggestion "i" (f = 0.9, c = 0.3) and 4-8 rivals whose curves all pass
    through one point (alpha*, h*), their costs nudged by up to 10**-11.5:
    the crossings land within a few EQ_TOL of each other, so cutpoints
    merge, some intervals are narrower than 1e-11, and blocks of rivals
    swap at one cutpoint."""
    fi, ci = 0.9, 0.3
    alpha, h = rng.uniform(0.45, 0.55), rng.uniform(0.1, 0.3)
    actions = [Action("bot", 0.0, 0.0), Action("i", ci, fi)]
    for idx in range(4 + trial % 5):
        fx = rng.uniform(0.45, 1.0)
        nudge = rng.uniform(-1.0, 1.0) * 10.0 ** -rng.uniform(11.5, 14)
        cx = ci - alpha * (fi - fx * (1.0 - h)) + nudge
        actions.append(Action(f"r{idx}", max(cx, 0.0), fx))
    return Instance(tuple(actions), "bot", costfn.Additive(
        [rng.uniform(0.0, 0.5) for _ in actions]))


# Near-coincident instances (probabilities, costs; suggestion "i") where a
# rounded key moves a pair's flip to the neighbouring interval: in
# "flip-late" rivals r1 and r2 tie at the midpoint of the interval their
# crossing falls in, and in "flip-early" a pair is already out of order at
# the midpoint before its crossing's interval.
NEAR_TIES = {
    "flip-late": (
        [0.0, 0.9, 0.4777958072526282, 0.7712528205298668, 0.7112332409994244,
         0.6271396812500889, 0.6971219627834507],
        [0.0, 0.3, 0.05631597394681256, 0.17560659023887665, 0.15120856154012452,
         0.11702443195787661, 0.14547231057750812]),
    "flip-early": (
        [0.0, 0.9, 0.8005138922288564, 0.515183890876941, 0.8806620458006579,
         0.6298662367230852, 0.6517253656592935],
        [0.0, 0.3, 0.17407026655815463, 0.06041965747394794, 0.2059943068875359,
         0.10609911072036103, 0.1148058828996139]),
}


def near_tie_instance(label):
    """The NEAR_TIES instance `label`: actions "bot", "i", "r1", "r2", ...,
    each with additive cost weight 0.1."""
    probs, costs = NEAR_TIES[label]
    actions = [Action("bot" if t == 0 else "i" if t == 1 else f"r{t - 1}", cost, prob)
               for t, (prob, cost) in enumerate(zip(probs, costs))]
    return Instance(tuple(actions), "bot", costfn.Additive([0.1] * len(actions)))


def sweep_battery():
    """General-position instances at n = 3..20 (the submodular type cycling
    with n), tied instances at n = 2..7, scaled rivals at 1e-3..1e-11,
    near-coincident cutpoints, and the two NEAR_TIES instances."""
    for n in range(3, 21):
        yield gp_instance(random.Random(7000 * n), n, GOLDEN_KINDS[n % 4])
    rng = random.Random(2301)
    for trial in range(120):
        yield random_instance(rng, 2 + trial % 6, fn_kind="submodular")
    for trial in range(90):
        scale = 3 + trial % 9
        yield scaled_rivals_instance(rng, trial, scale, scale)
    for trial in range(150):
        yield near_coincident_instance(rng, trial)
    for label in NEAR_TIES:
        yield near_tie_instance(label)


def eligible(inst):
    return [ii for ii, a in enumerate(inst.actions) if a.prob > a.cost > 0.0]


class TestSweepAndCutLists:
    @staticmethod
    def assert_midpoint_orders(inst, ii):
        f = [a.prob for a in inst.actions]
        c = [a.cost for a in inst.actions]
        ref_curves, ref_cutpoints, ref_orders = midpoint_partition(f, c, ii)
        curves, active, cutpoints = _partition(f, c, ii)
        assert (curves, cutpoints) == (ref_curves, ref_cutpoints)
        assert active == [x for x, curve in enumerate(curves) if curve is not None]
        live = 0
        for ctx in intervals(inst, ii):
            assert ctx.order == ref_orders[ctx.ell]
            live += 1
        return cutpoints, live

    def test_orders_equal_midpoint_sort(self):
        suggestions = live = 0
        for inst in sweep_battery():
            for ii in eligible(inst):
                live += self.assert_midpoint_orders(inst, ii)[1]
                suggestions += 1
        assert suggestions > 1000 and live > 10000

    @pytest.mark.parametrize("label", sorted(NEAR_TIES))
    def test_near_tie_flips_follow_the_midpoint_sort(self, label):
        cutpoints, live = self.assert_midpoint_orders(near_tie_instance(label), 1)
        assert len(cutpoints) < 11  # 10 crossings in (0, 1), some merged
        assert live > 0

    def test_pieces_equal_cut_grid(self, monkeypatch):
        # The screen evaluates both boundary curves at each piece's midpoint
        # before the split reads any cost (`fill`), so the recorded payments
        # up to the first fill are the pieces' midpoints, twice each.
        calls = []
        level, fill = randomized._level, randomized._Interval.fill

        def recorded_level(curve, alpha, missing):
            calls.append(alpha)
            return level(curve, alpha, missing)

        def recorded_fill(ctx, k):
            calls.append(None)
            fill(ctx, k)

        monkeypatch.setattr(randomized, "_level", recorded_level)
        monkeypatch.setattr(randomized._Interval, "fill", recorded_fill)
        single = multiple = 0
        for inst in sweep_battery():
            for ii in eligible(inst):
                for ctx in intervals(inst, ii):
                    for t, curve in enumerate(ctx.curves):
                        assert sorted(ctx.cuts[t]) == sorted(
                            x for x in curve[2:] if x is not None and ctx.lo < x < ctx.hi)
                    for k in range(len(ctx.order) + 1):
                        spans = grid_spans(ctx, k)
                        calls.clear()
                        solve_subproblem(ctx, k)
                        screened = calls[:calls.index(None)] if None in calls else calls
                        assert screened[::2] == screened[1::2]
                        assert screened[::2] == [0.5 * (a0 + a1) for a0, a1 in spans]
                        if len(spans) == 1:
                            single += 1
                        else:
                            multiple += 1
        assert single > 0 and multiple > 0


class TestAssemble:
    def test_single_binding_deviation(self):
        inst, _, refs = gen_nonic_example()
        ctx = interval(inst, "2", 0)
        _, alpha, p_i = solve_subproblem(ctx, 0)
        scheme = assemble_scheme(inst, ctx, 0, alpha, p_i)
        support = {s for s, p in scheme.distribution if p > 0}
        assert support == {frozenset(["1"]), frozenset()}
        assert marginal(scheme, "1") == pytest.approx(
            eta(inst, "2", "1", alpha, 0.0), abs=1e-12)
        assert is_IC(inst, scheme, 1e-9)

    def test_all_slack_degenerate_split(self):
        inst = Instance((Action("bot", 0.0, 0.0), Action("i", 0.1, 0.5),
                         Action("j", 0.9, 0.6)), "bot",
                        costfn.Additive([0.1, 0.1, 0.1]))
        ctx = interval(inst, "i", 0)
        k = len(ctx.order)
        _, alpha, p_i = solve_subproblem(ctx, k)
        scheme = assemble_scheme(inst, ctx, k, alpha, p_i)
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

    def test_equal_free_actions_suggest_lower_index(self):
        from icx.oracle import brute_force_randomized
        inst = Instance((Action("bot", 0.0, 0.2), Action("a", 0.0, 0.9),
                         Action("b", 0.0, 0.9)), "bot", costfn.Additive([1.0] * 3))
        report = solve_randomized(inst)
        assert report.provenance == {"kind": "zero_cost", "suggested": "a"}
        assert brute_force_randomized(inst)[0].suggested == "a"

    def test_identical_paid_actions_suggest_lower_index(self):
        inst = Instance((Action("bot", 0.0, 0.1), Action("a", 0.1, 0.6),
                         Action("b", 0.1, 0.6)), "bot", costfn.Additive([0.05] * 3))
        report = solve_randomized(inst)
        assert report.scheme.suggested == "a"
        assert report.provenance["kind"] == "subproblem"
        assert report.provenance["alpha"] == pytest.approx(0.2, abs=1e-12)
        assert report.utility == pytest.approx(0.48, abs=1e-12)

    def test_rejects_non_submodular(self):
        fn = costfn.ExplicitTable([0.0, 0.0, 0.0, 1.0])
        inst = Instance((Action("bot", 0.0, 0.1), Action("a", 0.2, 0.8)), "bot", fn)
        with pytest.raises(SubmodularityError):
            solve_randomized(inst)

    def test_rejects_subclass_overriding_only_value(self):
        inst = gen_intro_example().with_cost_fn(Squared([0.5, 0.25, 1.0]))
        with pytest.raises(SubmodularityError, match=r"witness \(0, 0, 1\)"):
            solve_randomized(inst)

    def test_large_additive_weights_not_refused(self):
        # (22000 + 0.88) - 22000 rounds 1e-12 away from 0.88, so an exhaustive
        # scan with an absolute tolerance reports a violation at (0, 0, 2).
        from icx.oracle import brute_force_randomized
        inst = gen_intro_example().with_cost_fn(costfn.Additive([0.88, 40.0, 22000.0]))
        report = solve_randomized(inst)
        _, oracle_utility = brute_force_randomized(inst)
        assert abs(report.utility - oracle_utility) <= 1e-6
        assert is_IC(inst, report.scheme, 1e-9)

    @pytest.mark.parametrize("kind", ["budget", "coverage"])
    def test_large_typed_weights_match_oracle(self, kind):
        from icx.oracle import brute_force_randomized
        rng = random.Random(7)
        for n in range(2, 7):
            for trial in range(4):
                weight = [10.0 ** rng.uniform(4, 7) for _ in range(n)]
                if kind == "budget":
                    fn = costfn.BudgetAdditive(weight, rng.uniform(0.3, 0.9) * sum(weight))
                else:
                    universe = rng.randint(3, 6)
                    fn = costfn.WeightedCoverage(
                        universe, [rng.randint(1, (1 << universe) - 1) for _ in range(n)],
                        [10.0 ** rng.uniform(4, 7) for _ in range(universe)])
                actions = [Action("bot", 0.0, rng.random())]
                for j in range(1, n):
                    prob = rng.random()
                    actions.append(Action(f"a{j}", prob * rng.uniform(0.0, 0.8), prob))
                inst = Instance(tuple(actions), "bot", fn)
                report = solve_randomized(inst)
                _, oracle_utility = brute_force_randomized(inst)
                assert abs(report.utility - oracle_utility) <= 1e-6
                assert is_IC(inst, report.scheme, 1e-9)

    def test_class_check_only_without_type_guarantee(self, monkeypatch):
        from icx import randomized
        scans = []
        check = randomized.check_submodular
        monkeypatch.setattr(randomized, "check_submodular",
                            lambda fn, **kw: scans.append(fn.n) or check(fn, **kw))
        rng = random.Random(3)
        typed = random_instance(rng, 11, fn=random_submodular_fn(rng, 11, "coverage"))
        report = solve_randomized(typed.with_cost_fn(costfn.CountingOracle(typed.cost_fn)))
        assert (scans, report.warnings) == ([], ())
        # Any other cost is checked up to n = 16 exhaustively, with no warning.
        table = typed.with_cost_fn(costfn.ExplicitTable(typed.cost_fn.table()))
        assert solve_randomized(table).warnings == ()
        assert scans == [11]
        small = random_instance(rng, 10, fn=costfn.ExplicitTable(
            random_submodular_fn(rng, 10, "budget").table()))
        assert solve_randomized(small).warnings == ()
        assert scans == [11, 10]

    @pytest.mark.parametrize("k", [11, 13])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hidden_shift_refused_exhaustively(self, k, seed):
        # n = 14 and 16: the whole table is scanned, and a witness found.
        inst = gen_xos_hard(random_hard_params(k, seed))
        with pytest.raises(SubmodularityError):
            solve_randomized(inst)

    def test_hidden_shift_refused_by_sample(self):
        inst = gen_xos_hard(random_hard_params(17, 0))
        assert costfn.check_mode(inst.cost_fn) == "sampled"
        with pytest.raises(SubmodularityError):
            solve_randomized(inst)

    def test_sampled_check_without_witness_warns(self):
        rng = random.Random(20)
        clause = [rng.uniform(0.0, 0.6) for _ in range(20)]
        inst = random_instance(rng, 20, fn=costfn.XOSClauses([clause]))
        report = solve_randomized(inst)
        assert report.warnings == (
            "submodularity sampled, not proven (n > 16): no violation in 1000 random draws",)
        assert is_IC(inst, report.scheme, 1e-9)

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

    def test_scaled_rivals_feasibility_slack(self, rng, monkeypatch):
        # Rivals with prob 1e-3..1e-7 against action costs up to 0.2 make
        # h_j = a + b/alpha a difference of terms up to ~1e7, so its rounding
        # error reaches the 1e-12 feasibility slack: at ten times that slack
        # some winners are found under another split index k.  The scheme
        # and utility must not move, and must match the LP oracle.
        from icx import randomized
        from icx.oracle import brute_force_randomized
        insts = [scaled_rivals_instance(rng, trial, 3, 7) for trial in range(300)]
        reports = [solve_randomized(inst) for inst in insts]
        for inst, report in zip(insts[:40], reports):
            _, oracle_utility = brute_force_randomized(inst)
            assert abs(report.utility - oracle_utility) <= 1e-6
        monkeypatch.setattr(randomized, "EQ_TOL", 1e-11)
        relabelled = 0
        for inst, report in zip(insts, reports):
            wide = solve_randomized(inst)
            assert (wide.utility, wide.scheme.alpha) == (report.utility, report.scheme.alpha)
            assert wide.scheme.distribution == report.scheme.distribution
            relabelled += wide.provenance.get("k") != report.provenance.get("k")
        assert relabelled > 0

    def test_matches_oracle_at_full_oracle_size(self, rng):
        from icx.oracle import brute_force_randomized
        for trial in range(15):
            inst = random_instance(rng, 7, fn_kind="submodular")
            report = solve_randomized(inst)
            _, oracle_utility = brute_force_randomized(inst)
            assert abs(report.utility - oracle_utility) <= 1e-4


# Rivals whose success probability is ~1e-9 of the suggestion's or smaller:
# h_j = a + b/alpha then cancels terms of size ~1e10, and the solver picks a
# candidate whose closed-form objective claims far more than its scheme
# delivers.  Each test passes once that arithmetic is robust.  Entries are
# ((cost, prob) per action, cost weights, the LP oracle's utility).
ILL_SCALED = {
    # bot, a1, a2, a3; solver 0.3291.
    "four-actions": (
        [(0.0, 3.6e-12), (0.00104, 0.502), (0.0188, 0.598), (0.197, 0.685)],
        [1.67, 0.65, 1.85, 0.16], 0.50096),
    # Instance 119 of the test_scaled_rivals_feasibility_slack generator with
    # rival probabilities 10**-randint(8, 11) and random.Random(12345);
    # solver 0.1572.
    "scaled-rivals-119": (
        [(0.0, 1.3927487172427997e-12), (0.02124095740548375, 0.7727433017749554),
         (0.06216838204461173, 0.3717829491117016), (0.1896013663473572, 0.7015888386999365),
         (0.18124518695096958, 8.297976080830008e-12),
         (0.015726713858400538, 0.31128884231788934)],
        [1.4317132894364224, 1.3093165679784518, 0.18239956830785164,
         1.2466100288301145, 0.7495184627835358, 0.7522786032074369], 0.7515023),
}


def ill_scaled_instance(label):
    pairs, weights, _ = ILL_SCALED[label]
    actions = [Action("bot" if t == 0 else f"a{t}", cost, prob)
               for t, (cost, prob) in enumerate(pairs)]
    return Instance(tuple(actions), "bot", costfn.Additive(weights))


@pytest.mark.parametrize("label", sorted(ILL_SCALED))
def test_ill_scaled_oracle_values(label):
    # Pinned so that the strict xfail below keeps failing for the solver's
    # reason, not the oracle's.
    from icx.oracle import brute_force_randomized
    _, oracle_utility = brute_force_randomized(ill_scaled_instance(label))
    assert oracle_utility == pytest.approx(ILL_SCALED[label][2], abs=1e-6)


@pytest.mark.xfail(strict=True, reason="h_j cancels catastrophically on ill-scaled rivals")
@pytest.mark.parametrize("label", sorted(ILL_SCALED))
def test_ill_scaled_rivals_match_oracle(label):
    from icx.oracle import brute_force_randomized
    inst = ill_scaled_instance(label)
    _, oracle_utility = brute_force_randomized(inst)
    assert abs(solve_randomized(inst).utility - oracle_utility) <= 1e-7


GOLDEN_KINDS = ["additive", "budget", "coverage", "concave"]


def golden_corpus():
    """Seeded instances for n = 3..14 and each submodular cost type, in two styles.

    "tied" instances come from `random_instance` (grid values, so equal
    success probabilities, equal costs and free actions recur); "gp"
    instances draw every cost and probability uniformly, with costs below
    the probability so that most actions are worth suggesting.
    """
    for n in range(3, 15):
        for t, kind in enumerate(GOLDEN_KINDS):
            rng = random.Random(1000 * n + t)
            fn = random_submodular_fn(rng, n, kind)
            yield f"tied-{kind}-{n}", random_instance(rng, n, fn=fn)
            yield f"gp-{kind}-{n}", gp_instance(random.Random(5000 * n + t), n, kind)


def gp_instance(rng, n, kind):
    """Every cost and probability drawn uniformly, costs below the probability."""
    actions = [Action("bot", 0.0, rng.random())]
    for j in range(1, n):
        prob = rng.random()
        actions.append(Action(f"a{j}", prob * rng.uniform(0.0, 0.8), prob))
    return Instance(tuple(actions), "bot", random_submodular_fn(rng, n, kind))


def golden_entry(inst):
    """(sha256 prefix of the canonical report JSON, value queries) of one solve."""
    counted = costfn.CountingOracle(inst.cost_fn)
    report = solve_randomized(inst.with_cost_fn(counted))
    text = canonical_dumps(report.to_dict())
    return hashlib.sha256(text.encode()).hexdigest()[:16], counted.value_queries


# Report hashes recorded from the id-based solver that preceded the
# index-native core; query counts are the current solver's.  These costs are
# submodular by type, so no solve scans their 2^n values, and at n >= 11
# the reports carry no "submodularity unverified" warning (each such report
# is the id-based solver's with that warning taken out).
GOLDEN = {
    "tied-additive-3": ("0fcdc90b087dc96f", 1),
    "gp-additive-3": ("55d5f771953f9fc5", 6),
    "tied-budget-3": ("07ec15f3d9c4e9a4", 3),
    "gp-budget-3": ("40a4756e8c94f854", 5),
    "tied-coverage-3": ("4731d4bd7d711e97", 1),
    "gp-coverage-3": ("ed628c838804f74e", 5),
    "tied-concave-3": ("527fb683a5ca7ec0", 3),
    "gp-concave-3": ("c8e10dba8a289f24", 5),
    "tied-additive-4": ("54930b888f407a3f", 7),
    "gp-additive-4": ("8f6f469559060ba8", 9),
    "tied-budget-4": ("c24ed394baeece5e", 3),
    "gp-budget-4": ("840d753325780359", 8),
    "tied-coverage-4": ("a935d4a16a99490c", 3),
    "gp-coverage-4": ("8da2bad7b6f2a1c7", 10),
    "tied-concave-4": ("297b36e91268e5ad", 5),
    "gp-concave-4": ("1b777501fbea30e2", 8),
    "tied-additive-5": ("e3b79051f286259c", 7),
    "gp-additive-5": ("ce26be596ffd2a31", 14),
    "tied-budget-5": ("353ed834b4e74c6e", 3),
    "gp-budget-5": ("5264f0d80e010b8b", 11),
    "tied-coverage-5": ("92bc430511f8f3c3", 5),
    "gp-coverage-5": ("bb6c6bf52c607542", 12),
    "tied-concave-5": ("c4e2938599623fd0", 12),
    "gp-concave-5": ("1aa20fd8dc61fa52", 11),
    "tied-additive-6": ("6ec26ac7cb884560", 6),
    "gp-additive-6": ("75fd0b5a05b27f0a", 13),
    "tied-budget-6": ("b4b4157b97754a03", 8),
    "gp-budget-6": ("1b82d61530cfaf73", 11),
    "tied-coverage-6": ("0610f1b65d29f8a6", 7),
    "gp-coverage-6": ("f4b549ce90f0b6af", 20),
    "tied-concave-6": ("dad681a1bc17f150", 7),
    "gp-concave-6": ("20d1e423d8710d86", 15),
    "tied-additive-7": ("83ed6ea36f382a8f", 7),
    "gp-additive-7": ("992c1d43e45905a7", 19),
    "tied-budget-7": ("e659739b6831d317", 10),
    "gp-budget-7": ("d98aca9ebd8429b8", 20),
    "tied-coverage-7": ("53e48de8d7199e97", 9),
    "gp-coverage-7": ("4dda33b4af1d8664", 15),
    "tied-concave-7": ("8604170e357622dd", 11),
    "gp-concave-7": ("d871f50b23f6361e", 25),
    "tied-additive-8": ("e20f753bb32587cb", 12),
    "gp-additive-8": ("f9cffb6bf8be1753", 19),
    "tied-budget-8": ("078ae46d9508db2b", 16),
    "gp-budget-8": ("12a9d9335df07e41", 19),
    "tied-coverage-8": ("45c4e6c49e6f1182", 10),
    "gp-coverage-8": ("2e69d6384a2cbc13", 17),
    "tied-concave-8": ("46a039e22122ef50", 16),
    "gp-concave-8": ("e3a1fd59fa5fa0d9", 16),
    "tied-additive-9": ("03bf652444a4e31e", 12),
    "gp-additive-9": ("370b8fab0edf767d", 24),
    "tied-budget-9": ("a032869cf1029e34", 10),
    "gp-budget-9": ("c7afeb619ccc2d1c", 30),
    "tied-coverage-9": ("a32e851dd5aec6be", 19),
    "gp-coverage-9": ("693e804941534a4d", 31),
    "tied-concave-9": ("8c5ee2b25fcb5792", 7),
    "gp-concave-9": ("bccac96b6eb30a56", 29),
    "tied-additive-10": ("3b2899c645c47f65", 16),
    "gp-additive-10": ("7e0c95f15aa6245c", 24),
    "tied-budget-10": ("52da65dc48ed8ba8", 19),
    "gp-budget-10": ("f0dc7e85bac459b8", 30),
    "tied-coverage-10": ("579cf6362b766c67", 9),
    "gp-coverage-10": ("1694947a1c2ababd", 30),
    "tied-concave-10": ("101b6b08803c6608", 16),
    "gp-concave-10": ("6f4c068396489974", 25),
    "tied-additive-11": ("99b5580d5a3d4e18", 15),
    "gp-additive-11": ("50cf95f6cc35d26e", 39),
    "tied-budget-11": ("17f628cd8f989e8d", 16),
    "gp-budget-11": ("589f938b8817aaa4", 41),
    "tied-coverage-11": ("e537a88f409fcc8f", 13),
    "gp-coverage-11": ("1c08fd92081c770b", 39),
    "tied-concave-11": ("468d176ab64320a0", 13),
    "gp-concave-11": ("f9815657750c53d8", 45),
    "tied-additive-12": ("68919c4cc0ad3c43", 17),
    "gp-additive-12": ("5814de96f52a4210", 41),
    "tied-budget-12": ("94e92106d6689d73", 13),
    "gp-budget-12": ("e939c5335d13e386", 40),
    "tied-coverage-12": ("faa16179b9b3997d", 19),
    "gp-coverage-12": ("e97a21d844afcce0", 47),
    "tied-concave-12": ("3cd964c0431980d1", 18),
    "gp-concave-12": ("baa235cbb675a676", 39),
    "tied-additive-13": ("7b944f83ae4ff5b8", 14),
    "gp-additive-13": ("f3dfef733e69b41e", 40),
    "tied-budget-13": ("46fb5d02c9660291", 9),
    "gp-budget-13": ("9dddcd88c7ef6bb7", 53),
    "tied-coverage-13": ("26981221546c41d3", 36),
    "gp-coverage-13": ("b94c41a254516e3a", 44),
    "tied-concave-13": ("57f114d57ea31f27", 17),
    "gp-concave-13": ("c57ace9a45fffdd7", 50),
    "tied-additive-14": ("8615469306ceb8ef", 25),
    "gp-additive-14": ("381f30f6b2e6c4ba", 44),
    "tied-budget-14": ("c5655edc99ee2187", 28),
    "gp-budget-14": ("0ac84d6f89fbe221", 63),
    "tied-coverage-14": ("c44edb94529f6e66", 29),
    "gp-coverage-14": ("13298286ee07a052", 47),
    "tied-concave-14": ("2e2430ceee86d6ae", 19),
    "gp-concave-14": ("f942bb4d860bfc12", 51),
}

# From CPython 3.12 on, sum() of floats is compensated, which moves the last
# bits of these reports (the same at the id-based solver).
if sys.version_info >= (3, 12):
    GOLDEN.update({
        "tied-budget-7": ("d613d890fe8bf64f", 10),
        "gp-budget-8": ("2512703246047916", 19),
        "gp-budget-9": ("12d56bcc14cbe374", 30),
        "tied-budget-11": ("31a465b5adc078ad", 16),
        "gp-budget-11": ("818ced6428e38d00", 41),
        "tied-budget-13": ("bcefab5c0e10a626", 9),
        "gp-budget-13": ("0b19f01cba2f2375", 53),
    })


def test_golden_reports_and_query_counts():
    got = {label: golden_entry(inst) for label, inst in golden_corpus()}
    assert got == GOLDEN


# Value queries per solve on two "gp" instances at each n, here 30/31,
# 99/93 and 217/227 at n = 10/20/30 (4,853 and 5,143 at n = 30 when every
# suffix set of every interval was queried).  Counts grow faster than n when
# most actions are worth suggesting, so n = 30 sets the factor: 9n leaves 19%
# headroom there, and three times the count at n = 10.
QUERIES_PER_ACTION = 9


@pytest.mark.parametrize("n", [10, 20, 30])
def test_value_queries_linear_bound(n):
    for seed in (1, 2):
        inst = gp_instance(random.Random(100 * n + seed), n, "additive")
        counted = costfn.CountingOracle(inst.cost_fn)
        solve_randomized(inst.with_cost_fn(counted))
        assert counted.value_queries <= QUERIES_PER_ACTION * n


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
    assert abs(nested_total_mass(nd) - mass) <= 1e-12
    assert all(p >= 0 for _, p in nd.levels)
    assert nd.empty_mass >= 0.0


class TestRejectPaths:
    @pytest.mark.parametrize("q", [-0.1, 1.5, math.nan])
    def test_nested_marginal_outside_unit_interval(self, q):
        message = f"marginal of 'a' is {q}, outside [0, 1]"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            nested_min_cost_distribution(["a", "b"], {"a": q, "b": 0.5}, 1.0)
