import random
from fractions import Fraction

import pytest

from icx import costfn
from icx.deterministic import (DetCandidate, _scaled, _suggestion_sets,
                               solve_deterministic)
from icx.families import gen_gap_instance, gen_intro_example
from icx.model import Action, Instance, ValidationError, is_IC
from conftest import GRID, random_instance, random_monotone_table


# Reference: the id-set solver with per-pair Fraction arithmetic that the
# index-native solver replaced.  Kept verbatim to pin its results.

def _ref_crit(ci, cj, fi, fj):
    return (ci - cj) / (fi - fj)


def _ref_candidate_sets(inst, i):
    fi, ci = Fraction(inst.f(i)), Fraction(inst.c(i))
    if not fi > ci > 0:
        raise ValidationError(f"candidate_sets requires f({i}) > c({i}) > 0")
    break_even = ci / fi

    others = [a.id for a in inst.actions if a.id != i]
    fr = {j: (Fraction(inst.c(j)), Fraction(inst.f(j))) for j in others}

    A_i = {
        j for j in others
        if fr[j][1] < fi and _ref_crit(ci, fr[j][0], fi, fr[j][1]) > break_even
    }
    S_i = A_i | {
        j for j in others
        if fr[j][1] >= fi and fr[j][1] * break_even > fr[j][0]
    }
    S_ij = {}
    for j in sorted(A_i, key=inst.index):
        crit_j = _ref_crit(ci, fr[j][0], fi, fr[j][1])
        low = {
            jp for jp in A_i
            if _ref_crit(ci, fr[jp][0], fi, fr[jp][1]) > crit_j
        }
        high = {
            jp for jp in others
            if fr[jp][1] >= fi and crit_j * (fr[jp][1] - fi) > fr[jp][0] - ci
        }
        S_ij[j] = frozenset(low | high)
    return frozenset(A_i), frozenset(S_i), S_ij


def _ref_solve_deterministic(inst):
    memo = {0: 0.0}

    def v(ids):
        mask = inst.mask_of(ids)
        if mask not in memo:
            memo[mask] = inst.cost_fn.value(mask)
        return memo[mask]

    candidates = []

    free = [a for a in inst.actions if a.cost == 0.0]
    best_free = max(free, key=lambda a: (a.prob, -inst.index(a.id)))
    candidates.append(DetCandidate(best_free.id, 0.0, frozenset(), best_free.prob, "zero_cost"))

    for a in inst.actions:
        i = a.id
        if not a.prob > a.cost > 0.0:
            continue
        A_i, S_i, S_ij = _ref_candidate_sets(inst, i)
        break_even = Fraction(a.cost) / Fraction(a.prob)
        alpha0 = float(break_even)
        candidates.append(DetCandidate(
            i, alpha0, frozenset([i]), (1.0 - alpha0) * a.prob - v(frozenset([i])),
            "self_inspect"))
        candidates.append(DetCandidate(
            i, alpha0, S_i, (1.0 - alpha0) * a.prob - v(S_i), "full_set"))
        for j in sorted(A_i, key=inst.index):
            crit = _ref_crit(Fraction(a.cost), Fraction(inst.c(j)),
                             Fraction(a.prob), Fraction(inst.f(j)))
            if crit > 1:
                continue
            alpha = float(crit)
            candidates.append(DetCandidate(
                i, alpha, S_ij[j], (1.0 - alpha) * a.prob - v(S_ij[j]), f"pair_set:{j}"))

    best = max(candidates,
               key=lambda c: (c.utility, -len(c.inspected), -c.alpha, -inst.index(c.suggested)))
    return best, candidates


def candidate_sets(inst, i):
    """(A_i, S_i, {j: S_ij}) from `_suggestion_sets` for action id i, as id sets."""
    s_mask, pairs = _suggestion_sets(_scaled(inst), inst.index(i))
    ids = inst.ids
    S_ij = {ids[j]: inst.ids_of(mask) for j, _, _, mask in pairs}
    return frozenset(S_ij), inst.ids_of(s_mask), S_ij


def _battery_instance(rng, n):
    """Grid ties, shared success probabilities, free and f = 0 actions."""
    costs = [k / 16 for k in range(18)]
    shared = rng.sample(GRID, rng.randint(1, 3)) if rng.random() < 0.4 else None

    def prob():
        if shared:
            return rng.choice(shared)
        return rng.choice(GRID) if rng.random() < 0.6 else rng.random()

    actions = [Action("bot", 0.0, prob())]
    for idx in range(1, n):
        kind = rng.random()
        if kind < 0.15:
            cost, p = 0.0, prob()  # free
        elif kind < 0.25:
            cost, p = rng.choice(costs), 0.0  # never succeeds
        else:
            cost = rng.choice(costs) if rng.random() < 0.6 else rng.uniform(0.0, 1.1)
            p = prob()
        actions.append(Action(f"a{idx}", cost, p))
    if n <= 6:
        fn = random_monotone_table(rng, n)
    elif rng.random() < 0.5:
        fn = costfn.Additive([rng.choice(costs[:5]) for _ in range(n)])
    else:
        fn = costfn.ConcaveCardinality([0.0] + [min(k, 3) / 8 for k in range(1, n + 1)])
    return Instance(tuple(actions), "bot", fn)


class TestEquivalenceBattery:
    def test_matches_id_set_reference(self):
        rng = random.Random(7)
        eligible_total = 0
        for trial in range(1200):
            n = trial % 12 + 1
            inst = _battery_instance(rng, n)
            for a in inst.actions:
                if a.prob > a.cost > 0.0:
                    eligible_total += 1
                    assert candidate_sets(inst, a.id) == _ref_candidate_sets(inst, a.id), \
                        (trial, a.id)
            counted = costfn.CountingOracle(inst.cost_fn)
            best, candidates = solve_deterministic(inst.with_cost_fn(counted))
            ref_counted = costfn.CountingOracle(inst.cost_fn)
            ref_best, ref_candidates = _ref_solve_deterministic(
                inst.with_cost_fn(ref_counted))
            assert best == ref_best, trial
            assert candidates == ref_candidates, trial
            assert counted.value_queries == ref_counted.value_queries <= n * n
        assert eligible_total > 2000


class TestCandidateSets:
    def test_intro_example_sets(self):
        inst = gen_intro_example()
        A_g, S_g, S_gj = candidate_sets(inst, "g")
        assert A_g == {"bot", "b"}
        assert S_g == {"bot", "b"}
        assert S_gj["b"] == frozenset()
        assert S_gj["bot"] == frozenset(["b"])

    def test_empty_when_everyone_is_cheaper_per_success(self):
        # All rivals have higher f and a better cost/success ratio.
        inst = Instance((
            Action("bot", 0.0, 0.0),
            Action("i", 0.2, 0.5),   # ratio 0.4
            Action("j", 0.4, 0.9),   # ratio 0.44... >= 0.4 and f >= f(i)
        ), "bot", costfn.Additive([1.0, 1.0, 1.0]))
        A_i, S_i, _ = candidate_sets(inst, "i")
        assert A_i == frozenset()
        assert S_i == frozenset()


class TestSolveDeterministic:
    def test_intro_optimum(self):
        inst = gen_intro_example()
        best, _ = solve_deterministic(inst)
        assert best.suggested == "g"
        assert best.alpha == pytest.approx(7 / 20, abs=1e-15)
        assert best.inspected == frozenset(["g"])
        assert best.utility == pytest.approx(11 / 20, abs=1e-12)

    def test_gap_instance_value(self):
        inst = gen_gap_instance(10)
        best, _ = solve_deterministic(inst)
        assert best.utility == pytest.approx(2 / 1024, abs=1e-15)
        assert best.inspected == frozenset()

    def test_single_free_action(self):
        inst = Instance((Action("bot", 0.0, 0.0), Action("a", 0.0, 0.7)),
                        "bot", costfn.Additive([1.0, 1.0]))
        best, _ = solve_deterministic(inst)
        assert (best.suggested, best.alpha, best.inspected) == ("a", 0.0, frozenset())
        assert best.utility == 0.7

    def test_every_candidate_is_ic(self, rng):
        for trial in range(60):
            inst = random_instance(rng, rng.randint(1, 6))
            _, candidates = solve_deterministic(inst)
            for cand in candidates:
                assert is_IC(inst, cand.scheme(), 1e-12), (inst, cand)

    def test_candidate_utility_consistent(self, rng):
        for trial in range(20):
            inst = random_instance(rng, rng.randint(2, 6))
            _, candidates = solve_deterministic(inst)
            for cand in candidates:
                expected = (1.0 - cand.alpha) * inst.f(cand.suggested) \
                    - inst.inspection_cost(cand.inspected)
                assert cand.utility == pytest.approx(expected, abs=1e-12)

    def test_query_budget(self, rng):
        for trial in range(40):
            n = rng.randint(1, 7)
            inst = random_instance(rng, n)
            counted = costfn.CountingOracle(inst.cost_fn)
            solve_deterministic(inst.with_cost_fn(counted))
            assert counted.value_queries <= n * n
