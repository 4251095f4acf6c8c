import re

import pytest

from icx import costfn
from icx.families import (HardParams, VTCost, _set_to_kmask, cyclic, demand_vt,
                          gen_gap_instance,
                          gen_intro_example, gen_nonic_example, gen_xos_hard,
                          gap_reference_scheme, query_experiment,
                          random_hard_params, unique_optimal_scheme,
                          xos_certificate)
from icx.model import (ValidationError, agent_utility, best_responses, is_IC,
                       marginal, principal_utility)

PARAMS7 = HardParams(7, frozenset([1, 2, 4, 5, 6, 7]))


class TestCyclic:
    def test_full_set_fixed_point(self):
        assert cyclic(range(1, 8), 7) == [frozenset(range(1, 8))]

    def test_k7_size6_orbit_is_everything(self):
        shifts = cyclic([1, 2, 3, 4, 5, 6], 7)
        assert len(shifts) == 7
        assert {frozenset(range(1, 8)) - s for s in shifts} == {
            frozenset([j]) for j in range(1, 8)}

    def test_membership_rotation_invariant(self):
        shifts = set(cyclic(PARAMS7.T, 7))
        for s in shifts:
            assert set(cyclic(s, 7)) == shifts

    def test_uniform_incidence(self):
        shifts = cyclic(PARAMS7.T, 7)
        for j in range(1, 8):
            assert sum(1 for s in shifts if j in s) == len(PARAMS7.T)

    def test_distinct_members_prime(self):
        for k in (7, 11, 13):
            params = random_hard_params(k, seed=3)
            assert len(cyclic(params.T, k)) == k


class TestHardParams:
    def test_k_must_be_prime_gt_5(self):
        with pytest.raises(ValidationError):
            HardParams(9, frozenset(range(1, 9)))
        with pytest.raises(ValidationError):
            HardParams(5, frozenset([1, 2, 3, 4]))

    def test_default_m(self):
        assert HardParams(7, frozenset([1, 2, 3, 4, 5, 6])).m == 6
        assert random_hard_params(13, 0).m == 11

    def test_wrong_size_T(self):
        with pytest.raises(ValidationError):
            HardParams(7, frozenset([1, 2, 3]))

    @pytest.mark.parametrize("k", [7, 11, 13])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cyclic_masks_are_the_shifts(self, k, seed):
        for m_override in (None, (k - 1) // 2):
            params = random_hard_params(k, seed, m_override)
            assert params.cyclic_masks == {_set_to_kmask(s, k) for s in cyclic(params.T, k)}


class TestVTCost:
    def test_flat_charges(self):
        fn = VTCost(PARAMS7)
        inst = gen_xos_hard(PARAMS7)
        assert inst.inspection_cost(["g"]) == 1.0
        assert inst.inspection_cost(["bot", "g"]) == 2.0
        assert inst.inspection_cost(["x"]) == pytest.approx(1 / 40, abs=1e-15)

    def test_level_split_on_large_sets(self):
        inst = gen_xos_hard(PARAMS7)
        k = PARAMS7.k
        member = next(iter(cyclic(PARAMS7.T, k)))
        ids = {str(j) for j in member} | {"x"}
        assert inst.inspection_cost(ids) == pytest.approx(1 / 40 + 1 / (80 * k), abs=1e-15)
        assert inst.inspection_cost({str(j) for j in range(1, k + 1)} | {"x"}) == \
            pytest.approx(1 / 40 + 1 / (40 * k), abs=1e-15)

    def test_small_sets_single_bump(self):
        inst = gen_xos_hard(PARAMS7)
        assert inst.inspection_cost(["1"]) == pytest.approx(1 / 40 + 1 / 560, abs=1e-15)
        assert inst.inspection_cost(["1", "2"]) == pytest.approx(1 / 40 + 1 / 560, abs=1e-15)

    def test_monotone_not_submodular(self):
        fn = VTCost(PARAMS7)
        ok, _ = costfn.check_monotone(fn)
        assert ok
        ok, witness = costfn.check_submodular(fn)
        assert not ok
        mask, i, j = witness
        gain_small = fn.value(mask | (1 << i)) - fn.value(mask)
        gain_big = fn.value(mask | (1 << j) | (1 << i)) - fn.value(mask | (1 << j))
        assert gain_big > gain_small

    @pytest.mark.parametrize("k", [7, 11, 13])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("m_override", [None, "half"])
    def test_table_bit_identical_to_value(self, k, seed, m_override):
        params = random_hard_params(k, seed, (k - 1) // 2 if m_override else None)
        fn = VTCost(params)
        table = fn.table()
        expected = [fn.value(m) for m in range(1 << fn.n)]
        assert len(table) == len(expected)
        assert all(type(a) is float and a.hex() == b.hex()
                   for a, b in zip(table, expected))

    def test_counted_table_counts_every_entry(self):
        params = random_hard_params(11, seed=4)
        counted = costfn.CountingOracle(VTCost(params))
        assert counted.table() == VTCost(params).table()
        assert counted.value_queries == 1 << 14

    def test_monotone_sampled_larger_k(self):
        for k in (11, 13):
            params = random_hard_params(k, seed=5)
            fn = VTCost(params)
            ok, _ = costfn.check_monotone(fn, mode="sampled", seed=1,
                                          samples=4000)
            assert ok


class TestCertificate:
    def test_pointwise_at_k7(self):
        fn = VTCost(PARAMS7)
        cert = xos_certificate(PARAMS7)
        assert costfn.check_xos_pointwise(fn, cert)

    def test_pointwise_at_k11(self):
        params = random_hard_params(11, seed=2)
        fn = VTCost(params)
        cert = xos_certificate(params)
        assert costfn.check_xos_pointwise(fn, cert)

    def test_singleton_clauses_touch(self):
        inst = gen_xos_hard(PARAMS7)
        cert = xos_certificate(PARAMS7)
        assert cert.max_value(inst.mask_of(["x"])) == pytest.approx(1 / 40, abs=1e-15)
        assert cert.max_value(inst.mask_of(["1"])) == pytest.approx(
            1 / 40 + 1 / 560, abs=1e-15)

    def test_cyclic_member_dominates_large_clauses(self):
        inst = gen_xos_hard(PARAMS7)
        cert = xos_certificate(PARAMS7)
        member = next(iter(cyclic(PARAMS7.T, 7)))
        mask = inst.mask_of({str(j) for j in member})
        v = inst.cost_fn.value(mask)
        assert cert.max_value(mask) == pytest.approx(v, abs=1e-15)
        # the large-set clause family stays strictly below on members
        ratio = cert._best_large_clause_ratio(mask >> 3, len(member))
        assert (1 / 40 + 1 / (40 * 7)) * ratio < v


class TestDemandVT:
    def test_all_expensive_empty(self):
        inst = gen_xos_hard(PARAMS7)
        assert demand_vt(PARAMS7, [2.0] * inst.n) == 0

    def test_free_x_wins(self):
        inst = gen_xos_hard(PARAMS7)
        prices = [2.0, 2.0, 0.0] + [1.0] * 7
        assert demand_vt(PARAMS7, prices) == inst.mask_of(["x"])

    def test_tiny_uniform_prices_pick_top_level_set(self):
        # Cheapest eligible large set wins the value-minus-price race; at
        # k=7 every size-6 set is a shift of T, so the whole ground set is
        # the only set on the top level.
        inst = gen_xos_hard(PARAMS7)
        eps = 1e-6
        prices = [9.0, 9.0, 9.0] + [eps] * 7
        got = demand_vt(PARAMS7, prices)
        assert got == inst.mask_of([str(j) for j in range(1, 8)])
        assert inst.cost_fn.value(got) == pytest.approx(1 / 40 + 1 / 280, abs=1e-15)

    def test_prefix_not_in_cyclic_at_k11(self):
        # T misses {9, 11} (circular gap 2), so no shift misses {10, 11}.
        params = HardParams(11, frozenset([1, 2, 3, 4, 5, 6, 7, 8, 10]))
        inst = gen_xos_hard(params)
        prefix = frozenset(range(1, params.m + 1))
        assert prefix not in cyclic(params.T, 11)
        eps = 1e-7
        prices = [9.0, 9.0, 9.0] + [eps] * 11
        got = demand_vt(params, prices)
        assert got == inst.mask_of({str(j) for j in prefix})

    def test_agrees_with_enumeration(self, rng):
        inst = gen_xos_hard(PARAMS7)
        fn = inst.cost_fn
        for trial in range(300):
            prices = [rng.uniform(0.0, 2.2) for _ in range(inst.n)]
            assert demand_vt(PARAMS7, prices) == costfn.demand_default(fn, prices)

    def test_counts_as_single_demand_query(self):
        fn = costfn.CountingOracle(VTCost(PARAMS7))
        fn.demand([0.5] * 10)
        assert fn.demand_queries == 1


class TestUniqueOptimalScheme:
    def test_structure_and_value(self):
        inst = gen_xos_hard(PARAMS7)
        scheme = unique_optimal_scheme(PARAMS7)
        assert scheme.suggested == "g"
        assert scheme.alpha == pytest.approx(0.1, abs=1e-15)
        assert sum(p for _, p in scheme.distribution) == pytest.approx(1.0, abs=1e-12)
        assert principal_utility(inst, scheme, "g") == pytest.approx(
            53 / 60 - 1 / (160 * 6), abs=1e-12)

    def test_agent_indifference(self):
        inst = gen_xos_hard(PARAMS7)
        scheme = unique_optimal_scheme(PARAMS7)
        for j in inst.ids:
            assert agent_utility(inst, scheme, j) == pytest.approx(0.0, abs=1e-12)
        assert is_IC(inst, scheme, 1e-12)

    def test_marginals(self):
        scheme = unique_optimal_scheme(PARAMS7)
        assert marginal(scheme, "x") == pytest.approx(2 / 3, abs=1e-12)
        for j in range(1, 8):
            assert marginal(scheme, str(j)) == pytest.approx(0.5, abs=1e-12)
        assert marginal(scheme, "g") == 0.0
        assert marginal(scheme, "bot") == 0.0

    def test_requires_default_m(self):
        params = random_hard_params(13, seed=0, m_override=7)
        with pytest.raises(ValidationError):
            unique_optimal_scheme(params)


class TestQueryExperiment:
    def test_degenerate_k7(self):
        stats = query_experiment(7, trials=50, seed=3)
        assert stats["classes"] == 1
        assert stats["mean_queries"] == 1.0
        assert stats["analytic_mean_queries"] == 1.0

    def test_k13_class_count(self):
        stats = query_experiment(13, trials=30, seed=3)
        assert stats["classes"] == 6
        assert stats["analytic_mean_queries"] == 3.5
        assert stats["default_size"] is True

    def test_override_labelled(self):
        stats = query_experiment(13, trials=10, seed=3, m_override=7)
        assert stats["classes"] == 132
        assert stats["analytic_mean_queries"] == 66.5
        assert stats["default_size"] is False

    def test_reproducible(self):
        a = query_experiment(11, trials=25, seed=9)
        b = query_experiment(11, trials=25, seed=9)
        assert a == b


class TestGapFamily:
    def test_table_values(self):
        inst = gen_gap_instance(10)
        assert inst.f("9") == 1.0
        assert inst.c("9") == (2 ** 10 - 10) / 2 ** 10
        assert inst.f("1") == 4 / 1024
        assert inst.inspection_cost(["3"]) == 10 / 1024

    def test_reference_scheme(self):
        inst = gen_gap_instance(10)
        scheme = gap_reference_scheme(10)
        assert is_IC(inst, scheme, 0.0)
        assert principal_utility(inst, scheme, "9") == 10 / 2048

    def test_minimum_size(self):
        with pytest.raises(ValidationError):
            gen_gap_instance(2)


class TestSmallExamples:
    def test_nonic_references(self):
        inst, scheme, refs = gen_nonic_example()
        assert best_responses(inst, scheme, 1e-12) == {"bot", "1", "2"}
        assert principal_utility(inst, scheme, "2") == pytest.approx(
            refs["non_ic_principal_utility"], abs=1e-12)

    def test_intro_values(self):
        inst = gen_intro_example()
        assert inst.f("g") == 1.0 and inst.c("g") == 0.35
        assert inst.inspection_cost(["bot", "b"]) == 2.0


class TestRejectPaths:
    @pytest.mark.parametrize("build, message", [
        (lambda: HardParams(7, frozenset(range(1, 8)), 7),
         "m override must lie strictly between 0 and k"),
        (lambda: HardParams(7, frozenset(), 0),
         "m override must lie strictly between 0 and k"),
        (lambda: HardParams(7, frozenset([0, 1, 2, 3, 4, 5])),
         "T must be a subset of {1, ..., k}"),
        (lambda: HardParams(7, frozenset([1, 2, 3, 4, 5, 8])),
         "T must be a subset of {1, ..., k}"),
        (lambda: query_experiment(7, trials=0, seed=0), "need at least one trial"),
    ], ids=["m-equals-k", "m-zero", "T-has-0", "T-above-k", "no-trials"])
    def test_rejects(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()
