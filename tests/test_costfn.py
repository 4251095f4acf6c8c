import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icx import costfn
from icx.costfn import (Additive, BudgetAdditive, ConcaveCardinality,
                        CountingOracle, ExplicitTable, WeightedCoverage,
                        XOSClauses, check_monotone, check_submodular,
                        check_xos_pointwise, demand_default)
from icx.families import VTCost, random_hard_params
from icx.model import Action, Instance
from icx.serialization import instance_digest, instance_to_json
from conftest import Squared, random_monotone_table, random_submodular_fn


class TestConstructors:
    def test_additive_value(self):
        fn = Additive([0.5, 0.25, 1.0])
        assert fn.value(0) == 0.0
        assert fn.value(0b101) == 1.5

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            Additive([0.5, -0.1])

    def test_budget_additive_caps(self):
        fn = BudgetAdditive([0.6, 0.6], 1.0)
        assert fn.value(0b11) == 1.0

    def test_coverage_counts_union_once(self):
        fn = WeightedCoverage(3, [0b011, 0b110], [1.0, 2.0, 4.0])
        assert fn.value(0b01) == 3.0
        assert fn.value(0b11) == 7.0

    def test_concave_cardinality_validation(self):
        ConcaveCardinality([0.0, 1.0, 1.5, 1.75])
        with pytest.raises(ValueError):
            ConcaveCardinality([0.0, 1.0, 2.5])  # increasing differences
        with pytest.raises(ValueError):
            ConcaveCardinality([0.1, 0.2])

    def test_explicit_table_requires_monotone(self):
        with pytest.raises(ValueError):
            ExplicitTable([0.0, 2.0, 0.5, 1.0])

    def test_explicit_table_requires_normalized(self):
        with pytest.raises(ValueError):
            ExplicitTable([0.5, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("make", [
        lambda x: Additive([0.5, x]),
        lambda x: BudgetAdditive([0.5, x], 1.0),
        lambda x: BudgetAdditive([0.5, 0.5], x),
        lambda x: WeightedCoverage(2, [0b01, 0b10], [0.5, x]),
        lambda x: ConcaveCardinality([0.0, 0.5, x]),
        lambda x: ExplicitTable([0.0, x, 0.5, 1.0]),
        lambda x: XOSClauses([[0.5, x]]),
    ], ids=["additive", "budget_weights", "budget_cap", "coverage", "concave",
            "table", "xos"])
    def test_non_finite_numbers_rejected(self, make, bad):
        with pytest.raises(ValueError, match="finite"):
            make(bad)

    def test_popcount_is_bit_count(self):
        for mask in (0, 1, 0b1011, (1 << 30) - 1, 1 << 40):
            assert costfn.popcount(mask) == bin(mask).count("1")

    def test_xos_is_pointwise_max(self):
        fn = XOSClauses([[1.0, 0.0], [0.0, 2.0]])
        assert fn.value(0b01) == 1.0
        assert fn.value(0b11) == 2.0


class TestExplicitTableStorage:
    VALUES = [0.0, 0.1, 0.2, 0.25, 0.3, 0.35, 0.4, 0.5]

    def test_value_semantics(self):
        fn = ExplicitTable(self.VALUES)
        same = ExplicitTable(tuple(self.VALUES))
        assert fn == same and hash(fn) == hash(same)
        assert fn != ExplicitTable(self.VALUES[:-1] + [0.75])
        assert hash(ExplicitTable([0.0, 0.0])) == hash(ExplicitTable([-0.0, 0.0]))
        back = pickle.loads(pickle.dumps(fn))
        assert back == fn and hash(back) == hash(fn)
        assert {fn: 1}[back] == 1
        table = fn.table()
        assert table == self.VALUES and all(type(v) is float for v in table)
        assert all(type(fn.value(m)) is float for m in range(8))
        assert fn.values.itemsize == 8  # stored as C doubles, not float objects

    def test_instance_digest_unchanged(self):
        # Digests recorded when the table was still a tuple of floats.
        inst = Instance((Action("bot", 0.0, 0.25), Action("a", 0.125, 0.5),
                         Action("b", 0.3, 0.875)), "bot", ExplicitTable(self.VALUES))
        assert hash(inst) == hash(Instance(inst.actions, "bot", ExplicitTable(self.VALUES)))
        assert instance_digest(instance_to_json(inst)) == \
            "766fbcf5aabd9537e27c9e5419269f21722278cd9d729b1eceef5ca3cef11b6f"
        n = 13
        actions = tuple([Action("bot", 0.0, 0.0)]
                        + [Action(f"a{k}", k / 16, k / 13) for k in range(1, n)])
        vals = [sum((k + 1) / 7 for k in range(n) if m >> k & 1) / 3 for m in range(1 << n)]
        big = Instance(actions, "bot", ExplicitTable(vals))
        assert instance_digest(instance_to_json(big)) == \
            "2acb812f20ed6879ba23381aa2116a890c8c1e6099301fd8b7539ce5e75dc2c4"


class TestCheckers:
    def test_additive_monotone_and_submodular(self):
        fn = Additive([0.3, 0.0, 1.2])
        assert check_monotone(fn, 3) == (True, None)
        assert check_submodular(fn, 3) == (True, None)

    def test_budget_additive_submodular(self):
        fn = BudgetAdditive([0.5, 0.8, 0.3], 1.0)
        assert check_submodular(fn, 3)[0]

    def test_violation_witness(self):
        fn = ExplicitTable([0.0, 2.0, 0.5, 1.0], validate=False)
        ok, witness = check_monotone(fn, 2)
        assert not ok
        mask, elem = witness
        assert fn.value(mask | (1 << elem)) < fn.value(mask)

    def test_submodular_witness_is_valid(self):
        # Coverage with complementary-looking table: build a supermodular one.
        fn = ExplicitTable([0.0, 0.0, 0.0, 1.0], validate=False)
        ok, witness = check_submodular(fn, 2)
        assert not ok
        mask, i, j = witness
        gain_small = fn.value(mask | (1 << i)) - fn.value(mask)
        gain_big = fn.value(mask | (1 << j) | (1 << i)) - fn.value(mask | (1 << j))
        assert gain_big > gain_small

    def test_exhaustive_size_limit(self):
        with pytest.raises(ValueError):
            check_monotone(Additive([0.0] * 17), 17)

    def test_sampled_mode_replays(self, rng):
        fn = random_monotone_table(rng, 8)
        assert check_monotone(fn, 8, mode="sampled", seed=7, samples=500)[0]

    def test_constructors_all_monotone_normalized(self, rng):
        for trial in range(40):
            n = rng.randint(1, 6)
            fn = random_submodular_fn(rng, n)
            assert fn.value(0) == 0.0
            assert check_monotone(fn, n)[0]
            assert check_submodular(fn, n)[0]
        # The JSON-loadable costs that are not submodular are monotone too,
        # which is why loading an instance needs no monotonicity re-scan.
        for trial in range(20):
            n = rng.randint(1, 6)
            fn = XOSClauses([[rng.uniform(0.0, 0.6) for _ in range(n)]
                             for _ in range(rng.randint(1, 4))])
            assert fn.value(0) == 0.0
            assert check_monotone(fn, n)[0]
        for k, m in [(7, None), (7, 1), (7, 6), (11, None), (11, 3)]:
            fn = VTCost(random_hard_params(k, rng.randrange(100), m))
            assert fn.value(0) == 0.0
            assert check_monotone(fn, fn.n)[0]

    def test_xos_pointwise_self_certificate(self):
        clauses = [[0.5, 0.0, 0.3], [0.2, 0.4, 0.0]]
        fn = XOSClauses(clauses)
        assert check_xos_pointwise(fn, clauses, 3)
        assert check_xos_pointwise(Additive([0.5, 0.2]), [[0.5, 0.2]], 2)

    def test_xos_pointwise_rejects_wrong_family(self):
        fn = Additive([0.5, 0.2])
        assert not check_xos_pointwise(fn, [[0.5, 0.0]], 2)


class TestDemand:
    def test_additive_demand_takes_positive_surplus(self):
        fn = Additive([0.5, 0.2, 0.9])
        prices = [0.1, 0.4, 0.9]  # middle element loses, last one ties
        assert fn.demand(prices) == 0b001
        assert demand_default(fn, prices, 3) == 0b001

    def test_huge_prices_empty(self):
        fn = Additive([0.5, 0.2])
        assert demand_default(fn, [10.0, 10.0], 2) == 0

    def test_tie_breaks_toward_smaller_sets(self):
        fn = ConcaveCardinality([0.0, 1.0, 1.0])
        # Both singletons and the pair reach value 1; free prices everywhere.
        assert demand_default(fn, [0.0, 0.0], 2) == 0b01

    def test_never_dominated(self, rng):
        for _ in range(50):
            n = rng.randint(1, 6)
            fn = random_submodular_fn(rng, n)
            prices = [rng.uniform(0, 0.8) for _ in range(n)]
            chosen = demand_default(fn, prices, n)
            obj = fn.value(chosen) - costfn.price_of(prices, chosen)
            for mask in range(1 << n):
                assert obj >= fn.value(mask) - costfn.price_of(prices, mask) - 1e-12

    def test_rejects_negative_prices(self):
        with pytest.raises(ValueError):
            demand_default(Additive([0.5]), [-1.0], 1)


class TestCountingOracle:
    def test_counts_match_calls(self):
        fn = CountingOracle(Additive([0.5, 0.2]))
        for _ in range(5):
            fn.value(0b11)
        fn.demand([0.1, 0.1])
        assert fn.value_queries == 5
        assert fn.demand_queries == 1

    def test_transparent(self, rng):
        inner = random_monotone_table(rng, 5)
        fn = CountingOracle(inner)
        for mask in range(32):
            assert fn.value(mask) == inner.value(mask)


class TestSubmodularByType:
    @pytest.mark.parametrize("kind", ["additive", "budget", "coverage", "concave"])
    def test_constructor_types_guarantee_it(self, rng, kind):
        fn = random_submodular_fn(rng, 4, kind)
        assert costfn.submodular_by_type(fn)
        assert costfn.submodular_by_type(CountingOracle(fn))

    def test_other_costs_guarantee_nothing(self, rng):
        squared = Squared([0.5, 0.25, 1.0])
        assert squared.value(0b101) == 2.25
        for fn in [random_monotone_table(rng, 3), XOSClauses([[0.5, 0.0], [0.0, 0.5]]),
                   VTCost(random_hard_params(7, 1)), squared]:
            assert not costfn.submodular_by_type(fn)
            assert not costfn.submodular_by_type(CountingOracle(fn))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0, 2, allow_nan=False), min_size=1, max_size=6),
       st.integers(0, 1 << 6))
def test_additive_matches_sum(weights, seed):
    fn = Additive(weights)
    mask = seed % (1 << len(weights))
    assert fn.value(mask) == pytest.approx(
        sum(w for i, w in enumerate(weights) if mask & (1 << i)), abs=1e-12)


# ---------------------------------------------------------------------------
# table() and the slice-scan checks against plain per-mask references
# ---------------------------------------------------------------------------


def _exact(vals):
    """Values compared bit for bit, type included (0 and 0.0 differ)."""
    return [(type(v), repr(v)) for v in vals]


def _weight(rng):
    # Mixed magnitudes, so sums round differently in different orders.
    return rng.choice([0.0, -0.0, 1e-17, 3e-9, 1e3, rng.uniform(0.0, 1.0),
                       rng.uniform(0.0, 1e-6)])


def _every_constructor(rng, n):
    weights = [_weight(rng) for _ in range(n)]
    universe = rng.randint(1, 9)
    g = [0.0]
    for d in sorted((_weight(rng) for _ in range(n)), reverse=True):
        g.append(g[-1] + d)
    fns = [
        Additive(weights),
        BudgetAdditive(weights, rng.choice([0.0, sum(weights) / 2, 1e9])),
        WeightedCoverage(universe, [rng.randrange(1 << universe) for _ in range(n)],
                         [_weight(rng) for _ in range(universe)]),
        ConcaveCardinality(g),
        random_monotone_table(rng, n),
        XOSClauses([[_weight(rng) for _ in range(n)] for _ in range(2)]),
    ]
    if n == 10:
        fns.append(VTCost(random_hard_params(7, rng.randrange(100))))
    return fns


def _reference_monotone(vals, n):
    for mask in range(1 << n):
        for i in range(n):
            if not mask & (1 << i) and vals[mask | (1 << i)] < vals[mask] - costfn.EQ_TOL:
                return False, (mask, i)
    return True, None


def _reference_submodular(vals, n):
    for mask in range(1 << n):
        for i in range(n):
            bi = 1 << i
            if mask & bi:
                continue
            base = vals[mask | bi] - vals[mask]
            for j in range(n):
                bj = 1 << j
                if j == i or mask & bj:
                    continue
                if vals[mask | bj | bi] - vals[mask | bj] > base + costfn.EQ_TOL:
                    return False, (mask, i, j)
    return True, None


def _corrupt(rng, vals, n):
    """Move a few entries across, onto or next to an EQ_TOL boundary."""
    vals = list(vals)
    for _ in range(rng.randint(1, 3)):
        mask = rng.randrange(1 << n)
        i = rng.randrange(n)
        lo, hi = mask & ~(1 << i), mask | (1 << i)
        ulps = rng.choice([-1, 0, 1])
        if rng.random() < 0.5:
            # monotone boundary: v(hi) against v(lo) - EQ_TOL
            target = vals[lo] - costfn.EQ_TOL
        else:
            # submodular boundary: the gain of i at lo + j against its gain at lo
            j = rng.randrange(n)
            if j == i or n < 2:
                target = vals[hi] + rng.uniform(-1.0, 1.0)
            else:
                bj = 1 << j
                lo, hi = lo & ~bj, hi & ~bj
                target = vals[lo | bj] + (vals[hi] - vals[lo]) + costfn.EQ_TOL
                hi |= bj
        for _ in range(abs(ulps)):
            target = math.nextafter(target, ulps * math.inf)
        vals[hi] = target
    vals[0] = 0.0
    return vals


class TestTables:
    def test_table_is_bit_identical_to_value(self, rng):
        for n in (1, 1, 2, 3, 5, 8, 10):
            for fn in _every_constructor(rng, n):
                assert fn.n == n
                table = fn.table()
                assert _exact(table) == _exact(fn.value(m) for m in range(1 << n)), fn

    def test_counting_oracle_counts_each_entry(self, rng):
        for n in (1, 4, 7):
            inner = random_submodular_fn(rng, n)
            fn = CountingOracle(inner)
            fn.value(0)
            assert _exact(fn.table()) == _exact(inner.table())
            assert fn.value_queries == 1 + (1 << n)
            assert fn.demand_queries == 0

    def test_subclass_overriding_value_is_checked_by_value(self):
        fn = Squared([0.5, 0.25, 1.0])
        assert check_submodular(fn, 3) == (False, (0, 0, 1))
        counted = CountingOracle(fn)
        assert check_submodular(counted, 3) == (False, (0, 0, 1))
        assert counted.value_queries == 1 << 3
        assert check_submodular(fn, 3, mode="sampled") == (False, (1, 2, 1))
        assert check_monotone(fn, 3) == (True, None)

    def test_constructor_tables_skip_value(self, rng, monkeypatch):
        # The built-in types keep their subset-DP tables, also when a
        # subclass leaves `value` alone.
        class Renamed(Additive):
            pass

        fns = [Renamed([0.5, 0.25, 1.0])] + [
            random_submodular_fn(rng, 4, kind)
            for kind in ["additive", "budget", "coverage", "concave"]]

        def unavailable(self, mask):
            raise AssertionError("value() called where table() serves")

        for cls in (Additive, BudgetAdditive, WeightedCoverage, ConcaveCardinality):
            monkeypatch.setattr(cls, "value", unavailable)
        for fn in fns:
            assert check_submodular(fn, fn.n) == (True, None)
            assert check_submodular(CountingOracle(fn), fn.n) == (True, None)

    def test_exhaustive_checks_count_2_to_the_n(self, rng):
        fn = CountingOracle(random_submodular_fn(rng, 6))
        check_monotone(fn, 6)
        check_submodular(fn, 6)
        assert fn.value_queries == 2 << 6

    def test_checks_match_reference_on_corrupted_tables(self, rng):
        outcomes = set()
        for trial in range(400):
            n = rng.randint(1, 8)
            source = (random_submodular_fn(rng, n) if trial % 2
                      else random_monotone_table(rng, n))
            vals = _corrupt(rng, source.table(), n)
            fn = ExplicitTable(vals, validate=False)
            mono = _reference_monotone(vals, n)
            sub = _reference_submodular(vals, n)
            assert check_monotone(fn, n) == mono
            assert check_submodular(fn, n) == sub
            if mono[0]:
                ExplicitTable(vals)
            else:
                mask, i = mono[1]
                with pytest.raises(ValueError,
                                   match=f"not monotone at S={mask:b}, element {i}$"):
                    ExplicitTable(vals)
            outcomes.add((mono[0], sub[0]))
        assert outcomes == {(True, True), (True, False), (False, True), (False, False)}

    def test_violation_exactly_at_tolerance(self):
        # v({0}) - v({}) may undercut by EQ_TOL itself, not by one ulp more.
        at = -costfn.EQ_TOL
        below = math.nextafter(at, -math.inf)
        assert check_monotone(ExplicitTable([0.0, at], validate=False), 1) == (True, None)
        assert check_monotone(ExplicitTable([0.0, below], validate=False), 1) == \
            (False, (0, 0))
        # Gain of 0 grows from 0 to EQ_TOL (allowed), then one ulp further.
        ok = [0.0, 0.0, 0.5, 0.5 + costfn.EQ_TOL]
        assert check_submodular(ExplicitTable(ok, validate=False), 2) == (True, None)
        bad = ok[:3] + [math.nextafter(ok[3], math.inf)]
        assert check_submodular(ExplicitTable(bad, validate=False), 2) == \
            (False, (0, 0, 1))

    def test_n_below_fn_n_checks_the_prefix(self, rng):
        for _ in range(30):
            vals = _corrupt(rng, random_monotone_table(rng, 6).table(), 6)
            fn = ExplicitTable(vals, validate=False)
            for n in range(6):
                assert check_monotone(fn, n) == _reference_monotone(vals[:1 << n], n)
                assert check_submodular(fn, n) == _reference_submodular(vals[:1 << n], n)
