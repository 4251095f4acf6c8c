import inspect
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icx import costfn, oracle, randomized
from icx.deterministic import solve_deterministic
from icx.families import gen_gap_instance, gen_intro_example, gen_nonic_example
from icx.model import (Action, Instance, InspectionScheme, ValidationError,
                       deterministic_scheme, is_IC)
from icx.oracle import (LinearProgram, brute_force_deterministic,
                        brute_force_randomized, deterministic_non_ic_best,
                        lp_best_distribution, lp_min_cost_given_marginals,
                        no_inspection_best, simplex_solve)
from conftest import GRID, random_instance, random_marginals, scaled_rivals_instance


class TestSimplex:
    def test_min_with_lower_bound(self):
        status, x, value = simplex_solve(LinearProgram([1.0], [[1.0]], (">=",), [3.0]))
        assert status == "optimal"
        assert value == pytest.approx(3.0, abs=1e-9)

    def test_infeasible(self):
        status, _, _ = simplex_solve(LinearProgram([0.0], [[1.0]], ("<=",), [-1.0]))
        assert status == "infeasible"

    def test_unbounded(self):
        status, _, _ = simplex_solve(LinearProgram([-1.0], [[0.0]], ("<=",), [1.0]))
        assert status == "unbounded"

    def test_equality_constraints(self):
        lp = LinearProgram([1.0, 2.0], [[1.0, 1.0]], ("=",), [1.0])
        status, x, value = simplex_solve(lp)
        assert status == "optimal"
        assert value == pytest.approx(1.0, abs=1e-9)
        assert x[0] == pytest.approx(1.0, abs=1e-9)

    def test_size_limits(self):
        with pytest.raises(ValueError, match=r"^LP size 1x5000 exceeds desk-scale limits$"):
            LinearProgram(np.zeros(5000), np.zeros((1, 5000)), ("<=",), [1.0])
        m = oracle.MAX_LP_ROWS + 1
        with pytest.raises(ValueError, match=rf"^LP size {m}x1 exceeds desk-scale limits$"):
            LinearProgram([0.0], [[1.0]] * m, ("<=",) * m, [1.0] * m)

    # Beale (1955): Dantzig's rule alone cycles on this LP.
    BEALE_C = [-3 / 4, 150.0, -1 / 50, 6.0]
    BEALE_A = [[1 / 4, -60.0, -1 / 25, 9.0], [1 / 2, -90.0, -1 / 50, 3.0], [0.0, 0.0, 1.0, 0.0]]

    @pytest.fixture
    def pivots(self, monkeypatch):
        """Counts pivots, and fails a solve that takes 100: a cycling one."""
        count = []
        pivot = oracle._pivot

        def counted(T, row, col):
            count.append(1)
            assert len(count) < 100, "the simplex cycles"
            pivot(T, row, col)

        monkeypatch.setattr(oracle, "_pivot", counted)
        return count

    def test_beale_cycling_lp(self, pivots):
        status, x, value = simplex_solve(
            LinearProgram(self.BEALE_C, self.BEALE_A, ("<=",) * 3, [0.0, 0.0, 1.0]))
        assert status == "optimal"
        assert value == pytest.approx(-1 / 20, abs=1e-12)
        assert x == pytest.approx([1 / 25, 0.0, 1.0, 0.0], abs=1e-12)

    @pytest.mark.parametrize("rows, expected", [(3, ("optimal", 0.0)), (2, ("unbounded", None))])
    def test_fully_degenerate_lp_terminates(self, pivots, rows, expected):
        # Every right-hand side is 0, so every pivot is degenerate: with
        # x3 <= 0 the origin is optimal, without it x3 grows unboundedly.
        status, _, value = simplex_solve(LinearProgram(
            self.BEALE_C, self.BEALE_A[:rows], ("<=",) * rows, [0.0] * rows))
        assert (status, value) == expected
        assert pivots

    def test_accepts_lists_and_arrays(self):
        c, A, b = self.BEALE_C, self.BEALE_A, [0.0, 0.0, 1.0]
        from_lists = LinearProgram(c, A, ("<=",) * 3, b)
        from_arrays = LinearProgram(np.array(c), np.array(A), ("<=",) * 3, np.array(b))
        for lp in (from_lists, from_arrays):
            assert type(lp.objective) is list and type(lp.b) is list
            assert all(type(row) is list for row in lp.A)
            assert all(type(v) is float for row in [lp.objective, lp.b, *lp.A] for v in row)
        assert from_lists == from_arrays
        assert simplex_solve(from_lists) == simplex_solve(from_arrays)

    @pytest.mark.parametrize("where", ["objective", "A", "b"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", [list, np.array])
    def test_rejects_non_finite_entries(self, where, bad, kind):
        parts = {"objective": [1.0, 2.0], "A": [[1.0, 1.0], [0.0, 1.0]], "b": [1.0, 0.5]}
        if where == "A":
            parts["A"][1][0] = bad
        else:
            parts[where][0] = bad
        with pytest.raises(ValueError, match=r"^LP entries must be finite$"):
            LinearProgram(kind(parts["objective"]), kind(parts["A"]), ("<=", "="),
                          kind(parts["b"]))

    def test_against_scipy_linprog(self, rng):
        # Random feasible bounded LPs with mixed senses: rows are built
        # around a known nonnegative point x0, and a box bounds the region.
        optimize = pytest.importorskip("scipy.optimize")
        for trial in range(150):
            n = rng.randint(1, 5)
            m = rng.randint(1, 5)
            x0 = [0.0 if rng.random() < 0.3 else rng.uniform(0.0, 2.0) for _ in range(n)]
            A, b, senses = [], [], []
            for _ in range(m):
                row = [0.0 if rng.random() < 0.2 else rng.uniform(-1, 1) for _ in range(n)]
                at_x0 = sum(a * x for a, x in zip(row, x0))
                sense = rng.choice(["<=", ">=", "="])
                slack = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 1.0)
                A.append(row)
                b.append(at_x0 + slack if sense == "<=" else
                         at_x0 - slack if sense == ">=" else at_x0)
                senses.append(sense)
            A += [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
            b += [x + rng.uniform(0.5, 3.0) for x in x0]
            senses += ["<="] * n
            c = [rng.uniform(-1, 1) for _ in range(n)]
            status, x, value = simplex_solve(LinearProgram(c, A, tuple(senses), b))

            rows = {s: [k for k, t in enumerate(senses) if t == s] for s in ("<=", ">=", "=")}
            ub_rows = rows["<="] + rows[">="]
            sign = [1.0 if senses[k] == "<=" else -1.0 for k in ub_rows]
            ref = optimize.linprog(
                c,
                A_ub=[[sg * a for a in A[k]] for sg, k in zip(sign, ub_rows)],
                b_ub=[sg * b[k] for sg, k in zip(sign, ub_rows)],
                A_eq=[A[k] for k in rows["="]] or None,
                b_eq=[b[k] for k in rows["="]] or None,
                bounds=[(0, None)] * n, method="highs")
            assert ref.status == 0, ref.message
            assert status == "optimal"
            assert value == pytest.approx(ref.fun, abs=1e-8)
            assert float(np.dot(c, x)) == pytest.approx(value, abs=1e-9)
            assert all(v >= -1e-9 for v in x)
            for row, rhs, sense in zip(A, b, senses):
                lhs = float(np.dot(row, x))
                assert {"<=": lhs <= rhs + 1e-8, ">=": lhs >= rhs - 1e-8,
                        "=": abs(lhs - rhs) <= 1e-8}[sense]

    def test_against_vertex_enumeration(self, rng):
        # Random bounded feasible LPs in <= 3 vars; brute-force all basic
        # feasible points from constraint/axis intersections.
        for trial in range(120):
            n = rng.randint(1, 3)
            m = rng.randint(1, 4)
            A = [[rng.uniform(-1, 1) for _ in range(n)] for _ in range(m)]
            b = [rng.uniform(0.2, 2.0) for _ in range(m)]
            c = [rng.uniform(-1, 1) for _ in range(n)]
            # box keeps it bounded; origin keeps it feasible
            A += [[1.0 if j == i else 0.0 for j in range(n)] for i in range(n)]
            b += [rng.uniform(1.0, 3.0) for _ in range(n)]
            senses = ("<=",) * len(A)
            status, _, value = simplex_solve(LinearProgram(c, A, senses, b))
            assert status == "optimal"

            ineqs = [(np.array(row), rhs) for row, rhs in zip(A, b)]
            planes = ineqs + [(np.eye(n)[i], 0.0) for i in range(n)]
            best = math.inf
            for combo in itertools.combinations(range(len(planes)), n):
                M = np.array([planes[i][0] for i in combo])
                rhs = np.array([planes[i][1] for i in combo])
                if abs(np.linalg.det(M)) < 1e-9:
                    continue
                x = np.linalg.solve(M, rhs)
                if (x >= -1e-9).all() and all(
                        np.dot(row, x) <= rhs_i + 1e-9 for row, rhs_i in ineqs):
                    best = min(best, float(np.dot(c, x)))
            assert value == pytest.approx(best, abs=1e-8)


class TestDeterministicBruteForce:
    def test_intro(self):
        scheme, utility = brute_force_deterministic(gen_intro_example())
        assert utility == pytest.approx(11 / 20, abs=1e-12)
        assert scheme.suggested == "g"

    def test_gap_instance(self):
        _, utility = brute_force_deterministic(gen_gap_instance(10))
        assert utility == pytest.approx(2 / 1024, abs=1e-15)

    def test_single_action_instance(self):
        from icx.model import Action, Instance
        inst = Instance((Action("bot", 0.0, 0.0),), "bot", costfn.Additive([1.0]))
        scheme, utility = brute_force_deterministic(inst)
        assert utility == 0.0
        assert scheme.suggested == "bot"
        assert scheme.support() == (frozenset(),)

    def test_matches_fast_solver(self, rng):
        for trial in range(120):
            inst = random_instance(rng, rng.randint(1, 6))
            best, _ = solve_deterministic(inst)
            _, oracle_utility = brute_force_deterministic(inst)
            assert abs(best.utility - oracle_utility) <= 1e-9

    def test_size_limit(self):
        with pytest.raises(oracle.OracleSizeError,
                           match=r"^deterministic oracle limited to n <= 12$"):
            brute_force_deterministic(gen_gap_instance(13))
        assert issubclass(oracle.OracleSizeError, ValidationError)

    def test_no_inspection_intro(self):
        i, alpha, utility = no_inspection_best(gen_intro_example())
        assert i == "g"
        assert utility == pytest.approx(0.5, abs=1e-12)


class TestCouplingLP:
    def test_additive_cost_is_marginal_sum(self, rng):
        weights = {"a": 0.3, "b": 0.7, "c": 0.1}
        marg = {"a": 0.4, "b": 0.2, "c": 0.9}
        _, cost = lp_min_cost_given_marginals(
            list(weights), marg, 1.0, lambda s: sum(weights[e] for e in s))
        assert cost == pytest.approx(sum(weights[e] * marg[e] for e in weights), abs=1e-9)

    def test_hand_solved_pair(self):
        _, cost = lp_min_cost_given_marginals(
            ["a", "b"], {"a": 0.2, "b": 0.5}, 1.0, lambda s: min(len(s), 1))
        assert cost == pytest.approx(0.5, abs=1e-9)

    def test_infeasible_mass(self):
        with pytest.raises(ValidationError):
            lp_min_cost_given_marginals(["a"], {"a": 0.8}, 0.5, lambda s: len(s))

    def test_solution_is_a_distribution(self, rng):
        ground = list("abcd")
        marg = random_marginals(rng, ground)
        dist, _ = lp_min_cost_given_marginals(ground, marg, 1.0, lambda s: len(s) ** 0.5)
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-8)
        for e in ground:
            got = sum(p for s, p in dist.items() if e in s)
            assert got == pytest.approx(marg[e], abs=1e-8)


class TestRandomizedBruteForce:
    def test_intro(self):
        scheme, utility = brute_force_randomized(gen_intro_example())
        assert utility == pytest.approx(71 / 120, abs=1e-9)
        assert scheme.suggested == "g"

    def test_nonic(self):
        inst, _, _ = gen_nonic_example()
        _, utility = brute_force_randomized(inst)
        assert utility == pytest.approx(1.45 - 2.0 * math.sqrt(0.3), abs=1e-9)

    def test_size_limit(self):
        with pytest.raises(oracle.OracleSizeError,
                           match=r"^randomized oracle limited to n <= 7$"):
            brute_force_randomized(gen_gap_instance(8))

    @pytest.mark.parametrize("n, refused", [(13, False), (14, True)])
    def test_lp_size_limit_before_any_query(self, n, refused):
        # 2^(n-1) columns: 4,096 at n = 13 fit MAX_LP_VARS, 8,192 at n = 14 do not.
        actions = [Action("bot", 0.0, 0.1)] + [
            Action(f"a{j}", 0.01 * j, 0.1 + 0.05 * j) for j in range(1, n)]
        counted = costfn.CountingOracle(costfn.Additive([0.01] * n))
        inst = Instance(tuple(actions), "bot", counted)
        if refused:
            with pytest.raises(oracle.OracleSizeError,
                               match=r"^LP oracle limited to n <= 13$"):
                lp_best_distribution(inst, "a1", 0.5)
            assert counted.value_queries == 0
        else:
            scheme, _ = lp_best_distribution(inst, "a1", 0.5)
            assert scheme is not None and counted.value_queries == 1 << (n - 1)

    @pytest.mark.parametrize("step", [0.0, math.nan, -0.5, math.inf, 1.5, 1.0])
    def test_alpha_resolution_is_not_read(self, step):
        inst = gen_intro_example()
        assert (_answer(brute_force_randomized(inst, alpha_resolution=step))
                == _answer(brute_force_randomized(inst)))

    def test_optimum_at_break_even_payment(self):
        # Inspecting is so cheap that paying more than c(a)/f(a) = 0.2 only
        # costs: golden section, which never probes the ends, stops short.
        inst = Instance((Action("bot", 0.0, 0.5), Action("a", 0.2, 1.0)), "bot",
                        costfn.Additive([0.01, 0.01]))
        scheme, utility = brute_force_randomized(inst)
        assert (scheme.suggested, scheme.alpha) == ("a", 0.2)
        assert utility == pytest.approx(0.79, abs=1e-12)
        assert is_IC(inst, scheme, 1e-9)

    def test_lp_solves_per_suggestion(self, monkeypatch):
        # Two interior probes, at most 48 golden steps and the two ends.  Every
        # payment's LP goes through the simplex core, `simplex_solve` or not.
        solves = []
        core = oracle._simplex
        monkeypatch.setattr(oracle, "_simplex",
                            lambda *lp: solves.append(1) or core(*lp))
        total = 0
        for inst in _battery(60) + [gen_intro_example()]:
            solves.clear()
            brute_force_randomized(inst)
            eligible = sum(a.prob > a.cost > 0.0 for a in inst.actions)
            assert 4 * eligible <= len(solves) <= 52 * eligible
            total += len(solves)
        assert total > 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_cost_refused(self, bad):
        # Each skeleton is checked once, when built, with LinearProgram's text.
        class Poisoned(costfn.SetFunction):
            n = 3

            def value(self, mask):
                return bad if mask == 0b001 else 0.1 * mask.bit_count()

        inst = Instance((Action("bot", 0.0, 0.1), Action("a", 0.2, 0.9),
                         Action("b", 0.1, 0.5)), "bot", Poisoned())
        with pytest.raises(ValueError, match=r"^LP entries must be finite$"):
            brute_force_randomized(inst)
        with pytest.raises(ValueError, match=r"^LP entries must be finite$"):
            lp_best_distribution(inst, "a", 0.5)

    def test_non_finite_right_hand_side_refused(self):
        # A rival of subnormal prob sends its marginal bound to -inf.
        inst = Instance((Action("bot", 0.0, 1e-310), Action("a", 0.1, 0.9)), "bot",
                        costfn.Additive([0.01, 0.01]))
        with pytest.raises(ValueError, match=r"^LP entries must be finite$"):
            lp_best_distribution(inst, "a", 0.5)

    def test_fixed_alpha_lp_is_ic(self, rng):
        for trial in range(15):
            inst = random_instance(rng, rng.randint(2, 5), fn_kind="submodular")
            for a in inst.actions:
                if a.prob > a.cost > 0:
                    alpha = min(1.0, a.cost / a.prob + 0.1)
                    scheme, _ = lp_best_distribution(inst, a.id, alpha)
                    assert scheme is not None
                    assert is_IC(inst, scheme, 1e-7)

    def test_independent_of_the_solver(self, monkeypatch):
        # With every function of icx.randomized raising, the oracle can lean
        # on nothing the solver it checks computes.
        rng = random.Random(11)
        insts = [random_instance(rng, 2 + t % 4, fn_kind="submodular") for t in range(8)]
        solved = [randomized.solve_randomized(inst).utility for inst in insts]

        def unavailable(*args, **kwargs):
            raise AssertionError("the LP oracle called into icx.randomized")

        for name, obj in list(vars(randomized).items()):
            if inspect.isfunction(obj) and obj.__module__ == randomized.__name__:
                monkeypatch.setattr(randomized, name, unavailable)
        _, utility = brute_force_randomized(gen_intro_example())
        assert utility == pytest.approx(71 / 120, abs=1e-6)
        for inst, expected in zip(insts, solved):
            _, utility = brute_force_randomized(inst)
            assert abs(utility - expected) <= 1e-4

    def test_total_cost_convex_in_inverse_payment(self):
        # The payment search rests on this: for any cost function,
        # alpha*f(i) + LP(alpha) is convex in t = 1/alpha on [1, f(i)/c(i)].
        rng = random.Random(5)
        checked = 0
        for trial in range(24):
            inst = random_instance(rng, 2 + trial % 5,
                                   fn_kind="table" if trial % 2 else "submodular")
            for k, a in enumerate(inst.actions):
                if not a.prob > a.cost > 0:
                    continue
                skeleton = oracle._LPSkeleton(inst, k)
                top = a.prob / a.cost
                ts = [1.0 + (top - 1.0) * s / 16 for s in range(17)]
                costs = [oracle._lp_at(skeleton, 1.0 / t)[1] for t in ts]
                for left, mid, right in zip(costs, costs[1:], costs[2:]):
                    assert left - 2.0 * mid + right >= -1e-9
                    checked += 1
        assert checked >= 300

    def test_payment_outside_unit_interval_rejected(self):
        inst = gen_intro_example()
        for alpha in (0.0, -0.25, 1.5, math.nan):
            with pytest.raises(ValidationError, match="payment in"):
                lp_best_distribution(inst, "g", alpha)
        assert lp_best_distribution(inst, "g", 1.0)[0] is not None


class TestNonICDeterministic:
    def test_size_limit(self):
        with pytest.raises(oracle.OracleSizeError,
                           match=r"^deterministic oracle limited to n <= 12$"):
            deterministic_non_ic_best(gen_gap_instance(13))

    def test_nonic_example_has_no_deterministic_advantage(self):
        inst, _, _ = gen_nonic_example()
        _, ic_opt = brute_force_deterministic(inst)
        assert deterministic_non_ic_best(inst) <= ic_opt + 1e-9

    def test_random_instances(self, rng):
        for trial in range(25):
            inst = random_instance(rng, rng.randint(2, 4))
            _, ic_opt = brute_force_deterministic(inst)
            assert deterministic_non_ic_best(inst) <= ic_opt + 1e-9


# ---------------------------------------------------------------------------
# Index-native oracles against the id-set formulations they replaced
# ---------------------------------------------------------------------------


def _ref_feasible_alpha(inst, i, inspected):
    """Smallest IC payment for (i, alpha, inspected), pair by pair in Fractions."""
    fi, ci = Fraction(inst.f(i)), Fraction(inst.c(i))
    if i in inspected:
        if ci == 0:
            return Fraction(0)
        if fi == 0:
            return None
        return ci / fi if ci <= fi else None
    if fi == 0:
        lb = Fraction(0)
        if ci > 0:
            return None
    else:
        lb = ci / fi
    ub = Fraction(1)
    for a in inst.actions:
        j = a.id
        if j == i or j in inspected:
            continue
        fj, cj = Fraction(a.prob), Fraction(a.cost)
        df, dc = fi - fj, ci - cj
        if df > 0:
            lb = max(lb, dc / df)
        elif df < 0:
            ub = min(ub, dc / df)
        elif dc > 0:
            return None
    if lb > ub:
        return None
    return lb


def _ref_brute_force_deterministic(inst):
    best = None
    for a in inst.actions:
        i = a.id
        for mask in range(1 << inst.n):
            inspected = inst.ids_of(mask)
            alpha = _ref_feasible_alpha(inst, i, inspected)
            if alpha is None or alpha > 1:
                continue
            utility = (1.0 - float(alpha)) * a.prob - inst.cost_fn.value(mask)
            key = (utility, -len(inspected), -float(alpha), -inst.index(i))
            if best is None or key > best[0]:
                best = (key, i, float(alpha), inspected)
    _, i, alpha, inspected = best
    return deterministic_scheme(i, alpha, inspected), best[0][0]


def _ref_scan_deterministic(inst):
    """The per-mask scan that the oracle's IC groups replace: every
    (suggestion, mask) pair in ascending order, each priced by
    `_ICBounds.payment`, ties going to the first pair found."""
    fs, cs = oracle._integers(inst.actions)
    costs = [None] * (1 << inst.n)
    best = None
    for k, a in enumerate(inst.actions):
        bounds = oracle._ICBounds(fs, cs, k)
        for mask in range(1 << inst.n):
            pay = bounds.payment(mask)
            if pay is None:
                continue
            alpha = pay[1]
            if costs[mask] is None:
                costs[mask] = inst.cost_fn.value(mask)
            utility = (1.0 - alpha) * a.prob - costs[mask]
            key = (utility, -mask.bit_count(), -alpha, -k)
            if best is None or key > best[0]:
                best = (key, k, alpha, mask)
    key, k, alpha, mask = best
    return deterministic_scheme(inst.actions[k].id, alpha, inst.ids_of(mask)), key[0]


def _ref_no_inspection_best(inst):
    best = None
    for a in inst.actions:
        alpha = _ref_feasible_alpha(inst, a.id, frozenset())
        if alpha is None or alpha > 1:
            continue
        utility = (1.0 - float(alpha)) * a.prob
        if best is None or utility > best[2]:
            best = (a.id, float(alpha), utility)
    return best


def _ref_lp_best_distribution(inst, i, alpha):
    """The inspection LP built per call from id sets, column by column."""
    others = [a.id for a in inst.actions if a.id != i]
    active = [j for j in others if inst.f(j) > 0.0]
    subsets = []
    for r in range(1, len(others) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(others, r))
    nvar = len(subsets) + 1
    costs = np.array([inst.inspection_cost(s) for s in subsets]
                     + [inst.inspection_cost([i])])
    rows, senses, b = [], [], []
    for j in active:
        row = np.zeros(nvar)
        for col, s in enumerate(subsets):
            if j in s:
                row[col] = 1.0
        row[-1] = 1.0
        rows.append(row)
        senses.append(">=")
        b.append(1.0 - (alpha * inst.f(i) - inst.c(i) + inst.c(j)) / (alpha * inst.f(j)))
    rows.append(np.ones(nvar))
    senses.append("<=")
    b.append(1.0)
    status, x, value = simplex_solve(
        LinearProgram(costs, np.array(rows), tuple(senses), np.array(b)))
    if status != "optimal":
        return None, math.inf
    dist = [(s, float(x[col])) for col, s in enumerate(subsets) if x[col] > 1e-12]
    p_i = float(x[-1])
    if p_i > 1e-12:
        dist.append((frozenset([i]), p_i))
    total = sum(p for _, p in dist)
    if total > 1.0:
        dist = [(s, p / total) for s, p in dist]
        total = sum(p for _, p in dist)
    dist.append((frozenset(), max(0.0, 1.0 - total)))
    return InspectionScheme(i, alpha, dist), alpha * inst.f(i) + float(value)


def _ref_golden_minimize(fun, lo, hi):
    """Golden section as the grid search below used it: at most 40 steps."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(40):
        if b - a < 1e-10:
            break
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


def _ref_grid_search_utility(inst, step):
    """The LP oracle's former payment search: a uniform grid of `step` from the
    break-even payment to 1, then golden section on the best grid point's
    two neighbours."""
    best = -math.inf
    for k, a in enumerate(inst.actions):
        if a.cost == 0.0:
            best = max(best, a.prob)
            continue
        if a.prob <= a.cost:
            continue
        lo = a.cost / a.prob
        steps = max(1, math.ceil((1.0 - lo) / step))
        grid = [lo + (1.0 - lo) * t / steps for t in range(steps)] + [1.0]
        skeleton = oracle._LPSkeleton(inst, k)

        def total_cost(alpha, skeleton=skeleton):
            return oracle._lp_at(skeleton, alpha)[1]

        values = [total_cost(alpha) for alpha in grid]
        b_idx = min(range(len(grid)), key=values.__getitem__)
        left, right = grid[max(0, b_idx - 1)], grid[min(steps, b_idx + 1)]
        cost = min(values[b_idx], _ref_golden_minimize(total_cost, left, right)[1])
        best = max(best, a.prob - cost)
    return best


@dataclass
class _MaskLog(costfn.CountingOracle):
    """Counts like its parent and records every mask it is asked for."""

    masks: list = field(default_factory=list)

    def value(self, mask):
        self.masks.append(mask)
        return super().value(mask)


def _battery(count=420):
    """Seeded instances, n = 1..7: grid ties, free and f = 0 actions, every cost type."""
    rng = random.Random(20240617)
    return [random_instance(rng, 1 + t % 7, fn_kind="table" if t % 2 else "submodular")
            for t in range(count)]


def _answer(result):
    scheme, utility = result
    if scheme is None:
        return None, utility
    return scheme.suggested, scheme.alpha, scheme.distribution, utility


class TestIndexNativeOracles:
    def test_battery_covers_degenerate_inputs(self):
        insts = _battery()
        actions = [a for inst in insts for a in inst.actions if a.id != inst.null_id]
        assert {inst.n for inst in insts} == set(range(1, 8))
        assert sum(a.cost == 0.0 for a in actions) >= 100
        assert sum(a.prob == 0.0 for a in actions) >= 50
        assert sum(a.prob in GRID for a in actions) >= 500
        kinds = {type(inst.cost_fn).__name__ for inst in insts}
        assert kinds == {"ExplicitTable", "Additive", "BudgetAdditive",
                         "WeightedCoverage", "ConcaveCardinality"}

    def test_ic_bounds_match_reference_per_pair(self):
        for inst in _battery():
            fs, cs = oracle._integers(inst.actions)
            for k, a in enumerate(inst.actions):
                bounds = oracle._ICBounds(fs, cs, k)
                for mask in range(1 << inst.n):
                    ref = _ref_feasible_alpha(inst, a.id, inst.ids_of(mask))
                    if ref is not None and ref > 1:
                        ref = None
                    pay = bounds.payment(mask)
                    if pay is not None:
                        (p, q), alpha = pay
                        assert q > 0
                        pay = Fraction(p, q), alpha
                    assert pay == (None if ref is None else (ref, float(ref)))

    def test_ic_groups_partition_the_ic_masks(self):
        # Each IC mask in exactly one group, at the payment `payment` gives
        # it.  Answers alone would not show a group that also holds non-IC
        # masks: the agent's best response is IC on the same mask, and wins.
        for inst in _battery():
            fs, cs = oracle._integers(inst.actions)
            for k in range(inst.n):
                bounds = oracle._ICBounds(fs, cs, k)
                got = {}
                for need, free, pay in bounds.groups(inst.n):
                    assert not need & free
                    for sub in range(1 << inst.n):
                        if sub & free == sub:
                            assert need | sub not in got
                            got[need | sub] = pay
                want = {mask: bounds.payment(mask) for mask in range(1 << inst.n)}
                assert got == {mask: pay for mask, pay in want.items() if pay is not None}

    def test_deterministic_matches_reference(self):
        for inst in _battery():
            counted = costfn.CountingOracle(inst.cost_fn)
            got = brute_force_deterministic(inst.with_cost_fn(counted))
            assert _answer(got) == _answer(_ref_brute_force_deterministic(inst))
            assert counted.value_queries <= 1 << inst.n  # each mask at most once
            assert no_inspection_best(inst) == _ref_no_inspection_best(inst)

    def test_deterministic_reads_the_ic_masks_the_bound_keeps(self):
        # Each mask at most once and only when some suggestion is IC with it
        # inspected; and every IC mask of a (suggestion, payment) group whose
        # gain + slack reaches the answer's utility, since only a group that
        # cannot reach it may be skipped.
        for inst in _battery():
            log = _MaskLog(inst.cost_fn)
            _, top = brute_force_deterministic(inst.with_cost_fn(log))
            slack = (inst.n + 1) * costfn.EQ_TOL
            ic, kept = set(), set()
            for a in inst.actions:
                for mask in range(1 << inst.n):
                    alpha = _ref_feasible_alpha(inst, a.id, inst.ids_of(mask))
                    if alpha is not None and alpha <= 1:
                        ic.add(mask)
                        if (1.0 - float(alpha)) * a.prob + slack >= top:
                            kept.add(mask)
            assert len(log.masks) == len(set(log.masks))
            assert kept <= set(log.masks) <= ic

    def test_deterministic_visits_suggestions_best_bound_first(self, monkeypatch):
        # Descending f - c, ties to the lower index, up to the first whose
        # f - c + 2 * slack is below the best utility of those before it.
        built = []
        ic_bounds = oracle._ICBounds
        monkeypatch.setattr(oracle, "_ICBounds",
                            lambda fs, cs, k: built.append(k) or ic_bounds(fs, cs, k))
        for inst in _battery():
            built.clear()
            brute_force_deterministic(inst)
            slack = (inst.n + 1) * costfn.EQ_TOL
            by_bound = sorted(enumerate(inst.actions),
                              key=lambda ka: (ka[1].cost - ka[1].prob, ka[0]))
            want, top = [], -math.inf
            for k, a in by_bound:
                if a.prob - a.cost + 2 * slack < top:
                    break
                want.append(k)
                for mask in range(1 << inst.n):
                    alpha = _ref_feasible_alpha(inst, a.id, inst.ids_of(mask))
                    if alpha is not None and alpha <= 1:
                        top = max(top, (1.0 - float(alpha)) * a.prob - inst.cost_fn.value(mask))
            assert built == want

    def test_deterministic_exact_on_costs_just_below_zero(self):
        # v(S) - 0.9 |S| EQ_TOL is still normalized and monotone within
        # EQ_TOL, and reaches -6.3 EQ_TOL at n = 7: inside the bound's slack.
        shifted = [inst.with_cost_fn(costfn.ExplicitTable(
                       [v - 0.9 * mask.bit_count() * costfn.EQ_TOL
                        for mask, v in enumerate(inst.cost_fn.table())]))
                   for inst in _battery() if isinstance(inst.cost_fn, costfn.ExplicitTable)]
        assert len(shifted) == 210
        for inst in shifted:
            assert (_answer(brute_force_deterministic(inst))
                    == _answer(_ref_brute_force_deterministic(inst)))

    def test_deterministic_refuses_a_cost_below_the_slack(self):
        # The bound trusts every cost to be at least -(n + 1) * EQ_TOL.  The
        # answer's mask is always read, so a dent there is always seen.
        inst = gen_intro_example()
        scheme, _ = brute_force_deterministic(inst)
        (inspected, _), = scheme.distribution
        target = inst.mask_of(inspected)

        class Dented(costfn.SetFunction):
            n = inst.n

            def value(self, mask):
                return -1e-6 if mask == target else inst.cost_fn.value(mask)

        with pytest.raises(ValidationError, match=rf"^cost -1e-06 of mask {target:b} is below "):
            brute_force_deterministic(inst.with_cost_fn(Dented()))

    def test_deterministic_exact_at_every_scale(self):
        # Beyond the battery: rivals succeeding with probability 1e-8..1e-11
        # against costs up to 0.2, and tied tables at n = 8..10.
        rng = random.Random(20241015)
        insts = [scaled_rivals_instance(rng, t, 8, 11) for t in range(300)]
        insts += [random_instance(rng, n) for n in (8, 9, 10, 10)]
        for inst in insts:
            assert (_answer(brute_force_deterministic(inst))
                    == _answer(_ref_brute_force_deterministic(inst)))
            assert no_inspection_best(inst) == _ref_no_inspection_best(inst)

    def test_deterministic_groups_match_the_mask_scan_at_the_size_limit(self):
        # Beyond the battery, at n = 11 and 12 where the IC groups skip the
        # most masks: the same answer and the same queried masks as the
        # per-mask scan they replace.
        rng = random.Random(20241019)
        for n in (11, 11, 12, 12):
            inst = random_instance(rng, n)
            log, ref_log = _MaskLog(inst.cost_fn), _MaskLog(inst.cost_fn)
            got = brute_force_deterministic(inst.with_cost_fn(log))
            assert _answer(got) == _answer(_ref_scan_deterministic(inst.with_cost_fn(ref_log)))
            assert sorted(log.masks) == sorted(ref_log.masks)
            assert len(set(log.masks)) == len(log.masks)

    def test_lp_matches_reference_at_fixed_payments(self):
        rng = random.Random(7)
        for inst in _battery():
            for k, a in enumerate(inst.actions):
                # A grid payment (ties), an arbitrary one, 1 and the break-even.
                alphas = [rng.choice(GRID[1:]), rng.uniform(1e-3, 1.0), 1.0]
                if 0.0 < a.cost <= a.prob:
                    alphas.append(a.cost / a.prob)
                counted = costfn.CountingOracle(inst.cost_fn)
                skeleton = oracle._LPSkeleton(inst.with_cost_fn(counted), k)
                refs = [_answer(_ref_lp_best_distribution(inst, a.id, alpha))
                        for alpha in alphas]
                for alpha, ref in zip(alphas, refs):
                    x, cost = oracle._lp_at(skeleton, alpha)
                    scheme = None if x is None else oracle._scheme_of(inst, skeleton, alpha, x)
                    assert _answer((scheme, cost)) == ref
                # One query per mask, when the skeleton is built; none per payment.
                assert counted.value_queries == 1 << (inst.n - 1)
                assert _answer(lp_best_distribution(inst, a.id, alphas[0])) == refs[0]

    def test_lp_at_matches_a_fresh_linear_program(self):
        # The skeleton is checked once and `_lp_at` checks only the new
        # right-hand side: the core gets the floats a fresh LinearProgram
        # holds, so the same pivots give the same bits.
        rng = random.Random(17)
        for inst in _battery():
            for k, a in enumerate(inst.actions):
                alphas = [rng.choice(GRID[1:]), rng.uniform(1e-3, 1.0), 1.0]
                if 0.0 < a.cost <= a.prob:
                    alphas.append(a.cost / a.prob)
                skeleton = oracle._LPSkeleton(inst, k)
                for alpha in alphas:
                    x, cost = oracle._lp_at(skeleton, alpha)
                    status, y, value = simplex_solve(LinearProgram(
                        skeleton.costs, skeleton.A, skeleton.senses, skeleton.rhs(alpha)))
                    if status != "optimal":
                        assert (x, cost) == (None, math.inf)
                        continue
                    assert list(map(float.hex, x)) == list(map(float.hex, y))
                    assert cost.hex() == (alpha * a.prob + value).hex()

    def test_randomized_reads_each_mask_once_per_call(self):
        # The suggestions' skeletons share one memo: each mask is read at most
        # once, and the masks read are the eligible suggestions' LP columns,
        # every nonempty subset of the rivals and the suggestion alone.
        for inst in _battery():
            log = _MaskLog(inst.cost_fn)
            brute_force_randomized(inst.with_cost_fn(log))
            full = (1 << inst.n) - 1
            want = set()
            for k, a in enumerate(inst.actions):
                if a.prob > a.cost > 0.0:
                    rivals = full & ~(1 << k)
                    want |= {m for m in range(1, full + 1) if m & rivals == m}
                    want.add(1 << k)
            assert len(log.masks) == len(set(log.masks))
            assert set(log.masks) == want

    def test_randomized_wraps_one_scheme_per_suggestion(self, monkeypatch):
        wrapped = []
        scheme_of = oracle._scheme_of

        def spy(inst, skeleton, alpha, x):
            wrapped.append(skeleton.k)
            return scheme_of(inst, skeleton, alpha, x)

        monkeypatch.setattr(oracle, "_scheme_of", spy)
        for inst in _battery(60):
            wrapped.clear()
            brute_force_randomized(inst)
            eligible = [k for k, a in enumerate(inst.actions) if a.prob > a.cost > 0.0]
            assert wrapped == eligible

    def test_search_no_worse_than_grid_reference(self):
        rng = random.Random(12345)
        ill_scaled = [scaled_rivals_instance(rng, t, 8, 11) for t in range(40)]
        for inst in _battery(60) + ill_scaled:
            scheme, utility = brute_force_randomized(inst)
            assert utility >= _ref_grid_search_utility(inst, 0.02) - 1e-10
            assert is_IC(inst, scheme, 1e-9)

    def test_randomized_matches_reference(self, monkeypatch):
        insts = _battery()
        got = [_answer(brute_force_randomized(inst)) for inst in insts]
        # The oracle's search over payments, with the reference LP in place
        # of the skeleton's at every payment it tries.
        monkeypatch.setattr(oracle, "_scheme_of", lambda inst, skeleton, alpha, x: x)
        for inst, answer in zip(insts, got):
            monkeypatch.setattr(oracle, "_lp_at", lambda skeleton, alpha, inst=inst:
                                _ref_lp_best_distribution(
                                    inst, inst.actions[skeleton.k].id, alpha))
            assert answer == _answer(brute_force_randomized(inst))


@st.composite
def grid_instance(draw):
    """n <= 6 actions on the 1/8 grid, so that rivals' IC bounds often
    coincide, with a monotone table whose increments are often zero, so
    that masks often tie on cost and on size."""
    n = draw(st.integers(1, 6))
    grid = st.sampled_from(GRID)
    actions = [Action("bot", 0.0, draw(grid))]
    actions += [Action(f"a{i}", draw(grid), draw(grid)) for i in range(1, n)]
    bumps = draw(st.lists(st.sampled_from((0.0, 0.0, 0.125)),
                          min_size=(1 << n) - 1, max_size=(1 << n) - 1))
    vals = [0.0]
    for mask, bump in enumerate(bumps, 1):
        vals.append(max(vals[mask & ~(1 << i)] for i in costfn.bits(mask)) + bump)
    return Instance(tuple(actions), "bot", costfn.ExplicitTable(vals))


@settings(max_examples=80, deadline=None)
@given(grid_instance())
def test_deterministic_exact_ties_match_reference(inst):
    assert (_answer(brute_force_deterministic(inst))
            == _answer(_ref_brute_force_deterministic(inst)))


class TestRejectPaths:
    @pytest.mark.parametrize("g", [11, 16])
    def test_coupling_lp_ground_limit(self, g):
        ground = list(range(g))
        with pytest.raises(ValidationError,
                           match=r"^coupling LP limited to \|ground\| <= 10$"):
            lp_min_cost_given_marginals(ground, {e: 0.5 for e in ground}, 1.0,
                                        lambda s: 0.0)
