import inspect
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

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
        with pytest.raises(ValueError):
            LinearProgram(np.zeros(5000), np.zeros((1, 5000)), ("<=",), [1.0])

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
            assert (x >= -1e-9).all()
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
        # Two interior probes, at most 48 golden steps and the two ends.
        solves = []
        solve = oracle.simplex_solve
        monkeypatch.setattr(oracle, "simplex_solve",
                            lambda lp: solves.append(1) or solve(lp))
        for inst in _battery(60) + [gen_intro_example()]:
            solves.clear()
            brute_force_randomized(inst)
            eligible = sum(a.prob > a.cost > 0.0 for a in inst.actions)
            assert len(solves) <= 52 * eligible

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
            fs = [a.prob for a in inst.actions]
            cs = [a.cost for a in inst.actions]
            for k, a in enumerate(inst.actions):
                bounds = oracle._ICBounds(fs, cs, k)
                for mask in range(1 << inst.n):
                    ref = _ref_feasible_alpha(inst, a.id, inst.ids_of(mask))
                    if ref is not None and ref > 1:
                        ref = None
                    pay = bounds.payment(mask)
                    assert pay == (None if ref is None else (ref, float(ref)))

    def test_deterministic_matches_reference(self):
        for inst in _battery():
            counted = costfn.CountingOracle(inst.cost_fn)
            got = brute_force_deterministic(inst.with_cost_fn(counted))
            assert _answer(got) == _answer(_ref_brute_force_deterministic(inst))
            assert counted.value_queries <= 1 << inst.n  # each mask at most once
            assert no_inspection_best(inst) == _ref_no_inspection_best(inst)

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
