"""Independent brute-force reference solvers and a small dense LP engine.

Everything here exists to verify the fast solvers, so it favors transparent
exhaustive computation over cleverness: the deterministic oracle enumerates
every (suggestion, inspected set) pair; the randomized oracle searches the
payment axis and solves an exact LP in the inspection probabilities at each
payment it tries; the coupling LP minimizes expected cost over all subset
distributions with prescribed marginals.  Nothing here is imported from the
solvers: the payment search rests only on the convexity of each
suggestion's total cost in 1/alpha, which makes the whole payment range a
golden-section bracket.

Both exhaustive oracles work on action indices and subset bitmasks; ids
appear only in the schemes they return.  Per suggestion, the deterministic
oracle settles its exact Fraction IC bounds once and sorts them, so each
inspected mask reads its smallest IC payment off the first bound it leaves
uninspected; the randomized oracle builds the LP skeleton (subset masks,
their costs, the 0/1 constraint matrix) once and recomputes only the
right-hand side at each payment.  Each mask's cost is queried at most once
per suggestion.

numpy is imported inside the functions that build or solve an LP, so that
importing `icx` (and running the solvers) never loads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Sequence

from .costfn import EQ_TOL
from .model import (DEFAULT_TOL, ActionId, InspectionScheme, Instance, ValidationError,
                    best_responses, deterministic_scheme, principal_utility)

MAX_LP_VARS = 1 << 12
MAX_LP_ROWS = 128
DET_ORACLE_MAX_N = 12  # brute_force_deterministic enumerates n * 2^n pairs
RAND_ORACLE_MAX_N = 7  # brute_force_randomized solves LPs over 2^n sets
COUPLING_LP_MAX_GROUND = 10  # lp_min_cost_given_marginals has 2^|ground| columns
GOLDEN_WIDTH = 1e-10  # _golden_minimize's stopping bracket width


class OracleSizeError(ValidationError):
    """The instance has more actions than an exhaustive oracle enumerates."""


# ---------------------------------------------------------------------------
# Two-phase simplex
# ---------------------------------------------------------------------------


@dataclass
class LinearProgram:
    """min objective @ x  s.t.  A x (senses) b,  x >= 0."""

    objective: np.ndarray
    A: np.ndarray
    senses: tuple[str, ...]
    b: np.ndarray

    def __post_init__(self):
        import numpy as np

        self.objective = np.asarray(self.objective, dtype=float)
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        m, n = self.A.shape
        if len(self.objective) != n or len(self.b) != m or len(self.senses) != m:
            raise ValueError("inconsistent LP dimensions")
        if not (np.isfinite(self.objective).all() and np.isfinite(self.A).all()
                and np.isfinite(self.b).all()):
            raise ValueError("LP entries must be finite")
        if n > MAX_LP_VARS or m > MAX_LP_ROWS:
            raise ValueError(f"LP size {m}x{n} exceeds desk-scale limits")


def _pivot(T: np.ndarray, row: int, col: int):
    import numpy as np

    T[row] /= T[row, col]
    factors = T[:, col].copy()
    factors[row] = 0.0
    T -= np.outer(factors, T[row])


def _run_simplex(T: np.ndarray, basis: list[int], ncols: int) -> str:
    """Bland's rule on tableau T (last row = reduced costs, last col = rhs)."""
    m = T.shape[0] - 1
    while True:
        enter = -1
        for j in range(ncols):
            if T[-1, j] < -DEFAULT_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave, best_ratio = -1, math.inf
        for r in range(m):
            a = T[r, enter]
            if a > DEFAULT_TOL:
                ratio = T[r, -1] / a
                if ratio < best_ratio - DEFAULT_TOL:
                    leave, best_ratio = r, ratio
                elif (leave >= 0 and ratio <= best_ratio + DEFAULT_TOL
                      and basis[r] < basis[leave]):
                    leave = r  # Bland tie-break on the basic variable index
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, enter)
        basis[leave] = enter


def simplex_solve(lp: LinearProgram):
    """Two-phase primal simplex with Bland's anti-cycling rule.

    Returns (status, solution, value) with status in
    {"optimal", "infeasible", "unbounded"}; solution/value are None unless
    optimal.
    """
    import numpy as np

    m, n = lp.A.shape
    A = lp.A.copy()
    b = lp.b.copy()
    senses = list(lp.senses)
    for r in range(m):
        if b[r] < 0:
            A[r] *= -1
            b[r] *= -1
            senses[r] = {"<=": ">=", ">=": "<=", "=": "="}[senses[r]]

    n_slack = sum(1 for s in senses if s == "<=")
    n_surplus = sum(1 for s in senses if s == ">=")
    n_art = sum(1 for s in senses if s in ("=", ">="))
    total = n + n_slack + n_surplus + n_art
    slack0, surplus0, art0 = n, n + n_slack, n + n_slack + n_surplus

    T = np.zeros((m + 1, total + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    basis: list[int] = []
    si = ti = ai = 0
    for r in range(m):
        if senses[r] == "<=":
            T[r, slack0 + si] = 1.0
            basis.append(slack0 + si)
            si += 1
        elif senses[r] == ">=":
            T[r, surplus0 + ti] = -1.0
            T[r, art0 + ai] = 1.0
            basis.append(art0 + ai)
            ti += 1
            ai += 1
        else:
            T[r, art0 + ai] = 1.0
            basis.append(art0 + ai)
            ai += 1

    # Phase 1: minimize the sum of artificials.
    if n_art:
        T[-1, art0:art0 + n_art] = 1.0
        for r, bc in enumerate(basis):
            if bc >= art0:
                T[-1] -= T[r]
        status = _run_simplex(T, basis, total)
        if status != "optimal" or T[-1, -1] < -DEFAULT_TOL:
            return "infeasible", None, None
        # Pivot remaining artificials out of the basis where possible.
        for r, bc in enumerate(basis):
            if bc >= art0:
                for j in range(art0):
                    if abs(T[r, j]) > DEFAULT_TOL:
                        _pivot(T, r, j)
                        basis[r] = j
                        break
        T[:, art0:art0 + n_art] = 0.0  # bar artificials from re-entering

    # Phase 2: original objective.
    T[-1, :] = 0.0
    T[-1, :n] = lp.objective
    for r, bc in enumerate(basis):
        if T[-1, bc] != 0.0:
            T[-1] -= T[-1, bc] * T[r]
    status = _run_simplex(T, basis, art0)
    if status == "unbounded":
        return "unbounded", None, None
    x = np.zeros(total)
    for r, bc in enumerate(basis):
        x[bc] = T[r, -1]
    return "optimal", x[:n], float(lp.objective @ x[:n])


# ---------------------------------------------------------------------------
# Deterministic brute force
# ---------------------------------------------------------------------------


class _ICBounds:
    """Exact IC payment bounds of deterministic suggestion k, settled once.

    With k uninspected, each uninspected deviation j with f(j) < f(k) bounds
    the payment from below by (c(k) - c(j)) / (f(k) - f(j)), each one with
    f(j) > f(k) bounds it from above, and one with f(j) == f(k) and
    c(j) < c(k) rules k out.  The bounds are exact Fractions, sorted once, so
    the smallest IC payment for an inspected mask is the first lower bound
    whose action the mask leaves uninspected, if it does not pass the first
    such upper bound.  A sentinel with bit 0 ends each list: below, the
    bound c(k)/f(k) that the null action implies (0 when f(k) = c(k) = 0);
    above, 1.
    """

    __slots__ = ("bit", "caught", "lower", "upper", "deaths")

    def __init__(self, fs: Sequence[float], cs: Sequence[float], k: int):
        fi, ci = Fraction(fs[k]), Fraction(cs[k])
        self.bit = 1 << k
        # Inspecting k itself catches every deviation: only IR binds.
        if ci == 0:
            self.caught = _payment(Fraction(0))
        elif fi == 0 or ci > fi:
            self.caught = None
        else:
            self.caught = _payment(ci / fi)
        if fi == 0:
            base = None if ci > 0 else Fraction(0)
        else:
            base = ci / fi
        lower, upper, deaths = [], [], 0
        for j in range(len(fs)):
            if j == k:
                continue
            fj, cj = Fraction(fs[j]), Fraction(cs[j])
            df, dc = fi - fj, ci - cj
            if df > 0:
                lower.append((dc / df, 1 << j))
            elif df < 0:
                upper.append((dc / df, 1 << j))
            elif dc > 0:
                deaths |= 1 << j  # same success probability, strictly cheaper
        self.deaths = deaths
        if base is None:
            self.lower = self.upper = None
            return
        self.lower = [(_payment(v), bit) for v, bit in
                      sorted(((v, bit) for v, bit in lower if v > base), reverse=True)]
        self.lower.append((_payment(base), 0))
        self.upper = sorted((v, bit) for v, bit in upper if v < 1)
        self.upper.append((Fraction(1), 0))

    def payment(self, mask: int):
        """(exact, float) smallest IC payment with `mask` inspected, or None."""
        if mask & self.bit:
            return self.caught
        if self.lower is None or self.deaths & ~mask:
            return None
        for lo, bit in self.lower:
            if not mask & bit:
                break
        for hi, bit in self.upper:
            if not mask & bit:
                break
        return lo if lo[0] <= hi else None


def _payment(alpha: Fraction) -> tuple[Fraction, float]:
    return alpha, float(alpha)


def brute_force_deterministic(inst: Instance):
    """Exhaustive (suggestion, inspected set) search; n <= 12.

    For each pair, takes the cheapest IC payment and scores the principal's
    utility; returns (scheme, utility).  Each mask's cost is queried at most
    once, and only when some suggestion is IC with it inspected.
    """
    if inst.n > DET_ORACLE_MAX_N:
        raise OracleSizeError(f"deterministic oracle limited to n <= {DET_ORACLE_MAX_N}")
    fs = [a.prob for a in inst.actions]
    cs = [a.cost for a in inst.actions]
    value = inst.cost_fn.value
    costs: list[float | None] = [None] * (1 << inst.n)
    best = None
    for k, prob in enumerate(fs):
        bounds = _ICBounds(fs, cs, k)
        for mask in range(1 << inst.n):
            pay = bounds.payment(mask)
            if pay is None:
                continue
            alpha = pay[1]
            cost = costs[mask]
            if cost is None:
                cost = costs[mask] = value(mask)
            utility = (1.0 - alpha) * prob - cost
            key = (utility, -mask.bit_count(), -alpha, -k)
            if best is None or key > best[0]:
                best = (key, k, alpha, mask)
    key, k, alpha, mask = best
    return deterministic_scheme(inst.actions[k].id, alpha, inst.ids_of(mask)), key[0]


def no_inspection_best(inst: Instance):
    """Best IC utility when the principal never inspects (plain contracts)."""
    fs = [a.prob for a in inst.actions]
    cs = [a.cost for a in inst.actions]
    best = None
    for k, a in enumerate(inst.actions):
        pay = _ICBounds(fs, cs, k).payment(0)
        if pay is None:
            continue
        utility = (1.0 - pay[1]) * a.prob
        if best is None or utility > best[2]:
            best = (a.id, pay[1], utility)
    return best


# ---------------------------------------------------------------------------
# Marginal-coupling LP
# ---------------------------------------------------------------------------


def lp_min_cost_given_marginals(ground: Sequence[Hashable], marginals,
                                mass: float, value_of: Callable[[frozenset], float]):
    """Minimum expected cost over all subset distributions with given marginals.

    Solves the dense LP over all 2^|ground| subset variables with per-element
    marginal equalities and a total-mass equality.  Returns
    ({subset: probability}, cost); raises ValidationError when infeasible.
    """
    import numpy as np

    g = len(ground)
    if g > COUPLING_LP_MAX_GROUND:
        raise ValidationError(
            f"coupling LP limited to |ground| <= {COUPLING_LP_MAX_GROUND}")
    subsets = [frozenset(e for bit, e in enumerate(ground) if mask & (1 << bit))
               for mask in range(1 << g)]
    costs = np.array([value_of(s) for s in subsets])
    A = np.zeros((g + 1, len(subsets)))
    for col, s in enumerate(subsets):
        for row, e in enumerate(ground):
            if e in s:
                A[row, col] = 1.0
        A[g, col] = 1.0
    b = np.array([float(marginals[e]) for e in ground] + [float(mass)])
    lp = LinearProgram(costs, A, ("=",) * (g + 1), b)
    status, x, value = simplex_solve(lp)
    if status != "optimal":
        raise ValidationError(f"coupling LP {status}: mass below max marginal?")
    dist = {subsets[c]: float(x[c]) for c in range(len(subsets)) if x[c] > EQ_TOL}
    return dist, value


# ---------------------------------------------------------------------------
# Randomized brute force
# ---------------------------------------------------------------------------


class _LPSkeleton:
    """Suggestion i's inspection LP less its right-hand side.

    Columns are the nonempty subsets of the other actions as index masks, in
    `itertools.combinations` order, then {i}; rows are the marginal
    constraints of the other actions with f > 0, then the total mass.  Only
    the marginal right-hand sides depend on the payment, so one skeleton
    serves every payment tried for i: each mask's cost is queried once.
    """

    __slots__ = ("k", "masks", "costs", "A", "senses", "active", "fs", "cs")

    def __init__(self, inst: Instance, k: int):
        import numpy as np

        self.k = k
        self.fs = [a.prob for a in inst.actions]
        self.cs = [a.cost for a in inst.actions]
        others = [1 << j for j in range(inst.n) if j != k]
        self.masks = [sum(c) for r in range(1, len(others) + 1)
                      for c in itertools.combinations(others, r)]
        value = inst.cost_fn.value
        self.costs = np.array([value(m) for m in self.masks] + [value(1 << k)])
        self.active = [j for j in range(inst.n) if j != k and self.fs[j] > 0.0]
        nvar = len(self.masks) + 1
        A = np.ones((len(self.active) + 1, nvar))
        masks = np.array(self.masks, dtype=np.int64)
        for row, j in enumerate(self.active):
            A[row, :-1] = (masks >> j) & 1
        self.A = A
        self.senses = (">=",) * len(self.active) + ("<=",)

    def rhs(self, alpha: float) -> list[float]:
        fi, ci, fs, cs = self.fs[self.k], self.cs[self.k], self.fs, self.cs
        return [1.0 - (alpha * fi - ci + cs[j]) / (alpha * fs[j])
                for j in self.active] + [1.0]


def _lp_at(skeleton: _LPSkeleton, alpha: float):
    """(x, alpha*f(i) + E[v]) of the skeleton's LP at payment alpha, or (None, inf).

    x is the simplex solution, one entry per skeleton column.
    """
    import numpy as np

    lp = LinearProgram(skeleton.costs, skeleton.A, skeleton.senses,
                       np.array(skeleton.rhs(alpha)))
    status, x, value = simplex_solve(lp)
    if status != "optimal":
        return None, math.inf
    return x, alpha * skeleton.fs[skeleton.k] + float(value)


def _scheme_of(inst: Instance, skeleton: _LPSkeleton, alpha: float, x) -> InspectionScheme:
    """The inspection scheme of an `_lp_at` solution x at payment alpha."""
    i = inst.actions[skeleton.k].id
    masks = skeleton.masks
    dist = [(inst.ids_of(masks[col]), float(x[col]))
            for col in range(len(masks)) if x[col] > EQ_TOL]
    p_i = float(x[-1])
    if p_i > EQ_TOL:
        dist.append((frozenset([i]), p_i))
    # The simplex honors mass <= 1 only within DEFAULT_TOL; rescale the dust away
    # before wrapping the solution as a validated scheme.
    total = sum(p for _, p in dist)
    if total > 1.0:
        dist = [(s, p / total) for s, p in dist]
        total = sum(p for _, p in dist)
    dist.append((frozenset(), max(0.0, 1.0 - total)))
    return InspectionScheme(i, alpha, dist)


def lp_best_distribution(inst: Instance, i: ActionId, alpha: float):
    """Cheapest IC inspection distribution for suggestion i at fixed payment.

    LP variables are the probabilities of every nonempty subset avoiding i,
    plus the probability of inspecting {i} alone; the leftover mass inspects
    nothing.  Returns (scheme, total principal cost alpha*f(i) + E[v]), or
    (None, inf) when infeasible; alpha must lie in (0, 1].
    """
    if not 0.0 < alpha <= 1.0:
        raise ValidationError(f"LP oracle needs a payment in (0, 1], got {alpha}")
    skeleton = _LPSkeleton(inst, inst.index(i))
    x, cost = _lp_at(skeleton, alpha)
    if x is None:
        return None, cost
    return _scheme_of(inst, skeleton, alpha, x), cost


def _golden_minimize(fun, lo: float, hi: float):
    """Golden-section search for the minimum of a unimodal `fun` on [lo, hi].

    Stops once the bracket is narrower than GOLDEN_WIDTH: at most 48 steps
    when hi - lo <= 1.  The ends themselves are never probed.
    """
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a >= GOLDEN_WIDTH:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fun(d)
    return (c, fc) if fc <= fd else (d, fd)


def brute_force_randomized(inst: Instance, *, alpha_resolution: float | None = None):
    """Search payments and solve the exact inspection LP at each one; n <= 7.

    For suggestion i, the total cost alpha*f(i) + LP(alpha) is strictly
    convex in t = 1/alpha on [1, f(i)/c(i)]: the LP's optimal value is
    convex in its right-hand side, each marginal bound is affine in t, and
    f(i)/t is strictly convex.  So the cost is unimodal in alpha, and the
    whole range from the break-even payment c(i)/f(i) to 1 is a
    golden-section bracket (Kiefer 1953).  The LP is feasible on all of it:
    there every marginal bound is at most 1, so inspecting every rival
    always is IC.  Golden section never probes the two ends, and the
    break-even end is often the optimum, so both ends are tried as well.
    Returns (scheme, utility).

    `alpha_resolution` is read by nothing, as the search has no grid; it
    is accepted only because `benchmarks/workloads.py` still passes it.
    """
    if inst.n > RAND_ORACLE_MAX_N:
        raise OracleSizeError(f"randomized oracle limited to n <= {RAND_ORACLE_MAX_N}")
    best: tuple[float, InspectionScheme] | None = None

    def consider(utility, scheme):
        nonlocal best
        if best is None or utility > best[0]:
            best = (utility, scheme)

    for k, a in enumerate(inst.actions):
        i = a.id
        if a.cost == 0.0:
            consider(a.prob, InspectionScheme(i, 0.0, [(frozenset(), 1.0)]))
            continue
        if a.prob <= a.cost:
            continue
        skeleton = _LPSkeleton(inst, k)
        solved = {}  # payment -> (LP solution, total cost)

        def total_cost(alpha, skeleton=skeleton, solved=solved):
            solved[alpha] = _lp_at(skeleton, alpha)
            return solved[alpha][1]

        lo = a.cost / a.prob
        golden = _golden_minimize(total_cost, lo, 1.0)
        alpha, cost = min([(lo, total_cost(lo)), golden, (1.0, total_cost(1.0))],
                          key=lambda pair: pair[1])
        x, _ = solved[alpha]
        if x is not None:
            consider(a.prob - cost, _scheme_of(inst, skeleton, alpha, x))

    utility, scheme = best
    return scheme, utility


# ---------------------------------------------------------------------------
# Non-IC deterministic check
# ---------------------------------------------------------------------------


def deterministic_non_ic_best(inst: Instance):
    """Best utility any deterministic scheme yields when the agent best-responds.

    Enumerates every (suggestion, inspected set) and every payment where the
    best-response set can change (pairwise agent-utility crossings); within a
    region the principal's utility is nonincreasing in the payment, so these
    candidates are exhaustive.  Ties in the agent's response resolve in the
    principal's favor.  Covers non-IC play: the scored response need not be
    the suggestion.
    """
    if inst.n > DET_ORACLE_MAX_N:
        raise OracleSizeError(f"deterministic oracle limited to n <= {DET_ORACLE_MAX_N}")
    best = -math.inf
    for a in inst.actions:
        j = a.id
        for mask in range(1 << inst.n):
            inspected = inst.ids_of(mask)
            slopes = {}
            for other in inst.actions:
                ell = other.id
                caught = ell != j and (j in inspected or ell in inspected)
                slopes[ell] = 0.0 if caught else other.prob
            alphas = {0.0, 1.0}
            items = list(slopes.items())
            for x in range(len(items)):
                for y in range(x + 1, len(items)):
                    (l1, s1), (l2, s2) = items[x], items[y]
                    if s1 != s2:
                        cross = (inst.c(l1) - inst.c(l2)) / (s1 - s2)
                        if 0.0 < cross < 1.0:
                            alphas.add(cross)
            for alpha in alphas:
                scheme = deterministic_scheme(j, alpha, inspected)
                for ell in best_responses(inst, scheme, EQ_TOL):
                    best = max(best, principal_utility(inst, scheme, ell))
    return best
