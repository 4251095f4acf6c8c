"""Independent brute-force reference solvers and a small dense LP engine.

Everything here exists to verify the fast solvers, so it favors transparent
exhaustive computation over cleverness: the deterministic oracle enumerates
every (suggestion, inspected set) pair; the randomized oracle searches the
payment axis and solves an exact LP in the inspection probabilities at each
candidate payment; the coupling LP minimizes expected cost over all subset
distributions with prescribed marginals.

numpy is imported inside the functions that build or solve an LP, so that
importing `icx` (and running the solvers) never loads it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Sequence

from .model import (ActionId, InspectionScheme, Instance, ValidationError,
                    best_responses, deterministic_scheme, principal_utility)

LP_TOL = 1e-9
MAX_LP_VARS = 1 << 12
MAX_LP_ROWS = 128
DET_ORACLE_MAX_N = 12  # brute_force_deterministic enumerates n * 2^n pairs
RAND_ORACLE_MAX_N = 7  # brute_force_randomized solves LPs over 2^n sets


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


def _run_simplex(T: np.ndarray, basis: list[int], ncols: int, tol: float) -> str:
    """Bland's rule on tableau T (last row = reduced costs, last col = rhs)."""
    m = T.shape[0] - 1
    while True:
        enter = -1
        for j in range(ncols):
            if T[-1, j] < -tol:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave, best_ratio = -1, math.inf
        for r in range(m):
            a = T[r, enter]
            if a > tol:
                ratio = T[r, -1] / a
                if ratio < best_ratio - tol:
                    leave, best_ratio = r, ratio
                elif leave >= 0 and ratio <= best_ratio + tol and basis[r] < basis[leave]:
                    leave = r  # Bland tie-break on the basic variable index
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, enter)
        basis[leave] = enter


def simplex_solve(lp: LinearProgram, tol: float = LP_TOL):
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
        status = _run_simplex(T, basis, total, tol)
        if status != "optimal" or T[-1, -1] < -tol:
            return "infeasible", None, None
        # Pivot remaining artificials out of the basis where possible.
        for r, bc in enumerate(basis):
            if bc >= art0:
                for j in range(art0):
                    if abs(T[r, j]) > tol:
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
    status = _run_simplex(T, basis, art0, tol)
    if status == "unbounded":
        return "unbounded", None, None
    x = np.zeros(total)
    for r, bc in enumerate(basis):
        x[bc] = T[r, -1]
    return "optimal", x[:n], float(lp.objective @ x[:n])


# ---------------------------------------------------------------------------
# Deterministic brute force
# ---------------------------------------------------------------------------


def _feasible_alpha(inst: Instance, i: ActionId, inspected: frozenset[ActionId]):
    """Smallest IC payment for deterministic scheme (i, alpha, inspected).

    Exact Fraction reasoning over the IC constraints; returns the minimizing
    alpha as a Fraction, or None when no alpha in [0, 1] works.
    """
    fi, ci = Fraction(inst.f(i)), Fraction(inst.c(i))
    if i in inspected:
        # Every deviation is caught, so only individual rationality binds.
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
        lb = ci / fi  # the null action's constraint implies this bound
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
            return None  # same success probability, strictly cheaper deviation
    if lb > ub:
        return None
    return lb


def brute_force_deterministic(inst: Instance):
    """Exhaustive (suggestion, inspected set) search; n <= 12.

    For each pair, takes the cheapest IC payment and scores the principal's
    utility; returns (scheme, utility).
    """
    if inst.n > DET_ORACLE_MAX_N:
        raise ValidationError(
            f"deterministic brute force limited to n <= {DET_ORACLE_MAX_N}")
    best = None
    for a in inst.actions:
        i = a.id
        for mask in range(1 << inst.n):
            inspected = inst.ids_of(mask)
            alpha = _feasible_alpha(inst, i, inspected)
            if alpha is None or alpha > 1:
                continue
            utility = (1.0 - float(alpha)) * a.prob - inst.cost_fn.value(mask)
            key = (utility, -len(inspected), -float(alpha), -inst.index(i))
            if best is None or key > best[0]:
                best = (key, i, float(alpha), inspected)
    _, i, alpha, inspected = best
    return deterministic_scheme(i, alpha, inspected), best[0][0]


def no_inspection_best(inst: Instance):
    """Best IC utility when the principal never inspects (plain contracts)."""
    best = None
    for a in inst.actions:
        alpha = _feasible_alpha(inst, a.id, frozenset())
        if alpha is None or alpha > 1:
            continue
        utility = (1.0 - float(alpha)) * a.prob
        if best is None or utility > best[2]:
            best = (a.id, float(alpha), utility)
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
    if g > 10:
        raise ValidationError("coupling LP limited to |ground| <= 10")
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
    dist = {subsets[c]: float(x[c]) for c in range(len(subsets)) if x[c] > 1e-12}
    return dist, value


# ---------------------------------------------------------------------------
# Randomized brute force
# ---------------------------------------------------------------------------


def _marginal_rhs(inst: Instance, i: ActionId, j: ActionId, alpha: float) -> float:
    return 1.0 - (alpha * inst.f(i) - inst.c(i) + inst.c(j)) / (alpha * inst.f(j))


def lp_best_distribution(inst: Instance, i: ActionId, alpha: float):
    """Cheapest IC inspection distribution for suggestion i at fixed payment.

    LP variables are the probabilities of every nonempty subset avoiding i,
    plus the probability of inspecting {i} alone; the leftover mass inspects
    nothing.  Returns (scheme, total principal cost alpha*f(i) + E[v]), or
    (None, inf) when infeasible.
    """
    import numpy as np

    others = [a.id for a in inst.actions if a.id != i]
    active = [j for j in others if inst.f(j) > 0.0]
    subsets = []
    for r in range(1, len(others) + 1):
        subsets.extend(frozenset(c) for c in itertools.combinations(others, r))
    nvar = len(subsets) + 1  # final column: probability of inspecting {i}
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
        b.append(_marginal_rhs(inst, i, j, alpha))
    rows.append(np.ones(nvar))
    senses.append("<=")
    b.append(1.0)
    lp = LinearProgram(costs, np.array(rows), tuple(senses), np.array(b))
    status, x, value = simplex_solve(lp)
    if status != "optimal":
        return None, math.inf
    dist = [(s, float(x[col])) for col, s in enumerate(subsets) if x[col] > 1e-12]
    p_i = float(x[-1])
    if p_i > 1e-12:
        dist.append((frozenset([i]), p_i))
    # The simplex honors mass <= 1 only within LP_TOL; rescale the dust away
    # before wrapping the solution as a validated scheme.
    total = sum(p for _, p in dist)
    if total > 1.0:
        dist = [(s, p / total) for s, p in dist]
        total = sum(p for _, p in dist)
    dist.append((frozenset(), max(0.0, 1.0 - total)))
    scheme = InspectionScheme(i, alpha, dist)
    return scheme, alpha * inst.f(i) + float(value)


def _golden_minimize(fun, lo: float, hi: float, iters: int = 40):
    """Golden-section polish; tolerant of mild non-unimodality (local use)."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
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


def brute_force_randomized(inst: Instance, alpha_resolution: float = 1e-2,
                           refine: bool = True):
    """Search payments and solve the exact inspection LP at each candidate.

    Candidate payments per suggestion: the eta crossing points, the
    break-even payment, 1, a uniform grid at `alpha_resolution`, and the
    closed-form stationary payments harvested from the fast solver's pieces
    (logged as hints; the LP itself stays independent).  The best bracket is
    then polished by golden section.  Returns (scheme, utility); n <= 7.
    """
    import numpy as np

    from .randomized import breakpoints, stationary_alpha_candidates

    if inst.n > RAND_ORACLE_MAX_N:
        raise ValidationError(
            f"randomized brute force limited to n <= {RAND_ORACLE_MAX_N}")
    best: tuple[float, InspectionScheme] | None = None

    def consider(utility, scheme):
        nonlocal best
        if scheme is not None and (best is None or utility > best[0] + 1e-15):
            best = (utility, scheme)

    for a in inst.actions:
        i = a.id
        if a.cost == 0.0:
            consider(a.prob, InspectionScheme(i, 0.0, [(frozenset(), 1.0)]))
            continue
        if a.prob <= a.cost:
            continue
        lo = a.cost / a.prob
        cands = {lo, 1.0}
        cands.update(c for c in breakpoints(inst, i).cutpoints if lo <= c <= 1.0)
        cands.update(c for c in stationary_alpha_candidates(inst, i) if lo <= c <= 1.0)
        steps = max(1, math.ceil((1.0 - lo) / alpha_resolution))
        cands.update(lo + (1.0 - lo) * t / steps for t in range(steps + 1))
        grid = sorted(min(1.0, max(lo, c)) for c in cands)

        evaluated = {}

        def total_cost(alpha, i=i):
            if alpha not in evaluated:
                evaluated[alpha] = lp_best_distribution(inst, i, alpha)
            return evaluated[alpha][1]

        values = [total_cost(alpha) for alpha in grid]
        b_idx = int(np.argmin(values))
        alpha_best, cost_best = grid[b_idx], values[b_idx]
        if refine and len(grid) > 1:
            left = grid[max(0, b_idx - 1)]
            right = grid[min(len(grid) - 1, b_idx + 1)]
            if right > left:
                alpha_ref, cost_ref = _golden_minimize(total_cost, left, right)
                if cost_ref < cost_best:
                    alpha_best, cost_best = alpha_ref, cost_ref
        scheme, _ = evaluated[alpha_best]
        consider(a.prob - cost_best, scheme)

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
    if inst.n > 12:
        raise ValidationError("non-IC enumeration limited to n <= 12")
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
                for ell in best_responses(inst, scheme, 1e-12):
                    best = max(best, principal_utility(inst, scheme, ell))
    return best
