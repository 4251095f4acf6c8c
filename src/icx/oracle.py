"""Independent brute-force reference solvers and a small dense LP engine on lists.

Everything here exists to verify the fast solvers, so it favors transparent
exhaustive computation over cleverness: the deterministic oracle enumerates
every IC (suggestion, inspected set) pair; the randomized oracle searches
the payment axis and solves an exact LP in the inspection probabilities at
each payment it tries; the coupling LP minimizes expected cost over all
subset distributions with prescribed marginals.  Nothing here is imported
from the solvers: the payment search rests only on the convexity of each
suggestion's total cost in 1/alpha, which makes the whole payment range a
golden-section bracket.

Both exhaustive oracles work on action indices and subset bitmasks; ids
appear only in the schemes they return.  The deterministic oracle scales
every action's cost and success probability once to integers over one
common denominator; per suggestion, it settles the IC bounds as exact
integer pairs once and ranks them.  A mask's smallest IC payment is the
first lower bound it leaves uninspected, so the IC masks fall into one
group per lower bound (plus one for the masks that inspect the
suggestion), each a fixed part and every subset of a free part, at one
payment; the oracle walks the groups and never visits a mask that is not
IC.  The randomized oracle builds and checks the LP skeleton (subset masks,
their costs, the 0/1 constraint matrix) once per suggestion and recomputes
only the right-hand side at each payment.  Each mask's cost is queried at
most once per call, whichever suggestions' LPs it enters.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cmp_to_key
from operator import itemgetter
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
    """min objective @ x  s.t.  A x (senses) b,  x >= 0.

    Each field accepts any sequence of numbers, array types included, and is
    stored as Python floats: `objective` and `b` as lists, `A` as a list of rows.
    """

    objective: list[float]
    A: list[list[float]]
    senses: tuple[str, ...]
    b: list[float]

    def __post_init__(self):
        self.objective = list(map(float, self.objective))
        self.A = [list(map(float, row)) for row in self.A]
        self.b = list(map(float, self.b))
        m, n = len(self.A), len(self.objective)
        if (len(self.b) != m or len(self.senses) != m
                or any(len(row) != n for row in self.A)):
            raise ValueError("inconsistent LP dimensions")
        if not (all(map(math.isfinite, self.objective)) and all(map(math.isfinite, self.b))
                and all(all(map(math.isfinite, row)) for row in self.A)):
            raise ValueError("LP entries must be finite")
        if n > MAX_LP_VARS or m > MAX_LP_ROWS:
            raise ValueError(f"LP size {m}x{n} exceeds desk-scale limits")


def _pivot(T: list[list[float]], row: int, col: int):
    """Pivot tableau T on (row, col): that column becomes the row's unit vector."""
    prow = T[row]
    p = prow[col]
    if p != 1.0:
        prow = T[row] = [v / p for v in prow]
    for r, trow in enumerate(T):
        f = trow[col]
        if r != row and f != 0.0:
            T[r] = [v - f * w for v, w in zip(trow, prow)]


def _run_simplex(T: list[list[float]], basis: list[int]) -> str:
    """Primal simplex on tableau T (last row = reduced costs, last col = rhs).

    Every column but the last may enter.  Dantzig's rule enters the most
    negative reduced cost (the lowest index on ties); after a degenerate
    pivot, one whose ratio is at most DEFAULT_TOL, Bland's rule enters the
    lowest-index negative one until a pivot strictly improves the objective.
    A run of degenerate pivots is then Bland's, which cannot cycle, and a
    strict improvement never returns to an earlier basis, so the method ends.
    """
    m = len(T) - 1
    obj = T[-1]
    ncols = len(obj) - 1
    bland = False
    while True:
        if bland:
            enter = next((j for j in range(ncols) if obj[j] < -DEFAULT_TOL), -1)
        else:
            least = min(obj[:ncols])
            enter = obj.index(least, 0, ncols) if least < -DEFAULT_TOL else -1
        if enter < 0:
            return "optimal"
        leave, best_ratio = -1, math.inf
        for r in range(m):
            a = T[r][enter]
            if a > DEFAULT_TOL:
                ratio = T[r][-1] / a
                if ratio < best_ratio - DEFAULT_TOL:
                    leave, best_ratio = r, ratio
                elif (leave >= 0 and ratio <= best_ratio + DEFAULT_TOL
                      and basis[r] < basis[leave]):
                    leave = r  # Bland tie-break on the basic variable index
        if leave < 0:
            return "unbounded"
        _pivot(T, leave, enter)
        basis[leave] = enter
        obj = T[-1]
        bland = best_ratio <= DEFAULT_TOL


def simplex_solve(lp: LinearProgram):
    """Two-phase primal simplex: Dantzig pricing, Bland's rule when degenerate.

    Returns (status, solution, value) with status in
    {"optimal", "infeasible", "unbounded"}; solution (a list, one entry per
    variable) and value (the `math.fsum` of objective times solution) are
    None unless optimal.
    """
    return _simplex(lp.objective, lp.A, lp.senses, lp.b)


def _simplex(objective: list[float], A: list[list[float]], senses: Sequence[str],
             b: list[float]):
    """`simplex_solve` on lists that a `LinearProgram` has already checked.

    Reads its arguments and changes none of them, so one checked objective
    and matrix serve any number of right-hand sides.
    """
    m, n = len(A), len(objective)
    rows, senses, b = list(A), list(senses), list(b)
    for r in range(m):
        if b[r] < 0:
            rows[r], b[r] = [-v for v in rows[r]], -b[r]
            senses[r] = {"<=": ">=", ">=": "<=", "=": "="}[senses[r]]

    n_slack = senses.count("<=")
    n_surplus = senses.count(">=")
    n_art = m - n_slack
    total = n + n_slack + n_surplus + n_art
    slack0, surplus0, art0 = n, n + n_slack, n + n_slack + n_surplus

    T: list[list[float]] = []
    basis: list[int] = []
    si = ti = ai = 0
    for r in range(m):
        tail = [0.0] * (total - n + 1)
        tail[-1] = b[r]
        if senses[r] == "<=":
            tail[slack0 + si - n] = 1.0
            basis.append(slack0 + si)
            si += 1
        elif senses[r] == ">=":
            tail[surplus0 + ti - n] = -1.0
            tail[art0 + ai - n] = 1.0
            basis.append(art0 + ai)
            ti += 1
            ai += 1
        else:
            tail[art0 + ai - n] = 1.0
            basis.append(art0 + ai)
            ai += 1
        T.append(rows[r] + tail)

    # Phase 1: minimize the sum of artificials.
    if n_art:
        obj = [0.0] * art0 + [1.0] * n_art + [0.0]
        for r, bc in enumerate(basis):
            if bc >= art0:
                obj = [v - w for v, w in zip(obj, T[r])]
        T.append(obj)
        status = _run_simplex(T, basis)
        if status != "optimal" or T[-1][-1] < -DEFAULT_TOL:
            return "infeasible", None, None
        # Pivot remaining artificials out of the basis where possible.
        for r, bc in enumerate(basis):
            if bc >= art0:
                for j in range(art0):
                    if abs(T[r][j]) > DEFAULT_TOL:
                        _pivot(T, r, j)
                        basis[r] = j
                        break
        T.pop()
        for row in T:
            del row[art0:-1]  # bar artificials from re-entering

    # Phase 2: original objective.
    obj = objective + [0.0] * (art0 - n + 1)
    for r, bc in enumerate(basis):
        if bc < art0 and obj[bc] != 0.0:
            f = obj[bc]
            obj = [v - f * w for v, w in zip(obj, T[r])]
    T.append(obj)
    status = _run_simplex(T, basis)
    if status == "unbounded":
        return "unbounded", None, None
    x = [0.0] * total
    for r, bc in enumerate(basis):
        x[bc] = T[r][-1]
    x = x[:n]
    return "optimal", x, math.fsum(c * v for c, v in zip(objective, x))


# ---------------------------------------------------------------------------
# Deterministic brute force
# ---------------------------------------------------------------------------


def _integers(actions) -> tuple[list[int], list[int]]:
    """Every action's success probability and cost as integers over one denominator.

    A binary float is m / 2^e exactly, so scaling all of them by the largest
    2^e gives integers with the same ratios: a ratio of differences of them
    is the exact ratio of the floats' differences.  Returns (fs, cs).
    """
    ratios = [(a.prob.as_integer_ratio(), a.cost.as_integer_ratio()) for a in actions]
    den = max(d for pair in ratios for _, d in pair)
    return ([nf * (den // df) for (nf, df), _ in ratios],
            [nc * (den // dc) for _, (nc, dc) in ratios])


def _compare(a: tuple, b: tuple) -> int:
    """Has the sign of p/q - p'/q' for bounds (p, q, ...) and (p', q', ...), q, q' > 0."""
    return a[0] * b[1] - b[0] * a[1]


class _ICBounds:
    """Exact IC payment bounds of deterministic suggestion k, settled once.

    With k uninspected, each uninspected deviation j with f(j) < f(k) bounds
    the payment from below by (c(k) - c(j)) / (f(k) - f(j)), each one with
    f(j) > f(k) bounds it from above, and one with f(j) == f(k) and
    c(j) < c(k) rules k out.  `fs` and `cs` are the integers of `_integers`,
    so each bound is an exact pair (p, q) with q > 0, compared with another
    by cross-multiplying.  Each bound gets an integer rank in their sorted
    order, and each lower bound its payment (the exact pair and the
    correctly rounded float p / q), once, so the smallest IC payment for an
    inspected mask is the first lower bound whose action the mask leaves
    uninspected, if its rank does not pass that of the first such upper
    bound; `groups` lists the IC masks from the same ranking.  A sentinel
    with bit 0 ends each list: below, the bound c(k)/f(k) that the null
    action implies (0 when f(k) = c(k) = 0); above, 1.
    """

    __slots__ = ("bit", "caught", "lower", "upper", "deaths")

    def __init__(self, fs: Sequence[int], cs: Sequence[int], k: int):
        fi, ci = fs[k], cs[k]
        self.bit = 1 << k
        # Inspecting k itself catches every deviation: only IR binds.
        if ci == 0:
            self.caught = _payment(0, 1)
        elif fi == 0 or ci > fi:
            self.caught = None
        else:
            self.caught = _payment(ci, fi)
        lower, upper, deaths = [], [], 0
        for j in range(len(fs)):
            if j == k:
                continue
            df, dc = fi - fs[j], ci - cs[j]
            if df > 0:
                lower.append((dc, df, 1 << j, True))
            elif df < 0:
                upper.append((-dc, -df, 1 << j, False))
            elif dc > 0:
                deaths |= 1 << j  # same success probability, strictly cheaper
        self.deaths = deaths
        if fi == 0 and ci > 0:
            self.lower = self.upper = None
            return
        base = (ci, fi, 0, True) if fi else (0, 1, 0, True)
        lower = [b for b in lower if _compare(b, base) > 0] + [base]
        upper = [b for b in upper if b[0] < b[1]] + [(1, 1, 0, False)]
        # Rank the bounds in ascending order.  sorted() is stable, so a lower
        # bound ranks below an upper bound of equal value: comparing two
        # ranks compares the two values exactly.
        ranked = list(enumerate(sorted(lower + upper, key=cmp_to_key(_compare))))
        self.lower = [(rank, bit, _payment(p, q))
                      for rank, (p, q, bit, is_lower) in reversed(ranked) if is_lower]
        self.upper = [(rank, bit) for rank, (p, q, bit, is_lower) in ranked if not is_lower]

    def payment(self, mask: int):
        """((p, q), float) smallest IC payment p/q with `mask` inspected, or None."""
        if mask & self.bit:
            return self.caught
        if self.lower is None or self.deaths & ~mask:
            return None
        for lo, bit, pay in self.lower:
            if not mask & bit:
                break
        for hi, bit in self.upper:
            if not mask & bit:
                break
        return pay if lo <= hi else None

    def groups(self, n: int):
        """The IC masks over n actions, as (need, free, payment) groups.

        Each group holds the masks `need | sub`, for every submask `sub` of
        `free`, all at one payment.  The masks that inspect k form one group
        at `caught`.  Every other IC mask inspects `deaths` and has a first
        uninspected lower bound L_r; it then also inspects L_0..L_{r-1}
        and every upper bound ranked below L_r, and the rest is free.  The
        group is empty when the upper sentinel, which no mask inspects,
        ranks below L_r.  `need` never meets L_r or k, since each action
        other than k falls in at most one of the bound lists and `deaths`.
        """
        full = (1 << n) - 1
        if self.caught is not None:
            yield self.bit, full & ~self.bit, self.caught
        if self.lower is None:
            return
        need = self.deaths
        for lo, bit, pay in self.lower:
            fixed = need
            for hi, up in self.upper:
                if hi > lo:
                    yield fixed, full & ~(fixed | bit | self.bit), pay
                    break
                if not up:  # the sentinel, which no mask inspects
                    break
                fixed |= up
            need |= bit


def _payment(p: int, q: int) -> tuple[tuple[int, int], float]:
    return (p, q), p / q


def brute_force_deterministic(inst: Instance):
    """Exhaustive search over the IC (suggestion, inspected set) pairs; n <= 12.

    Each pair is taken at its cheapest IC payment and scored by the
    principal's utility; returns (scheme, utility).  Per suggestion, the
    pairs come in the groups of `_ICBounds.groups`, one payment each, so a
    mask that is not IC is never visited.  Exact ties go to the smallest
    suggestion, then the smallest mask.  Each mask's cost is queried at most
    once, and only when some suggestion is IC with it inspected.
    """
    if inst.n > DET_ORACLE_MAX_N:
        raise OracleSizeError(f"deterministic oracle limited to n <= {DET_ORACLE_MAX_N}")
    fs, cs = _integers(inst.actions)
    value = inst.cost_fn.value
    costs: list[float | None] = [None] * (1 << inst.n)
    best, top = (-math.inf,), -math.inf  # the best key and its utility
    for k, a in enumerate(inst.actions):
        for need, free, (_, alpha) in _ICBounds(fs, cs, k).groups(inst.n):
            gain = (1.0 - alpha) * a.prob
            sub = 0
            while True:  # the submasks of `free`, ascending
                mask = need | sub
                cost = costs[mask]
                if cost is None:
                    cost = costs[mask] = value(mask)
                utility = gain - cost
                if utility >= top:
                    key = (utility, -mask.bit_count(), -alpha, -k, -mask)
                    if key > best:
                        best, top = key, utility
                if sub == free:
                    break
                sub = (sub - free) & free
    utility, _, neg_alpha, neg_k, neg_mask = best
    return (deterministic_scheme(inst.actions[-neg_k].id, -neg_alpha, inst.ids_of(-neg_mask)),
            utility)


def no_inspection_best(inst: Instance):
    """Best IC utility when the principal never inspects (plain contracts)."""
    fs, cs = _integers(inst.actions)
    pays = ((a, _ICBounds(fs, cs, k).payment(0)) for k, a in enumerate(inst.actions))
    plain = ((a.id, pay[1], (1.0 - pay[1]) * a.prob) for a, pay in pays if pay is not None)
    return max(plain, key=itemgetter(2), default=None)


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
    g = len(ground)
    if g > COUPLING_LP_MAX_GROUND:
        raise ValidationError(
            f"coupling LP limited to |ground| <= {COUPLING_LP_MAX_GROUND}")
    subsets = [frozenset(e for bit, e in enumerate(ground) if mask & (1 << bit))
               for mask in range(1 << g)]
    costs = [value_of(s) for s in subsets]
    A = [[1.0 if e in s else 0.0 for s in subsets] for e in ground]
    A.append([1.0] * len(subsets))
    b = [float(marginals[e]) for e in ground] + [float(mass)]
    lp = LinearProgram(costs, A, ("=",) * (g + 1), b)
    status, x, value = simplex_solve(lp)
    if status != "optimal":
        raise ValidationError(f"coupling LP {status}: mass below max marginal?")
    dist = {subsets[c]: x[c] for c in range(len(subsets)) if x[c] > EQ_TOL}
    return dist, value


# ---------------------------------------------------------------------------
# Randomized brute force
# ---------------------------------------------------------------------------


class _LPSkeleton:
    """Suggestion i's inspection LP less its right-hand side, checked once.

    Columns are the nonempty subsets of the other actions as index masks, in
    `itertools.combinations` order, then {i}; rows are the marginal
    constraints of the other actions with f > 0, then the total mass.  Only
    the marginal right-hand sides depend on the payment, so one skeleton
    serves every payment tried for i.  Its costs, matrix, senses and size
    pass `LinearProgram`'s checks once, when it is built, and the costs are
    stored as floats.  An instance whose 2^(n-1) columns exceed MAX_LP_VARS
    (a power of two) is refused before any cost is read.  `values` maps a
    mask to its cost; the skeleton reads a mask missing from it once and
    records it there, so skeletons sharing one dict query each mask once
    between them.  Without one, the skeleton keeps its own and queries
    each of its 2^(n-1) masks once.
    """

    __slots__ = ("k", "masks", "costs", "A", "senses", "active", "fs", "cs")

    def __init__(self, inst: Instance, k: int, values: dict[int, float] | None = None):
        if 1 << (inst.n - 1) > MAX_LP_VARS:
            raise OracleSizeError(f"LP oracle limited to n <= {MAX_LP_VARS.bit_length()}")
        self.k = k
        self.fs = [a.prob for a in inst.actions]
        self.cs = [a.cost for a in inst.actions]
        others = [1 << j for j in range(inst.n) if j != k]
        self.masks = [sum(c) for r in range(1, len(others) + 1)
                      for c in itertools.combinations(others, r)]
        value = inst.cost_fn.value
        values = {} if values is None else values
        costs = []
        for m in self.masks + [1 << k]:
            if m not in values:
                values[m] = value(m)
            costs.append(values[m])
        self.active = [j for j in range(inst.n) if j != k and self.fs[j] > 0.0]
        A = [[float(m >> j & 1) for m in self.masks] + [1.0] for j in self.active]
        A.append([1.0] * (len(self.masks) + 1))
        senses = (">=",) * len(self.active) + ("<=",)
        lp = LinearProgram(costs, A, senses, [0.0] * len(A))
        self.costs, self.A, self.senses = lp.objective, lp.A, lp.senses

    def rhs(self, alpha: float) -> list[float]:
        fi, ci, fs, cs = self.fs[self.k], self.cs[self.k], self.fs, self.cs
        return [1.0 - (alpha * fi - ci + cs[j]) / (alpha * fs[j])
                for j in self.active] + [1.0]


def _lp_at(skeleton: _LPSkeleton, alpha: float):
    """(x, alpha*f(i) + E[v]) of the skeleton's LP at payment alpha, or (None, inf).

    x is the simplex solution, one entry per skeleton column.  The skeleton
    was checked when built, so only the new right-hand side is checked here;
    the simplex gets the same floats a fresh `LinearProgram` would hold.
    """
    b = skeleton.rhs(alpha)
    if not all(map(math.isfinite, b)):
        raise ValueError("LP entries must be finite")
    status, x, value = _simplex(skeleton.costs, skeleton.A, skeleton.senses, b)
    if status != "optimal":
        return None, math.inf
    return x, alpha * skeleton.fs[skeleton.k] + value


def _scheme_of(inst: Instance, skeleton: _LPSkeleton, alpha: float, x) -> InspectionScheme:
    """The inspection scheme of an `_lp_at` solution x at payment alpha."""
    i = inst.actions[skeleton.k].id
    masks = skeleton.masks
    dist = [(inst.ids_of(masks[col]), x[col])
            for col in range(len(masks)) if x[col] > EQ_TOL]
    p_i = x[-1]
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

    The suggestions' skeletons share one mask -> cost dict, which lives
    only as long as the call: each mask is queried at most once, and the
    masks queried are the eligible suggestions' LP columns.

    `alpha_resolution` is read by nothing, as the search has no grid; it
    is accepted only because `benchmarks/workloads.py` still passes it.
    """
    if inst.n > RAND_ORACLE_MAX_N:
        raise OracleSizeError(f"randomized oracle limited to n <= {RAND_ORACLE_MAX_N}")
    values: dict[int, float] = {}  # mask -> cost, shared by every suggestion's skeleton
    bests = (_lp_search(inst, k, values) for k in range(inst.n))
    utility, scheme = max(filter(None, bests), key=itemgetter(0))
    return scheme, utility


def _lp_search(inst: Instance, k: int, values: dict[int, float]):
    """Suggestion k's best (utility, scheme), or None; a free one goes unpaid, uninspected."""
    a = inst.actions[k]
    if a.cost == 0.0:
        return a.prob, InspectionScheme(a.id, 0.0, [(frozenset(), 1.0)])
    if a.prob <= a.cost:
        return None
    skeleton = _LPSkeleton(inst, k, values)
    solved = {}  # payment -> (LP solution, total cost)

    def total_cost(alpha):
        solved[alpha] = _lp_at(skeleton, alpha)
        return solved[alpha][1]

    lo = a.cost / a.prob
    golden = _golden_minimize(total_cost, lo, 1.0)
    alpha, cost = min([(lo, total_cost(lo)), golden, (1.0, total_cost(1.0))],
                      key=itemgetter(1))
    x, _ = solved[alpha]
    if x is None:
        return None
    return a.prob - cost, _scheme_of(inst, skeleton, alpha, x)


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
