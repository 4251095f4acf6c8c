"""Exact optimal randomized IC inspection scheme for submodular inspection costs.

Structure of the search, per suggested action i with f(i) > c(i) > 0:

1.  The IC constraint against each action j with f(j) > 0 lower-bounds j's
    inspection marginal: p(j) >= eta_j(alpha, p_i) where
    eta_j = 1 - p_i - (alpha f(i) - c(i) + c(j)) / (alpha f(j)).
    Actions with f(j) = 0 impose nothing beyond alpha >= c(i)/f(i) and are
    never worth inspecting.
2.  The payment axis is cut at the crossing points of the eta curves, so
    their sort order is fixed inside each interval (it never depends on p_i,
    which shifts all curves equally).
3.  Within an interval, for each split point k (how many eta's are <= 0) the
    minimum-cost distribution with the implied marginals is a nested chain
    (see nested_min_cost_distribution), which telescopes the objective into
    A + f(i)*alpha + D/alpha + gamma*p_i over closed constraint boxes.  The
    optimum is found in closed form: p_i sits at a box edge by linearity,
    and each resulting alpha-piece is minimized at an endpoint or at
    sqrt(D/f(i)).
4.  The best (i, interval, k) is assembled into a scheme supported by at
    most n+1 sets and re-verified IC.

The strict constraint 0 < eta_{pi(k+1)} is closed to 0 <= eta_{pi(k+1)}:
the boundary belongs to the adjacent k, which is also enumerated, so the
closed union covers every open piece while keeping minima attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Optional, Sequence

from . import reports
from .costfn import EQ_TOL, check_submodular
from .model import (ActionId, InspectionScheme, Instance, ValidationError,
                    is_IC)

# The empty inspection set, shared by every scheme (each frozenset() is a new
# 216-byte object on CPython).
_NOTHING = frozenset()


class SubmodularityError(ValueError):
    """Cost function failed the submodularity check required by the solver."""

    def __init__(self, witness):
        super().__init__(f"inspection cost is not submodular; witness {witness}")
        self.witness = witness


def eta(inst: Instance, i: ActionId, j: ActionId, alpha: float, p_i: float) -> float:
    """Minimal inspection marginal on j making the suggestion weakly preferred."""
    fj = inst.f(j)
    if fj <= 0.0:
        raise ValidationError(f"eta undefined for f({j}) = 0; constraint is vacuous")
    if alpha <= 0.0:
        raise ValidationError("eta requires a positive payment")
    return 1.0 - p_i - (alpha * inst.f(i) - inst.c(i) + inst.c(j)) / (alpha * fj)


# ---------------------------------------------------------------------------
# Nested chain distribution (minimum-cost coupling of given marginals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NestedDistribution:
    """Chain-supported distribution realizing given marginals.

    `ground` lists the elements in ascending-marginal order; `levels` holds
    the suffix sets {ground[t], ..., ground[-1]} carrying positive mass
    (consecutive marginal differences); the remaining mass inspects nothing.
    """

    ground: tuple
    levels: tuple[tuple[frozenset, float], ...]
    empty_mass: float
    expected_cost: Optional[float]

    def marginal(self, e) -> float:
        return sum(p for s, p in self.levels if e in s)

    def total_mass(self) -> float:
        return self.empty_mass + sum(p for _, p in self.levels)

    def support_size(self) -> int:
        return len(self.levels) + (1 if self.empty_mass > 0.0 else 0)


def nested_min_cost_distribution(ground: Sequence[Hashable], marginals: Mapping,
                                 mass: float,
                                 value_of: Optional[Callable[[frozenset], float]] = None,
                                 ) -> NestedDistribution:
    """Cheapest distribution with the given marginals, for submodular costs.

    Sorts the ground ascending by marginal (ties by element), puts the
    difference of consecutive marginals on each suffix set, and the leftover
    mass on the empty set.  Mass must cover the largest marginal.
    """
    for e in ground:
        q = marginals[e]
        if not 0.0 <= q <= 1.0:
            raise ValidationError(f"marginal of {e!r} is {q}, outside [0, 1]")
    order = sorted(ground, key=lambda e: (marginals[e], e))
    top = marginals[order[-1]] if order else 0.0
    if mass < top - EQ_TOL:
        raise ValidationError(f"mass {mass} below largest marginal {top}")
    levels = []
    prev = 0.0
    for t, e in enumerate(order):
        diff = marginals[e] - prev
        if diff > 0.0:
            levels.append((frozenset(order[t:]), diff))
        prev = marginals[e]
    empty = max(0.0, mass - top)
    cost = None
    if value_of is not None:
        cost = sum(p * value_of(s) for s, p in levels)
    return NestedDistribution(tuple(order), tuple(levels), empty, cost)


# ---------------------------------------------------------------------------
# Payment-axis partition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntervalPartition:
    """Cutpoints of [0,1] where two eta curves cross, plus per-interval order.

    `orders[ell]` sorts the constrained actions (those with f > 0) by
    ascending eta inside interval (cutpoints[ell], cutpoints[ell+1]); the
    order is the same at every payment in the open interval and for every
    p_i.  Actions with f = 0 carry no constraint and are never inspected.
    """

    suggested: ActionId
    cutpoints: tuple[float, ...]
    orders: tuple[tuple[ActionId, ...], ...]
    active: tuple[ActionId, ...]


def breakpoints(inst: Instance, i: ActionId) -> IntervalPartition:
    partition, _ = _partition(inst, inst.index(i), *_arrays(inst))
    return partition


def _arrays(inst: Instance) -> tuple[list[float], list[float]]:
    """Success probabilities and costs, indexed like the actions."""
    return [a.prob for a in inst.actions], [a.cost for a in inst.actions]


def _partition(inst: Instance, ii: int, f: Sequence[float], c: Sequence[float]):
    """breakpoints() for the action at index ii, plus each order as indices."""
    fi, ci = f[ii], c[ii]
    i = inst.actions[ii].id
    if not fi > ci > 0.0:
        raise ValidationError(f"breakpoints requires f({i}) > c({i}) > 0")
    active = [x for x in range(len(f)) if x != ii and f[x] > 0.0]
    pts = []
    for s, x in enumerate(active):
        fx, cx = f[x], c[x]
        for y in active[s + 1:]:
            fy = f[y]
            if fx == fy:
                continue
            alpha = ((ci - cx) * fy - (ci - c[y]) * fx) / ((fy - fx) * fi)
            if EQ_TOL < alpha < 1.0 - EQ_TOL:
                pts.append(alpha)
    pts.sort()
    cutpoints = [0.0]
    for p in pts:
        if p - cutpoints[-1] > EQ_TOL:
            cutpoints.append(p)
    cutpoints.append(1.0)

    # h_x(alpha) = a + b/alpha, the p_i level at which eta_x hits zero.
    a = {x: 1.0 - fi / f[x] for x in active}
    b = {x: (ci - c[x]) / f[x] for x in active}
    orders = []
    for ell in range(len(cutpoints) - 1):
        mid = 0.5 * (cutpoints[ell] + cutpoints[ell + 1])
        orders.append(sorted(active, key=lambda x: (a[x] + b[x] / mid, x)))
    # Tuples built from lists, not generators: a generator's tuple is
    # allocated at a guessed size and resized, so it bypasses CPython's
    # per-size tuple free lists on the way in and fills them on the way out.
    ids = [act.id for act in inst.actions]
    partition = IntervalPartition(
        i, tuple(cutpoints), tuple([tuple([ids[x] for x in order]) for order in orders]),
        tuple([ids[x] for x in active]))
    return partition, orders


# ---------------------------------------------------------------------------
# Two-variable subproblem
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubproblemResult:
    i: ActionId
    ell: int
    k: int
    alpha: float
    p_i: float
    objective: float  # alpha*f(i) + expected inspection cost
    feasible: bool


class _Interval:
    """What every split k of one interval shares, computed once per interval.

    For the interval's eta order (action indices `order`): `fs`/`cs` are
    their success probabilities and costs, `w[t]` = v({order[t], ...,
    order[-1]}) with w[len] = 0, `coeffs[t]` = (a, b) with h_{order[t]}(alpha)
    = a + b/alpha, `tail[t]` = (cs[t], fs[t], w[t] - w[t+1]) and `bdw[t]` =
    b * (w[t] - w[t+1]).  Values are read through `memo` (mask -> value),
    which callers share across the intervals of one suggestion.
    """

    __slots__ = ("fi", "ci", "fs", "cs", "w", "coeffs", "tail", "bdw", "v_i")

    def __init__(self, inst: Instance, ii: int, order: Sequence[int],
                 f: Sequence[float], c: Sequence[float], memo: dict):
        value = inst.cost_fn.value

        def read(mask: int) -> float:
            if mask not in memo:
                memo[mask] = value(mask)
            return memo[mask]

        fi, ci = self.fi, self.ci = f[ii], c[ii]
        fs = self.fs = [f[x] for x in order]
        cs = self.cs = [c[x] for x in order]
        w = [0.0]
        mask = 0
        for x in reversed(order):
            mask |= 1 << x
            w.append(read(mask))
        w.reverse()
        self.w = w
        self.coeffs = [(1.0 - fi / fj, (ci - cj) / fj) for fj, cj in zip(fs, cs)]
        dw = [w[t] - w[t + 1] for t in range(len(order))]
        self.tail = list(zip(cs, fs, dw))
        self.bdw = [b * d for (_, b), d in zip(self.coeffs, dw)]
        self.v_i = read(1 << ii)


def _payment_range(partition: IntervalPartition, ell: int, fi: float, ci: float):
    """(lo, hi) payments of interval ell above break-even c(i)/f(i), or None."""
    lo = max(partition.cutpoints[ell], ci / fi)
    hi = partition.cutpoints[ell + 1]
    if lo > hi + EQ_TOL:
        return None
    return min(lo, hi), hi


def subproblem_objective(inst: Instance, i: ActionId, order: Sequence[ActionId],
                         k: int, alpha: float, p_i: float,
                         w: Optional[Sequence[float]] = None,
                         v_i: Optional[float] = None) -> float:
    """alpha*f(i) + p_i*v({i}) + sum_{t>k} eta_t * (w_t - w_{t+1})  (telescoped).

    The id-based reference for the objective solve_subproblem evaluates;
    w[t] = v({order[t], ..., order[-1]}) with w[len] = 0.
    """
    if w is None:
        w = [inst.inspection_cost(order[t:]) for t in range(len(order))] + [0.0]
    if v_i is None:
        v_i = inst.inspection_cost([i])
    total = alpha * inst.f(i) + p_i * v_i
    for t in range(k, len(order)):
        total += eta(inst, i, order[t], alpha, p_i) * (w[t] - w[t + 1])
    return total


def solve_subproblem(inst: Instance, partition: IntervalPartition, ell: int, k: int,
                     _ctx: Optional[_Interval] = None) -> SubproblemResult:
    """Exact minimizer of the interval/split subproblem, or feasible=False.

    Constraints: eta_{pi(k)} <= 0 <= eta_{pi(k+1)} (closed form of the open
    split), max(interval start, c(i)/f(i)) <= alpha <= interval end, and
    0 <= p_i <= 1.  Every eta is affine in p_i and a + b/alpha in alpha, so
    for fixed alpha the optimal p_i sits at a constraint edge and each
    resulting alpha-piece has the shape A + B*alpha + D/alpha.
    """
    i = partition.suggested
    n_a = len(partition.orders[ell])
    if not 0 <= k <= n_a:
        raise ValidationError(f"split index k={k} outside 0..{n_a}")
    if _ctx is None:
        ii = inst.index(i)
        f, c = _arrays(inst)
        if _payment_range(partition, ell, f[ii], c[ii]) is None:
            return _infeasible(i, ell, k)
        order = [inst.index(j) for j in partition.orders[ell]]
        _ctx = _Interval(inst, ii, order, f, c, {})
    fi, ci = _ctx.fi, _ctx.ci
    span = _payment_range(partition, ell, fi, ci)
    if span is None:
        return _infeasible(i, ell, k)
    lo, hi = span

    v_i = _ctx.v_i
    gamma = v_i - _ctx.w[k]
    coeffs = _ctx.coeffs
    tail = _ctx.tail[k:]

    def h(idx: int, alpha: float) -> float:
        if idx < 0:
            return -math.inf
        if idx >= n_a:
            return math.inf
        a, b = coeffs[idx]
        return a + b / alpha

    # Cut the alpha range where the boundary curves h_{pi(k)}, h_{pi(k+1)}
    # cross 0 or 1; branch formulas and feasibility signs are constant on
    # each resulting piece.
    cuts = {lo, hi}
    for idx in (k - 1, k):  # 0-based positions of pi(k) and pi(k+1)
        if 0 <= idx < n_a:
            fj, cj = _ctx.fs[idx], _ctx.cs[idx]
            if fi != fj:
                x = (ci - cj) / (fi - fj)  # h_j = 0
                if lo < x < hi:
                    cuts.add(x)
            x = (ci - cj) / fi  # h_j = 1
            if lo < x < hi:
                cuts.add(x)
    grid = sorted(cuts)

    base_D = sum(_ctx.bdw[k:])

    def p_at(alpha: float) -> Optional[float]:
        """Optimal p_i for fixed alpha, clamped into the constraint box."""
        lo_p = max(0.0, h(k - 1, alpha))
        hi_p = min(1.0, h(k, alpha))
        if lo_p > hi_p + EQ_TOL:
            return None
        p = lo_p if gamma >= 0.0 else hi_p
        return min(max(p, 0.0), 1.0)

    def evaluate(alpha: float):
        """subproblem_objective at (alpha, p_at(alpha)), with eta's operand order."""
        p = p_at(alpha)
        if p is None:
            return None
        pay = alpha * fi
        rate = pay - ci
        keep = 1.0 - p
        total = pay + p * v_i
        for cj, fj, dw in tail:
            total += (keep - (rate + cj) / (alpha * fj)) * dw
        return total, alpha, p

    best = None
    for a0, a1 in zip(grid, grid[1:]) if len(grid) > 1 else [(lo, hi)]:
        mid = 0.5 * (a0 + a1)
        if h(k - 1, mid) > 1.0 + EQ_TOL or h(k, mid) < -EQ_TOL:
            continue
        # Piece objective A + B*alpha + D/alpha after substituting p_i(alpha).
        D = base_D
        if gamma >= 0.0:
            if k >= 1 and h(k - 1, mid) > 0.0:
                D += gamma * coeffs[k - 1][1]
        else:
            if h(k, mid) < 1.0:
                D += gamma * coeffs[k][1]
        cands = [a0, a1]
        if D > 0.0:
            star = math.sqrt(D / fi)
            if a0 < star < a1:
                cands.append(star)
        for alpha in cands:
            got = evaluate(alpha)
            if got is not None and (best is None or got[0] < best[0]):
                best = got
    if best is None:
        return _infeasible(i, ell, k)
    obj, alpha, p = best
    return SubproblemResult(i, ell, k, alpha, p, obj, True)


def _infeasible(i: ActionId, ell: int, k: int) -> SubproblemResult:
    return SubproblemResult(i, ell, k, math.nan, math.nan, math.inf, False)


# ---------------------------------------------------------------------------
# Assembly and the full solve
# ---------------------------------------------------------------------------


def assemble_scheme(inst: Instance, i: ActionId, result: SubproblemResult,
                    partition: IntervalPartition, ell: int, k: int) -> InspectionScheme:
    """Materialize the winning subproblem as an inspection scheme.

    Marginals are eta clamped into [0, 1] beyond the split (zero up to it);
    the chain construction over the constrained actions realizes them at
    minimum cost with mass 1 - p_i, and {i} itself is inspected with
    probability p_i.
    The result must pass the IC check; a failure is a solver bug.
    """
    if not result.feasible:
        raise ValidationError("cannot assemble an infeasible subproblem result")
    order = partition.orders[ell]
    marginals = {}
    for t, j in enumerate(order):
        if t < k:
            marginals[j] = 0.0
        else:
            # On tied instances eta can round just above 1; clamp into [0, 1].
            marginals[j] = min(max(0.0, eta(inst, i, j, result.alpha, result.p_i)), 1.0)
    nested = nested_min_cost_distribution(order, marginals, 1.0 - result.p_i,
                                          inst.inspection_cost)
    dist: list[tuple[frozenset, float]] = list(nested.levels)
    if result.p_i > 0.0:
        dist.append((frozenset([i]), result.p_i))
    dist.append((_NOTHING, nested.empty_mass))
    scheme = InspectionScheme(i, result.alpha, dist)
    if not is_IC(inst, scheme):
        raise AssertionError(f"solver bug: assembled scheme for {i} is not IC")
    return scheme


def _enumerate_candidates(inst: Instance, ii: int):
    """Yield every feasible (partition, result) for the action at index ii (f > c > 0)."""
    f, c = _arrays(inst)
    partition, orders = _partition(inst, ii, f, c)
    memo: dict = {}
    for ell, order in enumerate(orders):
        if _payment_range(partition, ell, f[ii], c[ii]) is None:
            continue
        ctx = _Interval(inst, ii, order, f, c, memo)
        for k in range(len(order) + 1):
            res = solve_subproblem(inst, partition, ell, k, _ctx=ctx)
            if res.feasible:
                yield partition, res


def solve_randomized(inst: Instance) -> reports.SolveReport:
    """Optimal randomized IC inspection scheme; requires a submodular cost.

    The cost is checked exhaustively when n <= 10 and otherwise trusted with
    a warning in the report.  A failed check raises SubmodularityError.
    """
    warnings = []
    if inst.n <= 10:
        ok, witness = check_submodular(inst.cost_fn, inst.n, mode="exhaustive")
        if not ok:
            raise SubmodularityError(witness)
    else:
        warnings.append("submodularity unverified (n > 10); result trusted")

    best = None  # (utility, -index, -alpha) -> payload

    def consider(utility, ii, alpha, payload):
        nonlocal best
        key = (utility, -ii, -alpha)
        if best is None or key > best[0]:
            best = (key, payload)

    for ii, a in enumerate(inst.actions):
        i = a.id
        if a.cost == 0.0:
            scheme = InspectionScheme(i, 0.0, [(_NOTHING, 1.0)])
            consider(a.prob, ii, 0.0, ("zero_cost", i, scheme, a.prob))
            continue
        if a.prob <= a.cost:
            continue
        for partition, res in _enumerate_candidates(inst, ii):
            consider(a.prob - res.objective, ii, res.alpha,
                     ("subproblem", i, partition, res))

    payload = best[1]
    if payload[0] == "zero_cost":
        _, i, scheme, utility = payload
        provenance = {"kind": "zero_cost", "suggested": i}
    else:
        _, i, partition, res = payload
        scheme = assemble_scheme(inst, i, res, partition, res.ell, res.k)
        utility = inst.f(i) - res.objective
        provenance = {
            "kind": "subproblem", "suggested": i, "interval": res.ell,
            "k": res.k, "alpha": res.alpha, "p_suggested": res.p_i,
        }
    return reports.build_report(
        inst, "rand", scheme, provenance=provenance, warnings=tuple(warnings))
