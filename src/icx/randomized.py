"""Exact optimal randomized IC inspection scheme for submodular inspection costs.

Structure of the search, per suggested action i with f(i) > c(i) > 0:

1.  The IC constraint against each action j with f(j) > 0 lower-bounds j's
    inspection marginal: p(j) >= eta_j(alpha, p_i) where
    eta_j = 1 - p_i - (alpha f(i) - c(i) + c(j)) / (alpha f(j)).
    Actions with f(j) = 0 impose nothing beyond alpha >= c(i)/f(i) and are
    never worth inspecting.
2.  The payment axis is cut at the crossing points of the eta curves, so
    their sort order is fixed inside each interval (it never depends on p_i,
    which shifts all curves equally); each interval that reaches
    break-even sorts the rivals at its midpoint.  It also lists, per
    position of its order, the payments inside it where that rival's curve
    reaches 0 or 1; a split whose two boundary rivals list none is a single
    alpha-piece.
3.  Within an interval, for each split point k (how many eta's are <= 0) the
    minimum-cost distribution with the implied marginals is a nested chain
    (see nested_min_cost_distribution), which telescopes the objective into
    A + f(i)*alpha + D/alpha + gamma*p_i over closed constraint boxes.  The
    optimum is found in closed form: p_i sits at a box edge by linearity,
    and each resulting alpha-piece is minimized at an endpoint or at
    sqrt(D/f(i)).
4.  Each suggestion's search returns its best (interval, k); one `max`
    ranks them, and the winner is assembled into a scheme supported by at
    most n+1 sets and re-verified IC.

The search runs on action indices and bitmasks, and each rival's curve
h_j(alpha) = a + b/alpha, the p_i level at which eta_j hits zero, is
computed once per suggestion (`_partition`); ids enter only when the winner
is assembled.

Inspection costs are read lazily, through one memo (mask -> v) per solve
that every suggestion shares.  An interval reads the values of its eta
order's suffix sets from the end of the order, and only as far down as a
split whose payment range passes the feasibility screen asks; v({i}) is
read the same way.  Which sets are queried depends on f and c alone.

The strict constraint 0 < eta_{pi(k+1)} is closed to 0 <= eta_{pi(k+1)}:
the boundary belongs to the adjacent k, which is also enumerated, so the
closed union covers every open piece while keeping minima attained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Hashable, Mapping, Optional, Sequence

from . import reports
from .costfn import (CHECK_SAMPLES, EQ_TOL, EXHAUSTIVE_MAX_N, check_mode,
                     check_submodular, submodular_by_type)
from .model import InspectionScheme, Instance, ValidationError, is_IC

# The empty inspection set, shared by every scheme (each frozenset() is a new
# 216-byte object on CPython).
_NOTHING = frozenset()


class SubmodularityError(ValueError):
    """Cost function failed the submodularity check required by the solver."""

    def __init__(self, witness):
        super().__init__(f"inspection cost is not submodular; witness {witness}")
        self.witness = witness


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


def _partition(f: Sequence[float], c: Sequence[float], ii: int):
    """Rival curves, constrained rivals and payment cutpoints of suggestion ii.

    Returns (curves, active, cutpoints).  `active` lists the constrained
    rivals (x != ii, f(x) > 0) by ascending index; actions with f = 0 carry
    no constraint and are never inspected.  `curves[x]` is None unless x is
    active; then it is (a, b, h0, h1) with h_x(alpha) = a + b/alpha the p_i
    level at which eta_x hits zero, h0 the payment where h_x = 0 (None when
    f(x) = f(ii)) and h1 the payment where h_x = 1.  `cutpoints` runs from
    0 to 1 through every crossing of two curves more than EQ_TOL inside
    (0, 1), a crossing within EQ_TOL of the previous cutpoint merged into
    it; two curves cross at most once, so the eta order is the same at
    every payment inside an interval (`_eta_order`).
    """
    fi, ci = f[ii], c[ii]
    curves: list[Optional[tuple]] = [None] * len(f)
    active = []
    for x, (fx, cx) in enumerate(zip(f, c)):
        if x != ii and fx > 0.0:
            active.append(x)
            curves[x] = (1.0 - fi / fx, (ci - cx) / fx,
                         None if fi == fx else (ci - cx) / (fi - fx), (ci - cx) / fi)
    crossings = []
    for s, x in enumerate(active):
        fx, cx = f[x], c[x]
        for y in active[s + 1:]:
            fy = f[y]
            if fx == fy:
                continue
            alpha = ((ci - cx) * fy - (ci - c[y]) * fx) / ((fy - fx) * fi)
            if EQ_TOL < alpha < 1.0 - EQ_TOL:
                crossings.append(alpha)
    crossings.sort()
    cutpoints = [0.0]
    for alpha in crossings:
        if alpha - cutpoints[-1] > EQ_TOL:
            cutpoints.append(alpha)
    cutpoints.append(1.0)
    return curves, active, cutpoints


def _eta_order(curves: list[Optional[tuple]], active: list[int], mid: float) -> list[int]:
    """The active rivals by ascending eta at payment mid, ties to the lower index.

    eta_x <= eta_y iff h_x(mid) <= h_y(mid), for every p_i; `sorted` is
    stable and `active` ascends, so equal keys keep index order.
    """
    return sorted(active, key=lambda x: curves[x][0] + curves[x][1] / mid)


class _Values(dict):
    """One solve's memo of inspection costs, mask -> v(mask), queried on a miss."""

    __slots__ = ("value",)

    def __init__(self, value: Callable[[int], float]):
        super().__init__()
        self.value = value

    def __missing__(self, mask: int) -> float:
        v = self[mask] = self.value(mask)
        return v


@dataclass(slots=True)
class _Interval:
    """What every split k of one interval of suggestion ii shares.

    `lo`..`hi` is the interval's payment span above break-even c(i)/f(i).
    For its eta order (action indices `order`): `curves[t]` is order[t]'s
    curve from `_partition`, `cuts[t]` holds the payments strictly inside
    (lo, hi) where that curve reaches h = 0 or h = 1 (mostly none), so split
    k cuts its span only at cuts[k-1] and cuts[k]; `w[t]` =
    v({order[t], ..., order[-1]}) with w[len] = 0, `tail[t]` =
    (c, f, w[t] - w[t+1]) of order[t] and `bdw[t]` = b * (w[t] - w[t+1]).
    The last three are read from the end of the order
    (`fill`) and hold None above position `top`; `mask` is the set of
    order[top:].  `f` and `c` hold every action's probability and cost by
    index, and `values` is the solve's memo.
    """

    ii: int
    ell: int
    lo: float
    hi: float
    fi: float
    ci: float
    order: list[int]
    curves: list[tuple]
    cuts: list[tuple[float, ...]]
    f: list[float]
    c: list[float]
    values: _Values
    w: list[Optional[float]]
    tail: list[Optional[tuple[float, float, float]]]
    bdw: list[Optional[float]]
    top: int
    mask: int = 0

    def fill(self, k: int) -> None:
        """Read the suffix values of the order down to position k."""
        order, w, t, mask = self.order, self.w, self.top, self.mask
        while t > k:
            t -= 1
            x = order[t]
            mask |= 1 << x
            w[t] = self.values[mask]
            d = w[t] - w[t + 1]
            self.tail[t] = (self.c[x], self.f[x], d)
            self.bdw[t] = self.curves[t][1] * d
        self.top, self.mask = t, mask


def _intervals(inst: Instance, ii: int, values: _Values):
    """Yield the interval contexts of suggestion ii (f > c > 0) that reach break-even.

    No inspection cost is read here; splits read theirs through `values`.
    """
    f = [a.prob for a in inst.actions]
    c = [a.cost for a in inst.actions]
    fi, ci = f[ii], c[ii]
    curves, active, cutpoints = _partition(f, c, ii)
    for ell in range(len(cutpoints) - 1):
        lo = max(cutpoints[ell], ci / fi)
        hi = cutpoints[ell + 1]
        if lo > hi + EQ_TOL:
            continue
        lo = min(lo, hi)
        order = _eta_order(curves, active, 0.5 * (cutpoints[ell] + hi))
        ranked = [curves[x] for x in order]
        cuts = [tuple(h for h in curve[2:] if h is not None and lo < h < hi)
                for curve in ranked]
        n_a = len(order)
        yield _Interval(ii, ell, lo, hi, fi, ci, order, ranked, cuts, f, c, values,
                        [None] * n_a + [0.0], [None] * n_a, [None] * n_a, n_a)


# ---------------------------------------------------------------------------
# Two-variable subproblem
# ---------------------------------------------------------------------------


def _level(curve: Optional[tuple], alpha: float, missing: float) -> float:
    """h(alpha) = a + b/alpha of a curve; `missing` past either end of the order."""
    return missing if curve is None else curve[0] + curve[1] / alpha


def solve_subproblem(ctx: _Interval, k: int) -> Optional[tuple[float, float, float]]:
    """Exact minimizer (objective, alpha, p_i) of one interval/split, or None.

    The objective is alpha*f(i) + p_i*v({i}) + sum_{t>=k} eta_t * (w_t -
    w_{t+1}) (telescoped).  Constraints: eta_{pi(k)} <= 0 <= eta_{pi(k+1)}
    (closed form of the open split), the interval's payment span, and 0 <=
    p_i <= 1.  Every eta is affine in p_i and a + b/alpha in alpha, so for
    fixed alpha the optimal p_i sits at a constraint edge and each resulting
    alpha-piece has the shape A + B*alpha + D/alpha.
    """
    n_a = len(ctx.order)
    if not 0 <= k <= n_a:
        raise ValidationError(f"split index k={k} outside 0..{n_a}")
    lo, hi, fi = ctx.lo, ctx.hi, ctx.fi
    # The boundary curves: p_i >= h_{pi(k)} and p_i <= h_{pi(k+1)}, and the
    # payments inside the span where they cross 0 or 1.
    below, cuts_below = (ctx.curves[k - 1], ctx.cuts[k - 1]) if k >= 1 else (None, ())
    above, cuts_above = (ctx.curves[k], ctx.cuts[k]) if k < n_a else (None, ())

    # Cut the alpha range at those payments; branch formulas and feasibility
    # signs are constant on each resulting piece.
    if cuts_below or cuts_above:
        grid = sorted({lo, hi, *cuts_below, *cuts_above})
        spans = zip(grid, grid[1:])
    else:
        spans = ((lo, hi),)
    pieces = []
    for a0, a1 in spans:
        mid = 0.5 * (a0 + a1)
        h_low, h_high = _level(below, mid, -math.inf), _level(above, mid, math.inf)
        if not (h_low > 1.0 + EQ_TOL or h_high < -EQ_TOL):
            pieces.append((a0, a1, h_low, h_high))
    if not pieces:
        return None

    # Only a split with a live piece reads inspection costs.
    ctx.fill(k)
    v_i = ctx.values[1 << ctx.ii]
    gamma = v_i - ctx.w[k]
    tail = ctx.tail[k:]
    base_D = sum(ctx.bdw[k:])
    best = None
    for a0, a1, h_low, h_high in pieces:
        # Piece objective A + B*alpha + D/alpha after substituting p_i(alpha).
        D = base_D
        if gamma >= 0.0:
            if h_low > 0.0:
                D += gamma * below[1]
        elif h_high < 1.0:
            D += gamma * above[1]
        cands = [a0, a1]
        if D > 0.0:
            star = math.sqrt(D / fi)
            if a0 < star < a1:
                cands.append(star)
        for alpha in cands:
            # The optimal p_i for this alpha, clamped into the constraint box.
            lo_p = max(0.0, _level(below, alpha, -math.inf))
            hi_p = min(1.0, _level(above, alpha, math.inf))
            if lo_p > hi_p + EQ_TOL:
                continue
            p = min(max(lo_p if gamma >= 0.0 else hi_p, 0.0), 1.0)
            # The objective at (alpha, p), with eta's float operation order.
            pay = alpha * fi
            rate = pay - ctx.ci
            keep = 1.0 - p
            total = pay + p * v_i
            for cj, fj, dw in tail:
                total += (keep - (rate + cj) / (alpha * fj)) * dw
            if best is None or total < best[0]:
                best = (total, alpha, p)
    return best


# ---------------------------------------------------------------------------
# Assembly and the full solve
# ---------------------------------------------------------------------------


def assemble_scheme(inst: Instance, ctx: _Interval, k: int, alpha: float,
                    p_i: float) -> InspectionScheme:
    """Materialize split k of interval `ctx` at (alpha, p_i) as an inspection scheme.

    Marginals are eta clamped into [0, 1] beyond the split (zero up to it);
    the chain construction over the constrained actions realizes them at
    minimum cost with mass 1 - p_i, and {i} itself is inspected with
    probability p_i.
    The result must pass the IC check; a failure is a solver bug.
    """
    ids = inst.ids
    i = ids[ctx.ii]
    order = [ids[x] for x in ctx.order]
    rate = alpha * ctx.fi - ctx.ci
    keep = 1.0 - p_i
    marginals = dict.fromkeys(order[:k], 0.0)
    for j, (cj, fj, _) in zip(order[k:], ctx.tail[k:]):
        # On tied instances eta can round just above 1; clamp into [0, 1].
        marginals[j] = min(max(0.0, keep - (rate + cj) / (alpha * fj)), 1.0)
    nested = nested_min_cost_distribution(order, marginals, keep)
    dist: list[tuple[frozenset, float]] = list(nested.levels)
    if p_i > 0.0:
        dist.append((frozenset([i]), p_i))
    dist.append((_NOTHING, nested.empty_mass))
    scheme = InspectionScheme(i, alpha, dist)
    if not is_IC(inst, scheme):
        raise AssertionError(f"solver bug: assembled scheme for {i} is not IC")
    return scheme


def _best_candidate(inst: Instance, ii: int, values: _Values):
    """Suggestion ii's best candidate (key, ctx, k, p_i), or None.

    Candidates are ranked by the whole key (utility, -ii, -alpha), first
    found on ties: f(i) - objective can round two objectives to one utility.
    A zero-cost action is suggested at payment 0, uninspected, with ctx None.
    """
    a = inst.actions[ii]
    if a.cost == 0.0:
        return (a.prob, -ii, 0.0), None, 0, 0.0
    if a.prob <= a.cost:
        return None
    best = None
    for ctx in _intervals(inst, ii, values):
        for k in range(len(ctx.order) + 1):
            res = solve_subproblem(ctx, k)
            if res is not None:
                key = (a.prob - res[0], -ii, -res[1])
                if best is None or key > best[0]:
                    best = (key, ctx, k, res[2])
    return best


def solve_randomized(inst: Instance) -> reports.SolveReport:
    """Optimal randomized IC inspection scheme; requires a submodular cost.

    A cost that is not submodular by type (`submodular_by_type`) is checked
    in `check_mode`'s mode, with `check_submodular`'s default seed and
    sample count; a witness raises SubmodularityError.  A sampled check
    that finds none leaves a warning in the report.
    """
    warnings = ()
    if not submodular_by_type(inst.cost_fn):
        mode = check_mode(inst.cost_fn)
        ok, witness = check_submodular(inst.cost_fn, mode=mode)
        if not ok:
            raise SubmodularityError(witness)
        if mode == "sampled":
            warnings = (f"submodularity sampled, not proven (n > {EXHAUSTIVE_MAX_N}): "
                        f"no violation in {CHECK_SAMPLES} random draws",)

    values = _Values(inst.cost_fn.value)
    bests = (_best_candidate(inst, ii, values) for ii in range(inst.n))
    (_, neg_ii, neg_alpha), ctx, k, p_i = max(filter(None, bests), key=itemgetter(0))
    i = inst.ids[-neg_ii]
    if ctx is None:
        scheme = InspectionScheme(i, 0.0, [(_NOTHING, 1.0)])
        provenance = {"kind": "zero_cost", "suggested": i}
    else:
        scheme = assemble_scheme(inst, ctx, k, -neg_alpha, p_i)
        provenance = {"kind": "subproblem", "suggested": i, "interval": ctx.ell, "k": k,
                      "alpha": -neg_alpha, "p_suggested": p_i}
    return reports.build_report(
        inst, "rand", scheme, provenance=provenance, warnings=warnings)
