"""Benchmark instance families: the hidden-cyclic-structure XOS family, the
linear deterministic-vs-randomized gap family, and the small reference
instances used throughout the test suite.

The XOS family hides a set T of ~4k/5 "bad" actions inside a cost function
whose value on large subsets of them depends on membership in cyclic(T),
the k cyclic shifts of T.  Its unique optimal randomized scheme inspects
exactly the shifted sets (plus x), so recovering it from value/demand
queries amounts to searching C(k, m)/k rotation classes; query_experiment
measures that search cost empirically.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .costfn import Additive, CountingOracle, SetFunction, bits, popcount, price_of
from .model import Action, InspectionScheme, Instance, ValidationError


def _is_prime(k: int) -> bool:
    if k < 2:
        return False
    d = 2
    while d * d <= k:
        if k % d == 0:
            return False
        d += 1
    return True


def _hidden_size(k: int, m_override: Optional[int]) -> int:
    """|T| of the hidden-shift family: m_override if given, else ceil(4k/5)."""
    return m_override if m_override is not None else math.ceil(4 * k / 5)


@dataclass(frozen=True)
class HardParams:
    """Parameters of the hidden-shift family: prime k > 5 and T of size m.

    m defaults to ceil(4k/5); m_override exists only to demonstrate the
    growth of the rotation-class count C(k, m)/k at desk scale and is
    labeled non-standard in experiment reports.  `cyclic_masks` holds the
    k-bit masks of cyclic(T), computed once by rotating T's mask.
    """

    k: int
    T: frozenset[int]
    m_override: Optional[int] = None
    cyclic_masks: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (_is_prime(self.k) and self.k > 5):
            raise ValidationError("k must be a prime larger than 5")
        if self.m_override is not None and not 0 < self.m_override < self.k:
            raise ValidationError("m override must lie strictly between 0 and k")
        # 4k/5 is never an integer for prime k > 5, so the size threshold
        # |S| > 4k/5 is equivalent to |S| >= m for the default m.
        assert (4 * self.k) % 5 != 0
        object.__setattr__(self, "T", frozenset(int(t) for t in self.T))
        if not self.T <= set(range(1, self.k + 1)):
            raise ValidationError("T must be a subset of {1, ..., k}")
        if len(self.T) != self.m:
            raise ValidationError(f"|T| must be m = {self.m}")
        object.__setattr__(self, "cyclic_masks",
                           frozenset(_rotations(_set_to_kmask(self.T, self.k), self.k)))

    @property
    def m(self) -> int:
        return _hidden_size(self.k, self.m_override)

    @property
    def default_size(self) -> bool:
        return self.m_override is None


def random_hard_params(k: int, seed: int, m_override: Optional[int] = None) -> HardParams:
    rng = random.Random(seed)
    m = _hidden_size(k, m_override)
    T = frozenset(rng.sample(range(1, k + 1), m))
    return HardParams(k, T, m_override)


def cyclic(T, k: int) -> list[frozenset[int]]:
    """The distinct cyclic shifts {((j + t) mod k) + 1 : j in T} for t in [k].

    For prime k and 0 < |T| < k all k shifts are distinct (asserted).  Shift
    t moves bit j-1 of T's k-bit mask to bit (j+t) mod k, a rotation by t+1,
    so the shifts are the mask's k rotations.
    """
    kmask = _set_to_kmask(T, k)
    shifts = {frozenset(j + 1 for j in bits(r)) for r in _rotations(kmask, k)}
    out = sorted(shifts, key=sorted)
    if 0 < popcount(kmask) < k and _is_prime(k):
        assert len(out) == k, "cyclic shifts of a nontrivial set must be distinct"
    return out


def _set_to_kmask(s, k: int) -> int:
    mask = 0
    for j in s:
        if not 1 <= j <= k:
            raise ValidationError(f"element {j} outside 1..{k}")
        mask |= 1 << (j - 1)
    return mask


def _rotations(kmask: int, k: int) -> list[int]:
    """The k cyclic rotations of a k-bit mask, kmask itself first."""
    full = (1 << k) - 1
    out = [kmask]
    for _ in range(k - 1):
        kmask = ((kmask << 1) | (kmask >> (k - 1))) & full
        out.append(kmask)
    return out


class VTCost(SetFunction):
    """The family's inspection cost over actions (bot, g, x, 1..k).

    Bit layout matches the generated instance: bit 0 = bot, bit 1 = g,
    bit 2 = x, bit 3+j-1 = action j.  Beyond flat charges for bot, g, and
    any nonempty inspection, subsets of {1..k} add a small term that is
    doubled for large subsets outside cyclic(T) -- the only footprint the
    hidden set leaves in the value oracle.

    `table()` is built from that structure rather than by 2^n `value` calls:
    each nonempty subset of {1..k} selects one of two 8-entry rows (the
    small or the doubled term over the bot/g/x bits), so all but the first
    8 entries of the 2^(k+3) list share 16 floats, each bit-identical to
    `value`.
    """

    def __init__(self, params: HardParams):
        self.params = params
        self.n = params.k + 3
        self._eps = 1.0 / (80.0 * params.k)

    def value(self, mask: int) -> float:
        val = 0.0
        if mask & ~0b011:  # something besides bot/g is inspected
            val += 1.0 / 40.0
        if mask & 0b001:
            val += 1.0
        if mask & 0b010:
            val += 1.0
        rest = mask >> 3
        s = popcount(rest)
        if s > 0:
            if s < self.params.m or rest in self.params.cyclic_masks:
                val += self._eps
            else:
                val += 2.0 * self._eps
        return val

    def table(self) -> list[float]:
        low = [self.value(mask) for mask in range(8)]
        # Once any of 1..k is inspected, the flat charges are those with x
        # inspected; the small term is added last, as `value` adds it.
        eps, twice = self._eps, 2.0 * self._eps
        small = [low[mask | 0b100] + eps for mask in range(8)]
        large = [low[mask | 0b100] + twice for mask in range(8)]
        m, cyclic_masks = self.params.m, self.params.cyclic_masks
        out = low
        for rest in range(1, 1 << self.params.k):
            out += small if popcount(rest) < m or rest in cyclic_masks else large
        return out

    def demand(self, prices: Sequence[float]) -> int:
        return demand_vt(self.params, prices, self)


def gen_xos_hard(params: HardParams) -> Instance:
    """Instance with n = k+3 actions and the hidden-shift cost function."""
    actions = [Action("bot", 0.0, 0.0), Action("g", 0.1, 1.0), Action("x", 0.01, 0.3)]
    actions += [Action(str(j), 0.01, 0.2) for j in range(1, params.k + 1)]
    return Instance(tuple(actions), "bot", VTCost(params))


# ---------------------------------------------------------------------------
# XOS certificate
# ---------------------------------------------------------------------------


@dataclass
class XosCertificate:
    """Lazy evaluator for the additive-clause family certifying VTCost as XOS.

    Clauses: one for x, one per element of {1..k}, and one per large subset
    of {1..k} outside cyclic(T).  The last family is exponential, so its
    pointwise maximum is computed analytically: the best clause set S' of
    size r intersects S as much as possible, and only r = m requires an
    eligibility count against the k cyclic members.
    """

    params: HardParams

    def _best_large_clause_ratio(self, rest: int, s: int) -> float:
        k, m = self.params.k, self.params.m
        best = min(s, m + 1) / (m + 1)  # sizes above m are always eligible
        if s >= m:
            inside = sum(1 for c in self.params.cyclic_masks if c & ~rest == 0)
            if math.comb(s, m) > inside:
                best = max(best, 1.0)
        else:
            containing = sum(1 for c in self.params.cyclic_masks if rest & ~c == 0)
            if math.comb(k - s, m - s) > containing:
                best = max(best, s / m)
        return best

    def max_value(self, mask: int) -> float:
        k = self.params.k
        base = (1.0 if mask & 0b001 else 0.0) + (1.0 if mask & 0b010 else 0.0)
        rest = mask >> 3
        s = popcount(rest)
        best = (1.0 / 40.0) if mask & 0b100 else 0.0
        if s > 0:
            best = max(best, 1.0 / 40.0 + 1.0 / (80.0 * k))
        ratio = self._best_large_clause_ratio(rest, s)
        if ratio > 0.0:
            best = max(best, (1.0 / 40.0 + 1.0 / (40.0 * k)) * ratio)
        return base + best


def xos_certificate(params: HardParams) -> XosCertificate:
    return XosCertificate(params)


# ---------------------------------------------------------------------------
# Exact demand shortcut
# ---------------------------------------------------------------------------


def demand_vt(params: HardParams, prices: Sequence[float],
              fn: Optional[VTCost] = None) -> int:
    """Demand maximizer of VTCost without enumerating all 2^(k+3) subsets.

    bot and g enter iff strictly profitable.  Over {1..k, x} the maximizer
    is one of: nothing, {x}, a singleton, one of the k+1 cheapest size-m
    sets (at most k can be cyclic), or the cheapest size-(m+1) set.  All
    candidates are scored with the same value/price arithmetic as the
    enumerating oracle, so tie-breaking agrees exactly.
    """
    if fn is None:
        fn = VTCost(params)
    if any(q < 0 for q in prices):
        raise ValidationError("demand prices must be nonnegative")
    k, m = params.k, params.m
    base = 0
    if prices[0] < 1.0:
        base |= 0b001
    if prices[1] < 1.0:
        base |= 0b010

    rest_candidates = {0, 0b100}
    for j in range(k):
        rest_candidates.add(1 << (3 + j))

    by_price = sorted(range(k), key=lambda j: (prices[3 + j], j))
    msize = [kmask << 3 for kmask in _cheapest_combinations(prices, k, m, k + 1)]
    rest_candidates.update(msize)
    if m + 1 <= k:
        rest_candidates.add(sum(1 << (3 + j) for j in by_price[:m + 1]))

    best = None
    for rest in rest_candidates:
        mask = base | rest
        obj = fn.value(mask) - price_of(prices, mask)
        key = (obj, -popcount(mask), -mask)
        if best is None or key > best[0]:
            best = (key, mask)
    return best[1]


def _cheapest_combinations(prices: Sequence[float], k: int, m: int, count: int):
    """The `count` cheapest size-m subsets of {1..k} by (price, bitmask)."""
    combos = []
    for combo in itertools.combinations(range(k), m):
        kmask = sum(1 << j for j in combo)
        combos.append((sum(prices[3 + j] for j in combo), kmask))
    combos.sort()
    return [kmask for _, kmask in combos[:count]]


# ---------------------------------------------------------------------------
# Unique optimal scheme and query experiment
# ---------------------------------------------------------------------------


def unique_optimal_scheme(params: HardParams) -> InspectionScheme:
    """The family's single best randomized scheme: suggest g at break-even pay,
    inspect {x} plus each cyclic shift of T with equal probability."""
    if params.m_override is not None:
        raise ValidationError("the optimal-scheme construction needs the default m")
    k, m = params.k, params.m
    shifts = cyclic(params.T, k)
    p_shift = 1.0 / (2.0 * m)
    p_x = 2.0 / 3.0 - k / (2.0 * m)
    assert p_x >= 0.0
    dist = [(frozenset({"x"} | {str(j) for j in s}), p_shift) for s in shifts]
    dist.append((frozenset(["x"]), p_x))
    dist.append((frozenset(), 1.0 / 3.0))
    return InspectionScheme("g", 0.1, dist)


def query_experiment(k: int, trials: int, seed: int,
                     m_override: Optional[int] = None) -> dict:
    """Empirical cost of locating cyclic(T) through value queries.

    Each trial hides a uniformly random T and probes one random member of
    each rotation class, classes in random order, until the queried value
    reveals membership.  Queries are counted by a CountingOracle; the
    position of T's class is uniform on 1..N for N = C(k, m)/k classes,
    giving the analytic mean (N+1)/2.
    """
    import statistics  # loads fractions and decimal: not at import time

    if trials < 1:
        raise ValidationError("need at least one trial")
    m = _hidden_size(k, m_override)
    probe = HardParams(k, frozenset(range(1, m + 1)), m_override)  # validates k, m

    classes: dict[int, list[int]] = {}
    for combo in itertools.combinations(range(1, k + 1), m):
        kmask = _set_to_kmask(combo, k)
        canon = min(_rotations(kmask, k))
        classes.setdefault(canon, []).append(kmask)
    class_reps = sorted(classes)
    n_classes = len(class_reps)
    assert n_classes == math.comb(k, m) // k
    assert all(len(v) == k for v in classes.values())

    member_level = 1.0 / 40.0 + 1.0 / (80.0 * k)
    gap = 1.0 / (320.0 * k)
    counts = []
    for t in range(trials):
        rng = random.Random(f"{seed}:{t}")
        T = frozenset(rng.sample(range(1, k + 1), m))
        fn = CountingOracle(VTCost(HardParams(k, T, m_override)))
        order = class_reps[:]
        rng.shuffle(order)
        for rep in order:
            kmask = rng.choice(classes[rep])
            if abs(fn.value(kmask << 3) - member_level) < gap:
                break
        counts.append(fn.value_queries)

    return {
        "k": k,
        "m": m,
        "default_size": m_override is None,
        "trials": trials,
        "seed": seed,
        "classes": n_classes,
        "analytic_mean_queries": (n_classes + 1) / 2,
        "exponential_rate_floor": (5.0 / 4.0) ** k / k,
        "mean_queries": statistics.fmean(counts),
        "median_queries": statistics.median(counts),
        "max_queries": max(counts),
        "min_queries": min(counts),
    }


# ---------------------------------------------------------------------------
# Reference instances
# ---------------------------------------------------------------------------


def gen_gap_instance(n: int) -> Instance:
    """Family with an n/4 utility gap between deterministic and randomized play.

    Action i has f = 2^(i+1)/2^n and c chosen so no-inspection payments must
    leave the principal only 2/2^n, while inspecting anything costs at least
    the whole surplus n/2^n.
    """
    if n < 3:
        raise ValidationError("gap instance needs n >= 3")
    scale = float(2 ** n)
    actions = [Action("bot", 0.0, 0.0)]
    actions += [Action(str(i), (2 ** (i + 1) - i - 1) / scale, 2 ** (i + 1) / scale)
                for i in range(1, n)]
    return Instance(tuple(actions), "bot", Additive([n / scale] * n))


def gap_reference_scheme(n: int) -> InspectionScheme:
    """Randomized scheme extracting n/2^(n+1) from the gap instance."""
    top = str(n - 1)
    return InspectionScheme(top, 1.0 - n / float(2 ** n),
                            [(frozenset(), 0.5), (frozenset([top]), 0.5)])


def gen_nonic_example():
    """Three-action instance where a non-IC randomized scheme beats the IC optimum.

    Returns (instance, non-IC scheme, reference values).  Suggesting the
    null action at full payment while inspecting it half the time leaves
    the high action a best response worth 0.425 to the principal; the best
    IC randomized scheme only reaches 1.45 - 2*sqrt(0.3) ~= 0.3546.
    """
    inst = Instance(
        (Action("bot", 0.0, 0.0), Action("1", 0.1, 0.4), Action("2", 0.5, 1.0)),
        "bot", Additive([0.0, 0.3, 2.0]))
    scheme = InspectionScheme("bot", 1.0, [
        (frozenset(["bot"]), 0.5), (frozenset(["1"]), 0.25), (frozenset(), 0.25)])
    refs = {
        "non_ic_principal_utility": 0.425,
        "ic_randomized_optimum": 1.45 - 2.0 * math.sqrt(0.3),
    }
    return inst, scheme, refs


def gen_intro_example() -> Instance:
    """Three-action warm-up instance: null, a mid action b, and a good action g."""
    return Instance(
        (Action("bot", 0.0, 0.1), Action("b", 0.1, 0.5), Action("g", 0.35, 1.0)),
        "bot", Additive([1.0, 1.0, 0.1]))
