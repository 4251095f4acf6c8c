"""Combinatorial inspection cost functions behind a value/demand oracle interface.

Subsets of the ground set {0, ..., n-1} are represented as bitmask ints
(bit i set <=> element i in the set).  All constructors produce normalized
(value(0) == 0), monotone set functions by construction; `check_monotone`
and `check_submodular` verify these properties either exhaustively or on
seeded samples, returning a counterexample witness on failure.

`submodular_by_type` decides a cost's class once, from its exact type, so
no caller re-proves the submodularity of a typed cost with a 2^n scan.

Every cost states its ground-set size `n`, which the checks and the demand
oracle read.  `SetFunction.table()` returns the list of all 2^n values
indexed by bitmask, each bit-identical to `value(mask)` (the same float, of
the same type) in every subclass: one that defines `value` but not `table`
gets the 2^n loop over its own `value`.  The built-in constructors fill it
by subset DP (entry m extends m without its highest bit by that bit), which
reproduces `value`'s ascending-bit summation exactly; `families.VTCost`
builds its table from its structure instead (one of two shared 8-entry rows
per subset of its k hidden-shift actions).  The exhaustive checks, limited
to n <= `EXHAUSTIVE_MAX_N`, read the table and compare whole slices of it
at C speed.  Above that limit the checks sample (`check_mode` is the one
rule, which `solve_randomized` and `icx check-costfn` both follow).
"""

from __future__ import annotations

import math
import operator
import random
from array import array
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

# Float noise between two computations of the same quantity ends here: cost
# class checks, probability sums, cutpoint and mass checks, LP dust, and the
# re-checks of a solver's answer.  Utility comparisons use model.DEFAULT_TOL.
EQ_TOL = 1e-12

# The largest n whose 2^n sets the exhaustive checks scan.
EXHAUSTIVE_MAX_N = 16

# Random draws of a sampled check, by default: a (set, element) pair for
# monotonicity, a (set, i, j) triple for submodularity.
CHECK_SAMPLES = 1000


popcount = int.bit_count


def bits(mask: int):
    """Yield the set bit positions of mask in ascending order."""
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def price_of(prices: Sequence[float], mask: int) -> float:
    """Total price of a bitmask set, summed in ascending bit order.

    Shared by every demand routine and by the additive values, so that float
    results are reproducible across implementations and Python versions
    (tie-breaking relies on bit-identical sums).
    """
    total = 0.0
    for i in bits(mask):
        total += prices[i]
    return total


class SetFunction:
    """Value/demand oracle over subsets of {0, ..., n-1}.

    Subclasses give `n` and implement `value`.  `demand` defaults to
    exhaustive enumeration (n <= 20) with deterministic tie-breaking:
    smaller cardinality first, then smaller bitmask.
    """

    n: int

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # An inherited table would hold the parent's values, not this value's.
        if "value" in vars(cls) and "table" not in vars(cls):
            cls.table = SetFunction.table

    def value(self, mask: int) -> float:
        raise NotImplementedError

    def demand(self, prices: Sequence[float]) -> int:
        return demand_default(self, prices)

    def table(self) -> list[float]:
        """All 2^n values, bit-identical to `value`."""
        return [self.value(m) for m in range(1 << self.n)]


def _subset_sums(weights: Sequence[float]) -> list[float]:
    """`price_of(weights, m)` for every bitmask m, by subset DP."""
    sums = [0.0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def demand_default(fn: SetFunction, prices: Sequence[float]) -> int:
    """Exhaustive demand oracle: argmax of value(S) - price(S).

    Ties broken toward smaller cardinality, then smaller bitmask, so the
    result is deterministic and implementation-independent.
    """
    n = fn.n
    if n > 20:
        raise ValueError(f"demand_default enumerates 2^n subsets; n={n} > 20")
    if any(q < 0 for q in prices):
        raise ValueError("demand prices must be nonnegative")
    best_mask = 0
    best_obj = 0.0  # value(0) - 0
    best_pc = 0
    for mask in range(1, 1 << n):
        obj = fn.value(mask) - price_of(prices, mask)
        pc = popcount(mask)
        if obj > best_obj or (obj == best_obj and pc < best_pc):
            best_mask, best_obj, best_pc = mask, obj, pc
    return best_mask


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


class _Doubles(array):
    """C doubles (8 bytes each rather than a 32-byte float object) that read
    back the same floats, and hash like the tuple they compare equal to (so
    0.0 and -0.0 hash alike, as == requires)."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(tuple(self))


def _check_weights(weights: Sequence[float]) -> _Doubles:
    # Scanned as float objects: iterating an array would box each one.
    w = [float(x) for x in weights]
    if not all(map(math.isfinite, w)):
        raise ValueError("weights must be finite")
    if any(x < 0 for x in w):
        raise ValueError("weights must be nonnegative")
    return _Doubles("d", w)


@dataclass(frozen=True)
class Additive(SetFunction):
    """v(S) = sum of per-element weights."""

    weights: _Doubles

    def __init__(self, weights: Sequence[float]):
        object.__setattr__(self, "weights", _check_weights(weights))

    @property
    def n(self) -> int:
        return len(self.weights)

    def value(self, mask: int) -> float:
        return price_of(self.weights, mask)

    def table(self) -> list[float]:
        return _subset_sums(self.weights)

    def demand(self, prices: Sequence[float]) -> int:
        # Take exactly the elements with positive surplus; ties excluded
        # (matches the smaller-cardinality tie-break of demand_default).
        mask = 0
        for i, w in enumerate(self.weights):
            if w - prices[i] > 0:
                mask |= 1 << i
        return mask


@dataclass(frozen=True)
class BudgetAdditive(SetFunction):
    """v(S) = min(additive sum, cap).  Submodular for cap >= 0."""

    weights: _Doubles
    cap: float

    def __init__(self, weights: Sequence[float], cap: float):
        object.__setattr__(self, "weights", _check_weights(weights))
        if not math.isfinite(cap):
            raise ValueError("cap must be finite")
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        object.__setattr__(self, "cap", float(cap))

    @property
    def n(self) -> int:
        return len(self.weights)

    def value(self, mask: int) -> float:
        return min(price_of(self.weights, mask), self.cap)

    def table(self) -> list[float]:
        cap = self.cap
        return [cap if cap < s else s for s in _subset_sums(self.weights)]


@dataclass(frozen=True)
class WeightedCoverage(SetFunction):
    """v(S) = total weight of universe elements covered by any member of S.

    `covers[i]` is a bitmask over universe elements {0, ..., universe-1}.
    """

    universe: int
    covers: tuple[int, ...]
    element_weights: _Doubles

    def __init__(self, universe: int, covers: Sequence[int], element_weights: Sequence[float]):
        ew = _check_weights(element_weights)
        if len(ew) != universe:
            raise ValueError("element_weights length must equal universe size")
        cv = tuple(int(c) for c in covers)
        if any(c < 0 or c >= (1 << universe) for c in cv):
            raise ValueError("cover masks out of range for universe")
        object.__setattr__(self, "universe", int(universe))
        object.__setattr__(self, "covers", cv)
        object.__setattr__(self, "element_weights", ew)

    @property
    def n(self) -> int:
        return len(self.covers)

    def value(self, mask: int) -> float:
        covered = 0
        for i in bits(mask):
            covered |= self.covers[i]
        return self._weight(covered)

    def _weight(self, covered: int) -> float:
        return sum(self.element_weights[e] for e in bits(covered))

    def table(self) -> list[float]:
        covered = [0]
        for c in self.covers:
            covered += [u | c for u in covered]
        weight = {u: self._weight(u) for u in set(covered)}
        return list(map(weight.__getitem__, covered))


@dataclass(frozen=True)
class ConcaveCardinality(SetFunction):
    """v(S) = g(|S|) for a nondecreasing concave table g with g(0) = 0."""

    g: _Doubles

    def __init__(self, g: Sequence[float]):
        gt = [float(x) for x in g]
        if not all(map(math.isfinite, gt)):
            raise ValueError("cardinality table must be finite")
        if not gt or gt[0] != 0.0:
            raise ValueError("cardinality table must start at g[0] = 0")
        diffs = [gt[i + 1] - gt[i] for i in range(len(gt) - 1)]
        if any(d < -EQ_TOL for d in diffs):
            raise ValueError("cardinality table must be nondecreasing")
        if any(diffs[i + 1] - diffs[i] > EQ_TOL for i in range(len(diffs) - 1)):
            raise ValueError("cardinality table must be concave (nonincreasing differences)")
        object.__setattr__(self, "g", _Doubles("d", gt))

    @property
    def n(self) -> int:
        return len(self.g) - 1

    def value(self, mask: int) -> float:
        return self.g[popcount(mask)]

    def table(self) -> list[float]:
        sizes = [0]
        for _ in range(self.n):
            sizes += [k + 1 for k in sizes]
        return list(map(self.g.__getitem__, sizes))


@dataclass(frozen=True)
class ExplicitTable(SetFunction):
    """v(S) read from a dense table of 2^n values, indexed by bitmask.

    The interchange format for cross-checking every other constructor;
    validated finite, normalized and monotone on load.
    """

    values: _Doubles

    def __init__(self, values: Sequence[float]):
        vt = [float(x) for x in values]
        n = (len(vt)).bit_length() - 1
        if n < 0 or len(vt) != (1 << n):
            raise ValueError("table length must be a power of two")
        # Scanned as float objects: iterating an array would box each one.
        if not all(map(math.isfinite, vt)):
            raise ValueError("table values must be finite")
        if vt[0] != 0.0:
            raise ValueError("table not normalized: v(empty) != 0")
        witness = _monotone_violation(vt, n)
        if witness is not None:
            mask, i = witness
            raise ValueError(f"table not monotone at S={mask:b}, element {i}")
        object.__setattr__(self, "values", _Doubles("d", vt))

    @property
    def n(self) -> int:
        return len(self.values).bit_length() - 1

    def value(self, mask: int) -> float:
        return self.values[mask]

    def table(self) -> list[float]:
        return self.values.tolist()


@dataclass(frozen=True)
class XOSClauses(SetFunction):
    """v(S) = max over additive clauses of clause(S)."""

    clauses: tuple[_Doubles, ...]

    def __init__(self, clauses: Sequence[Sequence[float]]):
        cl = tuple(_check_weights(c) for c in clauses)
        if not cl:
            raise ValueError("XOS needs at least one clause")
        if len({len(c) for c in cl}) != 1:
            raise ValueError("all clauses must have the same length")
        object.__setattr__(self, "clauses", cl)

    @property
    def n(self) -> int:
        return len(self.clauses[0])

    def value(self, mask: int) -> float:
        return max(sum(c[i] for i in bits(mask)) for c in self.clauses)


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------


@dataclass
class CountingOracle(SetFunction):
    """Transparent wrapper counting value/demand queries."""

    inner: SetFunction
    value_queries: int = 0
    demand_queries: int = 0

    @property
    def n(self) -> int:
        return self.inner.n

    def value(self, mask: int) -> float:
        self.value_queries += 1
        return self.inner.value(mask)

    def demand(self, prices: Sequence[float]) -> int:
        self.demand_queries += 1
        return self.inner.demand(prices)

    def table(self) -> list[float]:
        """Counts one value query per entry, as materializing via `value` would."""
        self.value_queries += 1 << self.n
        return self.inner.table()


def uncounted(fn: SetFunction) -> SetFunction:
    """The cost behind a `CountingOracle`; any other cost as it is."""
    return fn.inner if isinstance(fn, CountingOracle) else fn


# ---------------------------------------------------------------------------
# Class membership
# ---------------------------------------------------------------------------

# Matched on the exact type: a subclass may override `value`.
_SUBMODULAR_TYPES = frozenset({Additive, BudgetAdditive, WeightedCoverage,
                               ConcaveCardinality})


def submodular_by_type(fn: SetFunction) -> bool:
    """Whether fn's exact type, seen through a `CountingOracle`, makes it submodular."""
    return type(uncounted(fn)) in _SUBMODULAR_TYPES


def check_mode(fn: SetFunction) -> str:
    """The mode of fn's class checks: exhaustive up to EXHAUSTIVE_MAX_N, sampled above."""
    return "exhaustive" if fn.n <= EXHAUSTIVE_MAX_N else "sampled"


def _sampled_draws(rng: random.Random, n: int, k: int, count: int):
    """count random (elements, mask) draws: k distinct elements, then a mask over the rest.

    The mask is uniform over the subsets of the other n - k elements, so no
    draw is wasted on an element the mask holds.  None when n < k, as
    there are not k elements to draw.
    """
    full = (1 << n) - 1
    for _ in range(count if n >= k else 0):
        elements = rng.sample(range(n), k)
        yield elements, rng.randint(0, full) & ~sum(1 << e for e in elements)


def _bit_slices(vals: Sequence[float], n: int, i: int):
    """(hi, lo) slice pairs of vals with hi[k] = vals[m | 1 << i], lo[k] = vals[m].

    Together they cover every mask m without bit i once.  Those masks form
    2^(n-i-1) contiguous blocks, or equally 2^i strided slices; whichever
    needs fewer slices is used, so at most 2^(n/2) slices and the work per
    element runs in C.
    """
    size = 1 << n
    b = 1 << i
    step = b << 1
    if b <= size // step:
        return ((vals[lo + b::step], vals[lo::step]) for lo in range(b))
    return ((vals[h + b:h + step], vals[h:h + b]) for h in range(0, size, step))


def _any_step(vals: Sequence[float], n: int, cmp, shift, tol: float = EQ_TOL) -> bool:
    """Whether cmp(vals[m | b], shift(vals[m], tol)) for some bit b and mask m without b."""
    tol = repeat(tol)
    for i in range(n):
        for hi, lo in _bit_slices(vals, n, i):
            # cmp(hi, lo) is implied by the tolerant comparison and costs no
            # float allocations, so it screens out the common clean slice.
            if any(map(cmp, hi, lo)) and any(map(cmp, hi, map(shift, lo, tol))):
                return True
    return False


def _monotone_violation(vals: Sequence[float], n: int):
    """First (mask, i), in mask-then-element order, with v(mask + i) < v(mask) - EQ_TOL."""
    if not _any_step(vals, n, operator.lt, operator.sub):
        return None
    for mask in range(1 << n):
        for i in range(n):
            if not mask & (1 << i) and vals[mask | (1 << i)] < vals[mask] - EQ_TOL:
                return mask, i
    raise AssertionError("slice scan and ordered scan disagree")


def _gains(vals: Sequence[float], n: int, i: int) -> list[float]:
    """v(m + i) - v(m) for every mask m without bit i, as a 2^(n-1) table.

    Its index bits are m's other n - 1 bits in some fixed order, so a scan
    over all of its bits meets every (m, m + j) pair exactly once.
    """
    gain = []
    for hi, lo in _bit_slices(vals, n, i):
        gain += map(operator.sub, hi, lo)
    return gain


def _submodular_violation(vals: Sequence[float], n: int):
    """First (mask, i, j), in mask-then-i-then-j order, with v(i|mask+j) > v(i|mask) + tol.

    tol is EQ_TOL scaled by the table's largest magnitude, when above 1:
    the rounding error of a difference of values grows with them.
    """
    tol = _scaled_tol(vals)
    if not any(_any_step(_gains(vals, n, i), n - 1, operator.gt, operator.add, tol)
               for i in range(n)):
        return None
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
                if vals[mask | bj | bi] - vals[mask | bj] > base + tol:
                    return mask, i, j
    raise AssertionError("slice scan and ordered scan disagree")


def _scaled_tol(vals) -> float:
    """EQ_TOL * max(1, largest |v| among vals): the tolerance for differences of vals."""
    return EQ_TOL * max(1.0, max(map(abs, vals)))


def _full_table(fn: SetFunction, check: str) -> list[float]:
    """fn.table(), for a check that reads all 2^n sets; refused beyond EXHAUSTIVE_MAX_N."""
    if fn.n > EXHAUSTIVE_MAX_N:
        raise ValueError(f"{check} check limited to n <= {EXHAUSTIVE_MAX_N}")
    return fn.table()


def check_monotone(fn: SetFunction, mode: str = "exhaustive",
                   seed: int = 0, samples: int = CHECK_SAMPLES):
    """Check S <= T => v(S) <= v(T) via single-element extensions.

    Returns (True, None) or (False, (mask, element)) where adding `element`
    to `mask` strictly decreases the value.  Sampled, each of `samples`
    draws picks an element, then a random mask without it, and compares.
    """
    n = fn.n
    if mode == "exhaustive":
        witness = _monotone_violation(_full_table(fn, "exhaustive monotonicity"), n)
        return witness is None, witness
    elif mode == "sampled":
        for (i,), mask in _sampled_draws(random.Random(seed), n, 1, samples):
            if fn.value(mask | (1 << i)) < fn.value(mask) - EQ_TOL:
                return False, (mask, i)
        return True, None
    raise ValueError(f"unknown mode {mode!r}")


def check_submodular(fn: SetFunction, mode: str = "exhaustive",
                     seed: int = 0, samples: int = CHECK_SAMPLES):
    """Check decreasing marginals: v(i|S) >= v(i|S+j) for all S, i,j not in S.

    A marginal may grow by EQ_TOL times the largest |v| read, when that is
    above 1: exhaustively, the largest in the table; sampled, the largest
    of the four values each comparison reads.  Returns (True, None) or
    (False, (mask, i, j)) for the first violating nested pair found.
    Sampled, each of `samples` draws picks i != j, then a random mask
    without either, and compares; with n < 2 there is no triple to draw.
    """
    n = fn.n
    if mode == "exhaustive":
        witness = _submodular_violation(_full_table(fn, "exhaustive submodularity"), n)
        return witness is None, witness
    elif mode == "sampled":
        for (i, j), mask in _sampled_draws(random.Random(seed), n, 2, samples):
            bi, bj = 1 << i, 1 << j
            vals = (fn.value(mask | bj | bi), fn.value(mask | bj),
                    fn.value(mask | bi), fn.value(mask))
            if vals[0] - vals[1] > vals[2] - vals[3] + _scaled_tol(vals):
                return False, (mask, i, j)
        return True, None
    raise ValueError(f"unknown mode {mode!r}")


def check_xos_pointwise(fn: SetFunction, clauses) -> bool:
    """Check a clause family certifies fn as XOS, pointwise over all 2^n sets.

    `clauses` is either a list of additive weight vectors, or any object with
    a `max_value(mask)` method (for families too large to materialize).  Each
    set's largest clause value must be within EQ_TOL of its value, which also
    bounds every clause from above.
    """
    table = _full_table(fn, "pointwise XOS")
    if hasattr(clauses, "max_value"):
        max_value = clauses.max_value
    else:
        def max_value(mask):
            return max([0.0, *(sum(c[i] for i in bits(mask)) for c in clauses)])
    return not any(abs(max_value(mask) - v) > EQ_TOL for mask, v in enumerate(table))
