"""Shared seeded generators for the randomized test batteries."""

import random

import pytest

from icx import costfn
from icx.model import Action, Instance

GRID = [i / 8.0 for i in range(9)]


class Squared(costfn.Additive):
    """Overrides only `value`: not submodular, and its table must hold its
    own values, not the subset sums of the `Additive` it extends."""

    def value(self, mask):
        return super().value(mask) ** 2


def unchecked_table(values):
    """An `ExplicitTable` holding values its constructor refuses (a table
    that is not monotone, say), so the cost-class checks, which read it
    through `table()`, can be shown one to reject."""
    fn = object.__new__(costfn.ExplicitTable)
    object.__setattr__(fn, "values", costfn._Doubles("d", map(float, values)))
    return fn


def random_monotone_table(rng: random.Random, n: int, scale: float = 1.0):
    """Random normalized monotone table: each set gets the max of its
    one-smaller subsets plus a (often zero) nonnegative bump."""
    vals = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        base = max(vals[mask & ~(1 << i)] for i in costfn.bits(mask))
        bump = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.3 * scale)
        vals[mask] = base + bump
    return costfn.ExplicitTable(vals)


def random_submodular_fn(rng: random.Random, n: int, kind: str | None = None):
    kind = kind or rng.choice(["additive", "budget", "coverage", "concave"])
    if kind == "additive":
        return costfn.Additive([rng.uniform(0.0, 0.6) for _ in range(n)])
    if kind == "budget":
        weights = [rng.uniform(0.0, 0.6) for _ in range(n)]
        cap = rng.uniform(0.2, 0.9) * max(sum(weights), 1e-9)
        return costfn.BudgetAdditive(weights, cap)
    if kind == "coverage":
        universe = rng.randint(3, 7)
        covers = [rng.randint(0, (1 << universe) - 1) for _ in range(n)]
        weights = [rng.uniform(0.0, 0.4) for _ in range(universe)]
        return costfn.WeightedCoverage(universe, covers, weights)
    if kind == "concave":
        diffs = sorted((rng.uniform(0.0, 0.4) for _ in range(n)), reverse=True)
        g, cur = [0.0], 0.0
        for d in diffs:
            cur += d
            g.append(cur)
        return costfn.ConcaveCardinality(g)
    raise ValueError(kind)


def _value(rng: random.Random, lo: float = 0.0, hi: float = 1.0) -> float:
    # Half grid values to provoke exact ties at the strict-inequality
    # boundaries of the candidate-set definitions.
    if rng.random() < 0.5:
        return rng.choice([g for g in GRID if lo <= g <= hi])
    return rng.uniform(lo, hi)


def random_instance(rng: random.Random, n: int, fn=None, fn_kind: str = "table"):
    """Random n-action instance with a null action and ties sprinkled in."""
    actions = [Action("bot", 0.0, _value(rng))]
    for idx in range(1, n):
        cost = 0.0 if rng.random() < 0.25 else _value(rng, 0.0, 1.0) * 1.1
        actions.append(Action(f"a{idx}", cost, _value(rng)))
    if fn is None:
        if fn_kind == "table":
            fn = random_monotone_table(rng, n)
        else:
            fn = random_submodular_fn(rng, n)
    return Instance(tuple(actions), "bot", fn)


def scaled_rivals_instance(rng: random.Random, trial: int, lo: int, hi: int):
    """Additive instance whose null action and about half of the 1 + trial % 5
    other actions succeed with probability ~10**-randint(lo, hi), against
    action costs up to 0.2: far below the scale of the rest."""
    tiny = 10.0 ** -rng.randint(lo, hi)
    actions = [Action("bot", 0.0, rng.uniform(0.0, tiny))]
    for idx in range(1, 2 + trial % 5):
        if rng.random() < 0.5:
            prob = rng.uniform(0.3, 1.0)
            actions.append(Action(f"a{idx}", rng.uniform(0.0, 0.3) * prob, prob))
        else:
            actions.append(Action(f"a{idx}", rng.uniform(0.0, 0.2),
                                  tiny * rng.uniform(0.1, 1.0)))
    return Instance(tuple(actions), "bot", costfn.Additive(
        [rng.uniform(0.0, 2.0) for _ in actions]))


def nested_marginal(nd, e) -> float:
    """Probability that a `NestedDistribution` inspects element e."""
    return sum(p for s, p in nd.levels if e in s)


def nested_total_mass(nd) -> float:
    """Mass of a `NestedDistribution`: its levels plus the empty set."""
    return nd.empty_mass + sum(p for _, p in nd.levels)


def nested_support_size(nd) -> int:
    """Number of sets a `NestedDistribution` puts positive mass on."""
    return len(nd.levels) + (1 if nd.empty_mass > 0.0 else 0)


def random_marginals(rng: random.Random, ground):
    return {e: rng.random() for e in ground}


def random_coupling(rng: random.Random, ground, marginals, mass: float):
    """A random feasible coupling of the marginals, via wrap-around arcs.

    Each element occupies a uniformly placed arc of length marginal[e] on a
    circle of circumference `mass`; cutting the circle at all arc endpoints
    yields a distribution over subsets with the exact marginals.
    """
    arcs = {e: rng.uniform(0.0, mass) for e in ground}
    points = {0.0, mass}
    for e in ground:
        s = arcs[e]
        points.add(s)
        points.add((s + marginals[e]) % mass)
    cuts = sorted(points)
    dist = []
    for lo, hi in zip(cuts, cuts[1:]):
        if hi - lo <= 0.0:
            continue
        mid = 0.5 * (lo + hi)
        members = set()
        for e in ground:
            s, q = arcs[e], marginals[e]
            end = s + q
            inside = s <= mid < end or (end > mass and mid < end - mass)
            if inside:
                members.add(e)
        dist.append((frozenset(members), hi - lo))
    return dist


@pytest.fixture
def rng():
    return random.Random(20240601)
