"""Seeded instance generators owned by the benchmark.

They are modelled on the test suite's generators but live here, so an edit
to the tests cannot shift the benchmark's load.  Every generator takes a
`random.Random` and draws from it alone: the same seed gives the same
instances.

Two families:

* general-position submodular instances (`rand-scale`, `cli-mixed`):
  distinct success probabilities and costs, no zero-cost action besides the
  null action, and exactly half of the other actions worth incentivising
  (f > c).  Fixing that half and stratifying f keeps the solve time of one
  size class tight, so a run's medians do not hinge on a few lucky draws;
* a ties-and-zero-cost battery (`verify-small`): values snapped to a 1/8
  grid half of the time and a quarter of the actions free, which provokes
  the strict-inequality boundaries the exact solvers must get right.
"""

from __future__ import annotations

import random

from icx import costfn
from icx.model import Action, Instance

SUBMODULAR_TYPES = ("additive", "budget_additive", "coverage", "concave_cardinality")
GRID = tuple(i / 8.0 for i in range(9))


def cost_type(fn) -> str:
    """The JSON type name of a cost function, as `serialization` spells it."""
    return {
        costfn.Additive: "additive",
        costfn.BudgetAdditive: "budget_additive",
        costfn.WeightedCoverage: "coverage",
        costfn.ConcaveCardinality: "concave_cardinality",
        costfn.ExplicitTable: "table",
    }.get(type(fn), type(fn).__name__)


def submodular_fn(rng: random.Random, n: int, kind: str, scale: float = 0.3):
    if kind == "additive":
        return costfn.Additive([rng.uniform(0.01, scale) for _ in range(n)])
    if kind == "budget_additive":
        weights = [rng.uniform(0.01, scale) for _ in range(n)]
        return costfn.BudgetAdditive(weights, rng.uniform(0.3, 0.8) * sum(weights))
    if kind == "coverage":
        universe = 12
        covers = [rng.randint(1, (1 << universe) - 1) for _ in range(n)]
        weights = [rng.uniform(0.01, 2 * scale / 3) for _ in range(universe)]
        return costfn.WeightedCoverage(universe, covers, weights)
    if kind == "concave_cardinality":
        diffs = sorted((rng.uniform(0.01, scale) for _ in range(n)), reverse=True)
        g = [0.0]
        for d in diffs:
            g.append(g[-1] + d)
        return costfn.ConcaveCardinality(g)
    raise ValueError(f"unknown submodular type {kind!r}")


def _stratified(rng: random.Random, m: int, lo: float, hi: float) -> list[float]:
    """m draws, one uniform in each of m equal slices of [lo, hi), shuffled."""
    xs = [lo + (hi - lo) * (t + rng.random()) / m for t in range(m)]
    rng.shuffle(xs)
    return xs


def general_position_instance(rng: random.Random, n: int, kind: str) -> Instance:
    """n actions: a null action and n-1 others, half of them eligible (f > c > 0)."""
    m = n - 1
    probs = _stratified(rng, m, 0.1, 1.0)
    eligible = set(rng.sample(range(m), m // 2))
    ratios = _stratified(rng, len(eligible), 0.1, 0.8)
    actions = [Action("bot", 0.0, rng.uniform(0.0, 0.1))]
    for t, f in enumerate(probs):
        ratio = ratios.pop() if t in eligible else rng.uniform(1.05, 1.5)
        actions.append(Action(f"a{t + 1}", f * ratio, f))
    return Instance(tuple(actions), "bot", submodular_fn(rng, n, kind))


def is_general_position(inst: Instance) -> bool:
    """Distinct probabilities and costs, and only the null action free."""
    others = [a for a in inst.actions if a.id != inst.null_id]
    probs = [a.prob for a in inst.actions]
    costs = [a.cost for a in others]
    return (len(set(probs)) == len(probs) and len(set(costs)) == len(costs)
            and all(c > 0.0 for c in costs))


def eligible_count(inst: Instance) -> int:
    """Actions worth incentivising: f > c > 0, the ones a solver searches over."""
    return sum(1 for a in inst.actions if a.prob > a.cost > 0.0)


# ---------------------------------------------------------------------------
# Ties and zero-cost battery
# ---------------------------------------------------------------------------


def _tied_value(rng: random.Random, lo: float = 0.0, hi: float = 1.0) -> float:
    if rng.random() < 0.5:
        return rng.choice([g for g in GRID if lo <= g <= hi])
    return rng.uniform(lo, hi)


def monotone_table(rng: random.Random, n: int) -> costfn.ExplicitTable:
    """Normalized monotone table; a third of the sets add nothing (ties)."""
    vals = [0.0] * (1 << n)
    for mask in range(1, 1 << n):
        base = max(vals[mask & ~(1 << i)] for i in costfn.bits(mask))
        vals[mask] = base + (0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.3))
    return costfn.ExplicitTable(vals)


def tied_submodular_fn(rng: random.Random, n: int):
    kind = rng.choice(SUBMODULAR_TYPES)
    if kind == "coverage":
        universe = rng.randint(3, 7)
        covers = [rng.randint(0, (1 << universe) - 1) for _ in range(n)]
        weights = [rng.uniform(0.0, 0.4) for _ in range(universe)]
        return costfn.WeightedCoverage(universe, covers, weights)
    return submodular_fn(rng, n, kind, scale=0.6)


def tied_instance(rng: random.Random, n: int, fn) -> Instance:
    """Null action plus n-1 actions with grid ties and a quarter of them free."""
    actions = [Action("bot", 0.0, _tied_value(rng))]
    for idx in range(1, n):
        cost = 0.0 if rng.random() < 0.25 else _tied_value(rng) * 1.1
        actions.append(Action(f"a{idx}", cost, _tied_value(rng)))
    return Instance(tuple(actions), "bot", fn)


def marginal_profile(rng: random.Random, g: int):
    """Ground set, marginals with grid ties, and a mass covering the largest."""
    ground = [f"e{t}" for t in range(g)]
    marginals = {e: _tied_value(rng) for e in ground}
    top = max(marginals.values())
    return ground, marginals, top + rng.uniform(0.0, 1.0 - top)
