"""Domain model: actions, instances, inspection schemes, and their payoff semantics.

An instance bundles the agent's actions (cost, success probability), a
designated null action of zero cost, and a combinatorial inspection cost
function over action subsets.  An inspection scheme is a suggested action,
a success payment alpha, and a distribution over inspected subsets; the
agent is paid alpha on success unless an inspected subset catches a
deviation (contains the suggested or the taken action).

All types are immutable value objects; the operations are pure functions.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterable

from .costfn import EQ_TOL, SetFunction

MAX_ACTIONS = 30
# Float noise in a utility comparison or an LP pivot ends here; a quantity
# computed two ways is instead held to costfn.EQ_TOL.
DEFAULT_TOL = 1e-9

ActionId = str


class ValidationError(ValueError):
    """Raised when an instance or scheme violates its structural invariants."""


@dataclass(frozen=True, slots=True)
class Action:
    """One of the agent's actions: an id, a cost and a success probability."""

    id: ActionId
    cost: float
    prob: float

    def __post_init__(self):
        if not math.isfinite(self.cost):
            raise ValidationError(f"action {self.id!r}: cost must be finite")
        if self.cost < 0:
            raise ValidationError(f"action {self.id!r}: cost must be nonnegative")
        if not 0.0 <= self.prob <= 1.0:
            raise ValidationError(f"action {self.id!r}: prob must be in [0, 1]")
        # Ids are names shared by every instance that uses them; interning
        # keeps one string per name however many actions carry it.
        if type(self.id) is str:
            object.__setattr__(self, "id", sys.intern(self.id))
        object.__setattr__(self, "cost", float(self.cost))
        object.__setattr__(self, "prob", float(self.prob))


@dataclass(frozen=True, slots=True)
class Instance:
    """Action set with a null action and an attached inspection cost function.

    Action order is significant: the cost function's bitmask bit i refers to
    ``actions[i]``.  An id is found by scanning the at most MAX_ACTIONS
    actions, so an instance holds no index beside them.
    """

    actions: tuple[Action, ...]
    null_id: ActionId
    cost_fn: SetFunction

    def __post_init__(self):
        if not self.actions:
            raise ValidationError("instance needs at least one action")
        if len(self.actions) > MAX_ACTIONS:
            raise ValidationError(f"at most {MAX_ACTIONS} actions supported")
        ids = self.ids
        if len(set(ids)) != len(ids):
            raise ValidationError("action ids must be distinct")
        if self.null_id not in ids:
            raise ValidationError(f"null action {self.null_id!r} not among actions")
        if self.actions[ids.index(self.null_id)].cost != 0.0:
            raise ValidationError("null action must have zero cost")
        if not hasattr(self.cost_fn, "n"):
            raise ValidationError("cost function has no ground-set size n")
        n = self.cost_fn.n
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValidationError(f"cost function ground-set size n must be an int, not {n!r}")
        if n != len(ids):
            raise ValidationError("cost function ground-set size != number of actions")

    @property
    def n(self) -> int:
        return len(self.actions)

    @property
    def ids(self) -> tuple[ActionId, ...]:
        return tuple(a.id for a in self.actions)

    def action(self, j: ActionId) -> Action:
        return self.actions[self.index(j)]

    def f(self, j: ActionId) -> float:
        return self.action(j).prob

    def c(self, j: ActionId) -> float:
        return self.action(j).cost

    def index(self, j: ActionId) -> int:
        for k, a in enumerate(self.actions):
            if a.id == j:
                return k
        raise ValidationError(f"unknown action id {j!r}")

    def mask_of(self, ids: Iterable[ActionId]) -> int:
        mask = 0
        for j in ids:
            mask |= 1 << self.index(j)
        return mask

    def ids_of(self, mask: int) -> frozenset[ActionId]:
        return frozenset(self.actions[i].id for i in range(self.n) if mask & (1 << i))

    def inspection_cost(self, ids: Iterable[ActionId]) -> float:
        return self.cost_fn.value(self.mask_of(ids))

    def with_cost_fn(self, fn: SetFunction) -> "Instance":
        return Instance(self.actions, self.null_id, fn)


@dataclass(frozen=True, slots=True)
class InspectionScheme:
    """Suggested action, payment alpha, and a sparse distribution over subsets.

    `distribution` holds (inspected id-set, probability) pairs; subsets are
    unique and probabilities sum to one within EQ_TOL.  Deterministic
    schemes are the special case of a single subset with probability 1.
    """

    suggested: ActionId
    alpha: float
    distribution: tuple[tuple[frozenset[ActionId], float], ...]

    def __init__(self, suggested: ActionId, alpha: float,
                 distribution: Iterable[tuple[Iterable[ActionId], float]]):
        dist = tuple((frozenset(s), float(p)) for s, p in distribution)
        if not 0.0 <= alpha <= 1.0:
            raise ValidationError("alpha must be in [0, 1]")
        seen = set()
        for s, p in dist:
            if not math.isfinite(p):
                raise ValidationError(f"probability {p} on {sorted(s)} is not finite")
            if p < -EQ_TOL:
                raise ValidationError(f"negative probability {p} on {sorted(s)}")
            if s in seen:
                raise ValidationError(f"duplicate subset {sorted(s)} in distribution")
            seen.add(s)
        total = sum(p for _, p in dist)
        if abs(total - 1.0) > EQ_TOL:
            raise ValidationError(f"probabilities sum to {total}, not 1")
        dist = tuple((s, max(0.0, p)) for s, p in dist)
        object.__setattr__(self, "suggested", suggested)
        object.__setattr__(self, "alpha", float(alpha))
        object.__setattr__(self, "distribution", dist)

    def support(self) -> tuple[frozenset[ActionId], ...]:
        return tuple(s for s, p in self.distribution if p > 0.0)

    def is_deterministic(self) -> bool:
        return sum(1 for _, p in self.distribution if p > 0.0) <= 1


def deterministic_scheme(suggested: ActionId, alpha: float,
                         inspected: Iterable[ActionId]) -> InspectionScheme:
    return InspectionScheme(suggested, alpha, [(frozenset(inspected), 1.0)])


def validate_scheme(inst: Instance, scheme: InspectionScheme) -> None:
    """Check the scheme's subsets and suggested action exist in the instance."""
    inst.action(scheme.suggested)
    for s, _ in scheme.distribution:
        for j in s:
            inst.action(j)


def marginal(scheme: InspectionScheme, j: ActionId) -> float:
    """Total probability of inspecting any subset containing j."""
    return sum(p for s, p in scheme.distribution if j in s)


def _caught_probability(scheme: InspectionScheme, i: ActionId, j: ActionId) -> float:
    """Probability the inspected subset intersects {i, j}, from the support list."""
    return sum(p for s, p in scheme.distribution if i in s or j in s)


def agent_utility(inst: Instance, scheme: InspectionScheme, j: ActionId) -> float:
    return _agent_utility(scheme, inst.action(j))


def _agent_utility(scheme: InspectionScheme, a: Action) -> float:
    if a.id == scheme.suggested:
        return scheme.alpha * a.prob - a.cost
    uncaught = 1.0 - _caught_probability(scheme, scheme.suggested, a.id)
    return scheme.alpha * a.prob * uncaught - a.cost


def principal_utility(inst: Instance, scheme: InspectionScheme, j: ActionId) -> float:
    a = inst.action(j)
    expected_cost = expected_inspection_cost(inst, scheme)
    if j == scheme.suggested:
        return (1.0 - scheme.alpha) * a.prob - expected_cost
    uncaught = 1.0 - _caught_probability(scheme, scheme.suggested, j)
    return (1.0 - scheme.alpha * uncaught) * a.prob - expected_cost


def expected_inspection_cost(inst: Instance, scheme: InspectionScheme) -> float:
    return sum(p * inst.inspection_cost(s) for s, p in scheme.distribution if p > 0.0)


def check_tolerance(tol: float) -> float:
    """Return tol if it is finite and nonnegative; raise ValidationError otherwise."""
    if not tol >= 0:
        raise ValidationError(f"tolerance must be nonnegative, got {tol}")
    if tol == math.inf:
        raise ValidationError(f"tolerance must be finite, got {tol}")
    return tol


def best_responses(inst: Instance, scheme: InspectionScheme,
                   tol: float = DEFAULT_TOL) -> set[ActionId]:
    """All actions whose agent utility is within tol of the maximum."""
    check_tolerance(tol)
    utilities = {a.id: _agent_utility(scheme, a) for a in inst.actions}
    top = max(utilities.values())
    return {j for j, u in utilities.items() if u >= top - tol}


def is_IC(inst: Instance, scheme: InspectionScheme, tol: float = DEFAULT_TOL) -> bool:
    """True iff the suggested action is a best response (ties count as IC)."""
    return scheme.suggested in best_responses(inst, scheme, tol)
