"""Exact optimal deterministic IC inspection scheme for monotone inspection costs.

The search space collapses to a quadratic candidate list: the zero-payment
scheme on the best free action, and, for each action i worth incentivizing
(f(i) > c(i) > 0), the self-inspection scheme at the break-even payment
c(i)/f(i) plus schemes at each critical payment where the agent becomes
indifferent between i and a cheaper action j.  At each candidate payment the
inspected set is forced: exactly the actions the agent would strictly prefer
if left uninspected.

Set membership uses strict inequalities on the input values.  Since every
binary float is an exact rational, the comparisons are done exactly, on
integers over one common denominator: no tolerance, no boundary ambiguity.
The solver works on action indices and bitmasks; ids appear only in the
candidates it returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from .costfn import EQ_TOL
from .model import (ActionId, InspectionScheme, Instance, deterministic_scheme,
                    is_IC)


@dataclass(frozen=True)
class DetCandidate:
    """One enumerated deterministic scheme with its principal utility."""

    suggested: ActionId
    alpha: float
    inspected: frozenset[ActionId]
    utility: float
    provenance: str  # "zero_cost" | "self_inspect" | "full_set" | "pair_set:<j>"

    def scheme(self) -> InspectionScheme:
        return deterministic_scheme(self.suggested, self.alpha, self.inspected)


def _scaled(inst: Instance) -> list[tuple[int, int]]:
    """Every action's (cost, prob) as integers over one common denominator.

    A binary float is m / 2^e exactly, so scaling all of them by the largest
    2^e gives integers with the same ratios.  Each is settled once per solve;
    a ratio of differences of them is then compared with another by
    cross-multiplying, with no rounding anywhere.
    """
    ratios = [(a.cost.as_integer_ratio(), a.prob.as_integer_ratio()) for a in inst.actions]
    den = max(d for pair in ratios for _, d in pair)
    return [(nc * (den // dc), nf * (den // df)) for (nc, dc), (nf, df) in ratios]


def _suggestion_sets(scaled: list[tuple[int, int]], i: int):
    """The inspection sets attached to action i's candidate payments; f(i) > c(i) > 0.

    A_i holds the lower-f actions whose critical payment crit(i, j) exceeds
    the break-even payment c(i)/f(i); S_i is what must be inspected at
    payment c(i)/f(i); S_ij what must be inspected at crit(i, j) for j in
    A_i.  Returns (S_i, pairs) with S_i a bitmask and pairs = [(j, p, q,
    S_ij)] for j in A_i in ascending index order, where crit(i, j) = p / q
    with q > 0 and S_ij is a bitmask.
    """
    ci, fi = scaled[i]
    s_mask = 0
    rivals = []  # (j, p, q) for j in A_i
    higher = []  # (bit, c(h) - c(i), f(h) - f(i)) for h != i with f(h) >= f(i)
    for k, (ck, fk) in enumerate(scaled):
        if k == i:
            continue
        # At the break-even payment c(i)/f(i), an uninspected k pays the
        # agent strictly more than i exactly when c(k) f(i) < c(i) f(k).
        if ck * fi < ci * fk:
            s_mask |= 1 << k
            if fk < fi:
                rivals.append((k, ci - ck, fi - fk))
        if fk >= fi:
            higher.append((1 << k, ck - ci, fk - fi))
    pairs = []
    for j, p, q in rivals:
        mask = 0
        for k, pk, qk in rivals:
            if pk * q > p * qk:  # crit(i, k) > crit(i, j)
                mask |= 1 << k
        for bit, dc, df in higher:
            if p * df > dc * q:  # crit(i, j) (f(h) - f(i)) > c(h) - c(i)
                mask |= bit
        pairs.append((j, p, q, mask))
    return s_mask, pairs


def solve_deterministic(inst: Instance):
    """Enumerate all candidate deterministic schemes and return the best.

    Returns (best, candidates).  The best candidate is re-checked IC; a
    failure indicates a solver bug and raises.  Issues at most n^2 value
    queries (one per distinct inspected set per suggestion, via a per-solve
    memo).
    """
    actions, ids = inst.actions, inst.ids
    value = inst.cost_fn.value
    memo: dict[int, float] = {0: 0.0}
    id_sets: dict[int, frozenset[ActionId]] = {0: frozenset()}
    candidates: list[DetCandidate] = []
    keys = []  # the ranking key of each candidate, in the same order

    def add(i: int, alpha: float, mask: int, provenance: str) -> None:
        if mask not in memo:
            memo[mask] = value(mask)
            id_sets[mask] = inst.ids_of(mask)
        utility = (1.0 - alpha) * actions[i].prob - memo[mask]
        candidates.append(DetCandidate(ids[i], alpha, id_sets[mask],
                                       utility, provenance))
        keys.append((utility, -mask.bit_count(), -alpha, -i))

    free_prob, neg_k = max((a.prob, -k) for k, a in enumerate(actions) if a.cost == 0.0)
    candidates.append(DetCandidate(ids[-neg_k], 0.0, frozenset(), free_prob, "zero_cost"))
    keys.append((free_prob, 0, -0.0, neg_k))

    scaled = _scaled(inst)
    for i, a in enumerate(actions):
        if not a.prob > a.cost > 0.0:
            continue
        s_mask, pairs = _suggestion_sets(scaled, i)
        ci, fi = scaled[i]
        alpha0 = ci / fi  # int / int rounds the exact ratio correctly
        add(i, alpha0, 1 << i, "self_inspect")
        add(i, alpha0, s_mask, "full_set")
        for j, p, q, mask in pairs:
            if p > q:
                # crit > 1: no valid payment can leave j uninspected; the
                # schemes this candidate would dominate do not exist.
                continue
            add(i, p / q, mask, f"pair_set:{ids[j]}")

    best = candidates[max(range(len(keys)), key=keys.__getitem__)]
    if not is_IC(inst, best.scheme(), EQ_TOL):
        raise AssertionError(
            f"solver bug: returned candidate {best} fails the IC check")
    return best, candidates
