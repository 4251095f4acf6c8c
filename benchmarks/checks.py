"""Output checks, at the acceptance suite's pinned tolerances.

Scheme payoffs are recomputed here from the scheme's raw data (payment,
suggested action, subset distribution) and the instance's raw inputs, so
the IC and utility checks do not lean on `icx.model`, which the timed code
also uses.  Every check returns None when the output passes and a one-line
reason when it does not.
"""

from __future__ import annotations

DET_TOL = 1e-9  # det vs oracle, chain vs LP, utility vs reference
RAND_ORACLE_TOL = 1e-4  # randomized solver vs the LP-grid oracle
IC_TOL = 1e-9
QE_CLASSES = 6  # rotation classes C(13, 11) / 13 at k = 13
QE_MEAN, QE_REL_TOL = 3.5, 0.15  # analytic (classes + 1) / 2


def _mask(inst, ids) -> int:
    index = {a.id: t for t, a in enumerate(inst.actions)}
    mask = 0
    for j in ids:
        mask |= 1 << index[j]
    return mask


def agent_utilities(inst, scheme) -> dict:
    i, alpha = scheme.suggested, scheme.alpha
    out = {}
    for a in inst.actions:
        if a.id == i:
            out[a.id] = alpha * a.prob - a.cost
        else:
            caught = sum(p for s, p in scheme.distribution if i in s or a.id in s)
            out[a.id] = alpha * a.prob * (1.0 - caught) - a.cost
    return out


def principal_utility(inst, scheme) -> float:
    """Principal's utility when the agent takes the suggested action."""
    f = {a.id: a.prob for a in inst.actions}[scheme.suggested]
    cost = sum(p * inst.cost_fn.value(_mask(inst, s))
               for s, p in scheme.distribution if p > 0.0)
    return (1.0 - scheme.alpha) * f - cost


def check_ic(inst, scheme, tol: float = IC_TOL):
    u = agent_utilities(inst, scheme)
    slack = max(u.values()) - u[scheme.suggested]
    if slack > tol:
        return f"scheme not IC: a deviation gains {slack:.3e} > {tol:g}"
    return None


def check_support(inst, scheme):
    size = sum(1 for _, p in scheme.distribution if p > 0.0)
    if size > inst.n + 1:
        return f"support {size} > n+1 = {inst.n + 1}"
    return None


def check_close(label: str, got: float, want: float, tol: float):
    gap = abs(got - want)
    if not gap <= tol:  # also rejects NaN
        return f"{label}: {got!r} vs {want!r}, gap {gap:.3e} > {tol:g}"
    return None


def check_at_least(label: str, got: float, floor: float, tol: float = DET_TOL):
    if not got >= floor - tol:
        return f"{label}: {got!r} below {floor!r} by more than {tol:g}"
    return None


def check_query_budget(queries: int, n: int):
    if queries > n * n:
        return f"{queries} value queries > n^2 = {n * n}"
    return None


def check_exit(code, expected: int):
    if code != expected:
        return f"exit code {code}, expected {expected}"
    return None


def check_query_experiment(doc: dict):
    if doc.get("classes") != QE_CLASSES:
        return f"query-experiment classes {doc.get('classes')}, expected {QE_CLASSES}"
    mean = doc.get("mean_queries")
    if not isinstance(mean, (int, float)) or abs(mean - QE_MEAN) > QE_REL_TOL * QE_MEAN:
        return f"query-experiment mean {mean} outside {QE_MEAN} +- {QE_REL_TOL:.0%}"
    return None


def first_failure(*reasons):
    """The first non-None reason, so a check can chain several conditions."""
    for r in reasons:
        if r is not None:
            return r
    return None
