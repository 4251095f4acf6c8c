"""Solve reports: the structured output of every solver run.

Reports are deterministic for fixed inputs: no timestamps unless timing is
explicitly requested, dict keys sorted on serialization, and the instance
digest derived from the canonical JSON form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import serialization
from .costfn import uncounted
from .model import InspectionScheme, Instance, expected_inspection_cost

__version__ = "0.1.0"


@dataclass(slots=True)
class SolveReport:
    mode: str
    digest: Optional[str]
    scheme: InspectionScheme
    utility: float
    payment: float
    inspection_cost: float
    provenance: dict
    warnings: tuple[str, ...] = ()
    query_counts: Optional[dict] = None
    version: str = __version__
    wall_clock_sec: Optional[float] = None

    def to_dict(self) -> dict:
        doc = {
            "mode": self.mode,
            "instance_digest": self.digest,
            "scheme": serialization.scheme_to_json(self.scheme),
            "utility": self.utility,
            "payment": self.payment,
            "inspection_cost": self.inspection_cost,
            "provenance": self.provenance,
            "warnings": list(self.warnings),
            "version": self.version,
        }
        if self.query_counts is not None:
            doc["query_counts"] = self.query_counts
        if self.wall_clock_sec is not None:
            doc["wall_clock_sec"] = self.wall_clock_sec
        return doc


def compute_digest(inst: Instance) -> Optional[str]:
    """Digest of the instance's canonical JSON; None when not serializable."""
    fn = uncounted(inst.cost_fn)
    if fn is not inst.cost_fn:
        inst = inst.with_cost_fn(fn)
    try:
        return serialization.instance_digest(serialization.instance_to_json(inst))
    except serialization.ParseError:
        return None


def build_report(inst: Instance, mode: str, scheme: InspectionScheme,
                 provenance: dict, warnings: tuple[str, ...] = ()) -> SolveReport:
    payment = scheme.alpha * inst.f(scheme.suggested)
    cost = expected_inspection_cost(inst, scheme)
    return SolveReport(
        mode=mode,
        digest=compute_digest(inst),
        scheme=scheme,
        utility=inst.f(scheme.suggested) - payment - cost,
        payment=payment,
        inspection_cost=cost,
        provenance=provenance,
        warnings=warnings,
    )
