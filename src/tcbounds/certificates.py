"""Certificate and report records shared by the bound engine.

A disjointness certificate witnesses the hypothesis "every conjugate of
A meets B trivially" for a pair of subgroups.  Each step is either
machine-verified (an executable check that ran and passed) or cited
(a literature fact carried with its citation); the distinction is kept
all the way into rendered reports so nothing overclaims mechanical
verification.
"""

from __future__ import annotations

from .words import SCHEMA, CertificateError, Record


class CertStep(Record):
    description: str
    status: str  # "machine-verified" | "cited"
    citation: str = ""  # required when cited

    def to_json(self) -> dict:
        d = {"description": self.description, "status": self.status}
        if self.citation:
            d["citation"] = self.citation
        return d


class DisjointnessCertificate(Record):
    """Witness that conjugates of A intersect B trivially inside G."""

    variant: str  # "retraction" | "split-extension" | "linking" | "trusted-chain"
    a_label: str
    b_label: str
    steps: tuple[CertStep, ...]  # at least one

    def to_json(self) -> dict:
        return {
            "variant": self.variant,
            "subgroup_a": self.a_label,
            "subgroup_b": self.b_label,
            "steps": [s.to_json() for s in self.steps],
        }


class Provenance(Record):
    rule: str
    value: int

    def to_json(self) -> dict:
        return {"rule": self.rule, "value": self.value}


class BoundReport(Record):
    """An interval for TC with per-bound provenance and certificates."""

    group: str
    lower: int
    upper: int
    lower_provenance: tuple[Provenance, ...]
    upper_provenance: tuple[Provenance, ...]
    certificates: tuple[DisjointnessCertificate, ...] = ()
    notes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise CertificateError(
                f"report for {self.group}: lower bound {self.lower} exceeds upper {self.upper}"
            )

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "group": self.group,
            "tc_lower": self.lower,
            "tc_upper": self.upper,
            "exact": self.exact,
            "lower_provenance": [p.to_json() for p in self.lower_provenance],
            "upper_provenance": [p.to_json() for p in self.upper_provenance],
            "certificates": [c.to_json() for c in self.certificates],
            "notes": list(self.notes),
        }
