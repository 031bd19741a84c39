"""Verification reports: per-axiom counts plus full witnesses for failures."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MAX_WITNESSES = 100


@dataclass
class Witness:
    axiom: str
    context: tuple
    detail: str
    lhs: object = None
    rhs: object = None

    def to_json_dict(self):
        def conv(v):
            if v is None:
                return None
            if hasattr(v, "tolist"):
                return v.tolist()
            return v

        return {
            "axiom": self.axiom,
            "context": [str(c) for c in self.context],
            "detail": self.detail,
            "lhs": conv(self.lhs),
            "rhs": conv(self.rhs),
        }


@dataclass
class AxiomReport:
    """Counts of checks per axiom id and witnesses for every failure
    (witness storage is capped; the failure count is not).  `modes` names,
    for the axioms that set one, how they were checked: "exhaustive" or a
    named reduction such as "classes"."""

    title: str
    counts: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    modes: dict = field(default_factory=dict)

    def record(self, axiom, ok, context=(), detail="", lhs=None, rhs=None):
        checked, failed = self.counts.get(axiom, (0, 0))
        self.counts[axiom] = (checked + 1, failed + (0 if ok else 1))
        if not ok and len(self.witnesses) < MAX_WITNESSES:
            self.witnesses.append(
                Witness(axiom=axiom, context=tuple(context), detail=detail, lhs=lhs, rhs=rhs)
            )

    def record_all(self, axiom, ok, context, detail=""):
        """Count len(ok) checks at once; context(i) gives the context of the
        i-th check and is called only for failures, in increasing i."""
        ok = np.asarray(ok, dtype=bool)
        bad = np.flatnonzero(~ok)
        checked, failed = self.counts.get(axiom, (0, 0))
        self.counts[axiom] = (checked + ok.size, failed + bad.size)
        for i in bad[: MAX_WITNESSES - len(self.witnesses)]:
            self.witnesses.append(
                Witness(axiom=axiom, context=tuple(context(int(i))), detail=detail)
            )

    @property
    def failures(self) -> int:
        return sum(f for _, f in self.counts.values())

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def axiom_rows(self):
        rows = []
        for axiom, (c, f) in sorted(self.counts.items()):
            row = {"id": axiom, "checked": c, "failed": f}
            if axiom in self.modes:
                row["mode"] = self.modes[axiom]
            rows.append(row)
        return rows

    def to_json_dict(self):
        return {
            "family": self.title,
            "axioms": self.axiom_rows(),
            "witnesses": [w.to_json_dict() for w in self.witnesses],
        }

    def summary(self) -> str:
        rows = ", ".join(
            f"{a}:{c}/{f}" for a, (c, f) in sorted(self.counts.items())
        )
        return f"{self.title}: checked/failed {rows}"
