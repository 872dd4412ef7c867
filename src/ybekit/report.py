"""Structured pass/fail verdicts with witnesses.

Every verification routine returns a CheckReport instead of a bare bool so
that a failing identity can be traced to the first violated instance.
"""

from __future__ import annotations

import json

from .linalg import Frozen


def dumps(obj) -> str:
    """obj as JSON text, byte-deterministic: keys sorted, compact separators.
    The CLI's JSON output (`io_json.dumps`) and the witness in the message
    of a failed structural check both go through it."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class CheckReport(Frozen):
    def __init__(self, name: str, passed: bool, witness=None, details: dict | None = None):
        self.__dict__.update(name=name, passed=passed, witness=witness,
                             details={} if details is None else details)

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        out = {"check": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.details:
            out["details"] = self.details
        return out


def combine(name: str, reports: list[CheckReport], **details) -> CheckReport:
    """Aggregate sub-reports; fails on the first failing sub-report."""
    bad = [r for r in reports if not r.passed]
    det = {"subchecks": [r.to_json() for r in reports]}
    det.update(details)
    return CheckReport(
        name,
        passed=not bad,
        witness=bad[0].to_json() if bad else None,
        details=det,
    )
