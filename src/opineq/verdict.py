"""Three-state outcome record shared by every inequality check."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

PASS = "pass"
FAIL = "fail"
INVALID = "invalid"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a single inequality check.

    ``status`` is ``"pass"`` or ``"fail"`` for a check that ran on a valid
    instance, ``"invalid"`` when a precondition failed (the instance is
    excluded from campaign pass statistics).  ``gap`` is the signed slack of
    the checked inequality: nonnegative means the inequality held with room
    to spare, and a pass is granted down to the tolerance slack recorded in
    ``detail["slack"]``.
    """

    status: str
    gap: float | None = None
    detail: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.gap is not None:
            object.__setattr__(self, "gap", float(self.gap))

    @property
    def passed(self) -> bool:
        return self.status == PASS

    @property
    def invalid(self) -> bool:
        return self.status == INVALID


def invalid(reason: str, **detail: Any) -> Verdict:
    detail["reason"] = reason
    return Verdict(INVALID, None, detail)


def from_gap(gap: float, slack: float, /, **detail: Any) -> Verdict:
    """Pass iff ``gap >= -slack``; the slack is recorded for audit.

    A NaN gap or slack is no counterexample: it gives an invalid verdict.
    """
    if math.isnan(gap) or math.isnan(slack):
        return invalid(f"gap {gap} or slack {slack} is not a number", **detail)
    detail["slack"] = slack
    status = PASS if gap >= -slack else FAIL
    return Verdict(status, gap, detail)


def combine(*verdicts: Verdict) -> Verdict:
    """Merge sub-verdicts: any invalid wins, then any fail; gap/slack track the tightest link."""
    if any(v.invalid for v in verdicts):
        reasons = [v.detail.get("reason", "") for v in verdicts if v.invalid]
        return invalid("; ".join(r for r in reasons if r) or "invalid sub-verdict")
    detail: dict[str, Any] = {"parts": [v.detail for v in verdicts]}
    gapped = [v for v in verdicts if v.gap is not None]
    gap = None
    if gapped:
        worst = min(gapped, key=lambda v: v.gap + v.detail.get("slack", 0.0))
        gap = worst.gap
        if "slack" in worst.detail:
            detail["slack"] = worst.detail["slack"]
    status = PASS if all(v.passed for v in verdicts) else FAIL
    return Verdict(status, gap, detail)
