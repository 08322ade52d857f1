"""``Check``, the one check type: a measured value held against a tolerance.

The acceptance battery and every CLI report emit their checks through
``Check.as_json``.  This module imports nothing from the package, so a
CLI process can build its checks without loading the battery.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Check:
    """One measured quantity held against one tolerance."""

    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    @classmethod
    def below(cls, name: str, measured: float, tolerance: float, detail: str = "") -> "Check":
        return cls(name, measured < tolerance, float(measured), float(tolerance), detail)

    @classmethod
    def above(cls, name: str, measured: float, threshold: float, detail: str = "") -> "Check":
        return cls(name, measured > threshold, float(measured), float(threshold), detail)

    @classmethod
    def within(cls, name: str, measured: float, high: float, tol: float) -> "Check":
        """``-tol <= measured <= high + tol``, reported against ``high``."""
        return cls(name, -tol <= measured <= high + tol, float(measured), float(high))

    def as_json(self) -> dict:
        """The report form; ``detail`` appears only when it is set."""
        out = {
            "name": self.name,
            "passed": bool(self.passed),
            "measured": self.measured,
            "tolerance": self.tolerance,
        }
        if self.detail:
            out["detail"] = self.detail
        return out
