"""Verification reports: named max-norm residuals with pass/fail verdicts,
and the documented default of every tolerance they are judged by."""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType

# The one table of default tolerances, a line per check: a scenario overrides
# them by name under ``checks.tolerances``, and each check's signature
# defaults read the ones it takes.
DEFAULT_TOLERANCES = MappingProxyType({
    "reality": 1e-10,
    "darboux_egoroff": 1e-4,
    "lagrangian": 1e-10, "lagrangian_metric": 1e-10,
    "sphere": 1e-9,
    "partial_invariance": 5e-3, "norm_constancy": 1e-10,
    # finite-difference residual, O(grid spacing^2): tighten for fine grids
    "position_equation": 2e-2,
    "potential": 1e-6,
    "metric_real": 1e-9,
    "lambda_zero": 1e-10, "lambda_zero_derivative": 1e-7,
    "permutability": 1e-9,
})


@dataclass
class CheckResult:
    """One named residual.  ``tolerance=None`` marks an informational entry
    that never counts against the overall verdict."""

    name: str
    residual: float
    tolerance: float | None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool | None:
        if self.tolerance is None:
            return None
        return self.residual < self.tolerance

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "details": self.details,
        }

    def __str__(self):
        if self.tolerance is None:
            return f"[INFO] {self.name}: residual={self.residual:.3e}"
        verdict = "PASS" if self.passed else "FAIL"
        return f"[{verdict}] {self.name}: residual={self.residual:.3e} tol={self.tolerance:.1e}"


@dataclass
class VerificationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, residual, tolerance=None, **details) -> CheckResult:
        result = CheckResult(name, float(residual), tolerance, details)
        self.checks.append(result)
        return result

    def extend(self, other: "VerificationReport", prefix: str = "") -> None:
        for c in other.checks:
            self.checks.append(CheckResult(prefix + c.name, c.residual, c.tolerance, c.details))

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if c.passed is False]

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)
