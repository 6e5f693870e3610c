"""Small shared result container for the verification suites."""

from __future__ import annotations

from dataclasses import dataclass, field


def require_non_negative(**counts) -> None:
    """Raise ValueError for the first negative count: a window or sample set
    it sizes would be empty, and every check over it would pass vacuously."""
    for name, value in counts.items():
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass
class NumericReport:
    """Accumulates named pass/fail checks plus optional measured values.

    Exact suites push boolean checks; numerical suites also push residuals
    through `measure` so the worst observed error lands in the summary.
    A check row may carry its residual so JSON output preserves how close
    the test came, not just the verdict.
    """

    name: str
    checks: list = field(default_factory=list)
    measurements: dict = field(default_factory=dict)

    def check(self, label: str, ok: bool, detail: str | None = None, residual=None):
        self.checks.append((label, bool(ok), detail, residual))
        return ok

    def measure(self, label: str, value):
        self.measurements[label] = value
        return value

    @property
    def passed(self) -> bool:
        return all(row[1] for row in self.checks)

    def failures(self):
        return [(row[0], row[2]) for row in self.checks if not row[1]]

    def summary(self) -> str:
        n_ok = sum(1 for row in self.checks if row[1])
        lines = [f"{self.name}: {n_ok}/{len(self.checks)} checks passed"]
        for label, ok, detail, residual in self.checks:
            if ok:
                continue
            parts = [f"  FAIL {label}"]
            if detail:
                parts.append(f": {detail}")
            if residual is not None:
                parts.append(f" (residual={residual})")
            lines.append("".join(parts))
        for label, value in self.measurements.items():
            lines.append(f"  {label} = {value}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        rows = []
        for label, ok, detail, residual in self.checks:
            row = {"check": label, "passed": ok}
            if detail:
                row["detail"] = detail
            if residual is not None:
                row["residual"] = str(residual)
            rows.append(row)
        return {
            "name": self.name,
            "passed": self.passed,
            "n_checks": len(self.checks),
            "checks": rows,
            "failures": [
                {"label": label, "detail": detail} for label, detail in self.failures()
            ],
            "measurements": {k: str(v) for k, v in sorted(self.measurements.items())},
        }
