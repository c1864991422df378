"""Result records shared by residual checks, scans, and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Report:
    """Outcome of a sampled residual check."""

    op: str
    samples: int
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    worst_point: list[float] | None = None

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "samples": self.samples,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "worst_point": self.worst_point,
        }


@dataclass
class ScanReport:
    """Outcome of a grid scan for strict local maxima of |f| on a slice."""

    grid: list[int]
    strict_maxima: list[list[float]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.strict_maxima

    def to_json(self) -> dict:
        return {
            "grid": self.grid,
            "strict_maxima": self.strict_maxima,
            "pass": self.passed,
        }
