"""Experiment E2 — the paper's headline throughput number.

Section 4: "Preliminary results show that our scheme is able to achieve 40%
improvement in throughput compared to the standard TCP" on the 100 Mbit/s,
60 ms-RTT ANL–LBNL path.

``execute(throughput_spec(...))`` reruns the paired bulk transfer;
:func:`throughput_from_comparison` reports goodput for standard TCP and
restricted slow-start plus the relative improvement; :func:`render_throughput`
prints the table the paper's text summarises.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.metrics import improvement_percent
from ..spec import ComparisonSpec, RunSpec
from ..workloads.scenarios import PathConfig
from .report import comparison_table
from .runner import ComparisonResult

__all__ = ["ThroughputResult", "throughput_spec", "throughput_from_comparison",
           "render_throughput"]

#: Improvement the paper reports (percent).
PAPER_IMPROVEMENT_PERCENT = 40.0


@dataclass
class ThroughputResult:
    """Headline throughput comparison."""

    comparison: ComparisonResult
    duration: float

    @property
    def standard_goodput_bps(self) -> float:
        return self.comparison.runs["reno"].goodput_bps

    @property
    def restricted_goodput_bps(self) -> float:
        return self.comparison.runs["restricted"].goodput_bps

    @property
    def improvement_percent(self) -> float:
        return improvement_percent(self.standard_goodput_bps, self.restricted_goodput_bps)

    def shape_holds(self) -> bool:
        """The paper's claim: restricted slow-start wins by a large margin."""
        return self.restricted_goodput_bps > self.standard_goodput_bps


def throughput_spec(
    duration: float = 25.0,
    config: PathConfig | None = None,
    seed: int = 1,
    backend: str = "packet",
) -> ComparisonSpec:
    """The declarative spec behind the headline throughput comparison."""
    base = RunSpec(cc="reno",
                   config=config if config is not None else PathConfig(),
                   duration=duration, seed=seed, backend=backend)
    return ComparisonSpec(base=base, algorithms=("reno", "restricted"),
                          baseline="reno")


def throughput_from_comparison(comparison: ComparisonResult) -> ThroughputResult:
    """Fold an executed comparison into the headline result."""
    duration = (comparison.spec.base.duration if comparison.spec is not None
                else comparison.runs["reno"].duration)
    return ThroughputResult(comparison=comparison, duration=duration)


def render_throughput(result: ThroughputResult) -> str:
    """Render the headline table plus the paper-vs-measured improvement."""
    table = comparison_table(
        result.comparison,
        title=f"Section 4 headline — {result.duration:.0f} s bulk transfer on the ANL-LBNL path",
    )
    lines = [
        table.render(),
        "",
        f"measured improvement: {result.improvement_percent:+.1f}%   "
        f"(paper reports ~{PAPER_IMPROVEMENT_PERCENT:.0f}% improvement)",
    ]
    return "\n".join(lines)
