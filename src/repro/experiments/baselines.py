"""Experiment E8 — restricted slow-start versus other slow-start fixes.

The paper compares only against stock Linux TCP.  Later work attacked the
same overshoot problem without host sensing — Limited Slow-Start (RFC 3742)
caps the per-RTT growth, HyStart exits slow-start on rising delay, and CUBIC
changes congestion avoidance but keeps the exponential slow-start.  This
experiment runs the paper's workload under all of them so the benchmark
suite can show where IFQ-aware control helps beyond those schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.tables import Table
from ..errors import ExperimentError
from ..spec import ComparisonSpec, RunSpec
from ..units import format_rate
from ..workloads.scenarios import PathConfig
from .runner import ComparisonResult

__all__ = ["BaselineComparisonResult", "baselines_spec", "baselines_from_comparison",
           "render_baselines"]

#: Algorithms included by default (the registry names).
DEFAULT_BASELINES = ("reno", "newreno", "limited_slow_start", "hystart", "cubic", "restricted")


@dataclass
class BaselineComparisonResult:
    """Per-algorithm outcome on the paper's workload."""

    duration: float
    rows: list[dict] = field(default_factory=list)

    def row_for(self, algorithm: str) -> dict:
        for row in self.rows:
            if row["algorithm"] == algorithm:
                return row
        raise ExperimentError(f"no row for algorithm {algorithm!r}")

    def ranking(self) -> list[str]:
        """Algorithms ordered by goodput (best first)."""
        return [r["algorithm"] for r in sorted(self.rows, key=lambda r: -r["goodput_bps"])]


def baselines_spec(
    algorithms: Sequence[str] = DEFAULT_BASELINES,
    duration: float = 15.0,
    config: PathConfig | None = None,
    seed: int = 1,
) -> ComparisonSpec:
    """The paper's single-flow workload under each algorithm."""
    return ComparisonSpec(
        base=RunSpec(config=config if config is not None else PathConfig(),
                     duration=duration, seed=seed),
        algorithms=tuple(algorithms), baseline=algorithms[0])


def baselines_from_comparison(comparison: ComparisonResult) -> BaselineComparisonResult:
    """Fold an executed :func:`baselines_spec` comparison into its rows."""
    result = BaselineComparisonResult(duration=comparison.spec.base.duration)
    for algo, run in comparison.runs.items():
        result.rows.append({
            "algorithm": algo,
            "goodput_bps": run.flow.goodput_bps,
            "utilization": run.link_utilization,
            "send_stalls": run.flow.send_stalls,
            "congestion_signals": run.flow.congestion_signals,
            "retrans": run.flow.pkts_retrans,
            "max_cwnd_segments": run.flow.max_cwnd_bytes / run.config.mss,
        })
    return result


def render_baselines(result: BaselineComparisonResult) -> str:
    """Render the slow-start-variant comparison table."""
    table = Table(
        ["algorithm", "goodput", "utilization", "send stalls", "cong. signals", "retrans"],
        title=f"E8 — slow-start variants on the ANL-LBNL path ({result.duration:.0f} s)",
    )
    for row in result.rows:
        table.add_row(
            row["algorithm"],
            format_rate(row["goodput_bps"]),
            f"{row['utilization'] * 100:.1f}%",
            row["send_stalls"],
            row["congestion_signals"],
            row["retrans"],
        )
    return table.render() + "\nranking (by goodput): " + " > ".join(result.ranking())
