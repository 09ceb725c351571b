"""Experiment E1 — the paper's Figure 1.

"Figure 1 compares the cumulative send-stall signals over time in modified
TCP with that of the standard Linux TCP" over a 25-second bulk transfer on
the 100 Mbit/s, 60 ms ANL–LBNL path.  The paper's plot shows the standard
stack accumulating a handful of stalls during the transfer while the
proposed scheme stays at (essentially) zero.

``execute(figure1_spec(...))`` reruns that workload for both algorithms
with the same seed; :func:`figure1_from_comparison` folds the paired runs
into, per algorithm, the cumulative-stall time series (the figure's curves)
plus the totals; :func:`render_figure1` prints the series in the same rows
the paper plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..spec import ComparisonSpec, RunSpec
from ..workloads.scenarios import PathConfig
from .report import cumulative_stall_series, render_series
from .runner import ComparisonResult, SingleFlowResult

__all__ = ["Figure1Result", "figure1_spec", "figure1_from_comparison",
           "render_figure1"]

#: Algorithm labels used in the figure (paper's legend: "Standard TCP" /
#: "Proposed Scheme").
STANDARD = "reno"
PROPOSED = "restricted"


@dataclass
class Figure1Result:
    """Curves and totals behind Figure 1."""

    duration: float
    sample_interval: float
    times: np.ndarray
    standard_cumulative_stalls: np.ndarray
    proposed_cumulative_stalls: np.ndarray
    standard_run: SingleFlowResult
    proposed_run: SingleFlowResult

    @property
    def standard_total(self) -> int:
        return self.standard_run.send_stalls

    @property
    def proposed_total(self) -> int:
        return self.proposed_run.send_stalls

    def shape_holds(self) -> bool:
        """The paper's qualitative claim: the proposed scheme stalls less."""
        return self.proposed_total < self.standard_total or (
            self.proposed_total == 0 and self.standard_total == 0
        )


def figure1_spec(
    duration: float = 25.0,
    config: PathConfig | None = None,
    seed: int = 1,
    backend: str = "packet",
) -> ComparisonSpec:
    """The declarative spec behind Figure 1 (standard vs proposed, paired)."""
    base = RunSpec(cc=STANDARD,
                   config=config if config is not None else PathConfig(),
                   duration=duration, seed=seed, backend=backend)
    return ComparisonSpec(base=base, algorithms=(STANDARD, PROPOSED),
                          baseline=STANDARD)


def figure1_from_comparison(
    comparison: ComparisonResult, sample_interval: float = 1.0
) -> Figure1Result:
    """Fold an executed Figure-1 comparison into the figure's curves."""
    standard = comparison.runs[STANDARD]
    proposed = comparison.runs[PROPOSED]
    times, std_series = cumulative_stall_series(standard, sample_interval)
    _, prop_series = cumulative_stall_series(proposed, sample_interval)
    n = min(len(std_series), len(prop_series), len(times))
    duration = (comparison.spec.base.duration if comparison.spec is not None
                else standard.duration)
    return Figure1Result(
        duration=duration,
        sample_interval=sample_interval,
        times=times[:n],
        standard_cumulative_stalls=std_series[:n],
        proposed_cumulative_stalls=prop_series[:n],
        standard_run=standard,
        proposed_run=proposed,
    )


def render_figure1(result: Figure1Result) -> str:
    """Print the two curves of Figure 1 as text series."""
    lines = [
        "Figure 1 — cumulative send-stall signals over time "
        f"({result.duration:.0f} s bulk transfer)",
        render_series("standard Linux TCP ", result.times, result.standard_cumulative_stalls),
        render_series("restricted slowstart", result.times, result.proposed_cumulative_stalls),
        f"totals: standard={result.standard_total}  proposed={result.proposed_total}  "
        f"(paper: standard accumulates several stalls, proposed stays near zero)",
    ]
    return "\n".join(lines)
