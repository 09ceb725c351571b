"""Experiment E9 — multi-flow behaviour and fairness.

The paper evaluates a single flow.  A sender-side slow-start change is only
deployable if it does not hurt competing traffic, so this experiment runs
2–8 concurrent bulk flows over one bottleneck in three mixes:

* all standard (reno) flows — the reference;
* all restricted flows;
* a 50/50 mix — does restricted starve or get starved?

and reports per-mix aggregate utilisation, Jain fairness index and total
send-stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.tables import Table
from ..campaign.spec import CampaignSpec
from ..errors import ExperimentError
from ..spec import MultiFlowSpec, from_bulk_flows
from ..units import format_rate
from ..workloads.bulk import BulkFlowSpec
from ..workloads.scenarios import PathConfig
from .runner import CampaignResult, MultiFlowResult

__all__ = ["FairnessResult", "fairness_spec", "fairness_from_campaign", "render_fairness",
           "flow_mix"]


def flow_mix(n_flows: int, mix: str) -> list[BulkFlowSpec]:
    """Build the flow specs for one mix ("standard", "restricted", "half")."""
    if n_flows < 1:
        raise ExperimentError("n_flows must be >= 1")
    if mix == "standard":
        algos = ["reno"] * n_flows
    elif mix == "restricted":
        algos = ["restricted"] * n_flows
    elif mix == "half":
        algos = ["restricted" if i % 2 == 0 else "reno" for i in range(n_flows)]
    else:
        raise ExperimentError(f"unknown mix {mix!r}")
    # stagger starts slightly so flows do not move in lock-step
    return [BulkFlowSpec(cc=a, start_time=0.05 * i) for i, a in enumerate(algos)]


@dataclass
class FairnessResult:
    """Per-(n_flows, mix) outcomes."""

    duration: float
    rows: list[dict] = field(default_factory=list)
    runs: dict[tuple[int, str], MultiFlowResult] = field(default_factory=dict)

    def row_for(self, n_flows: int, mix: str) -> dict:
        for row in self.rows:
            if row["n_flows"] == n_flows and row["mix"] == mix:
                return row
        raise ExperimentError(f"no row for n_flows={n_flows}, mix={mix!r}")


def fairness_spec(
    flow_counts: Sequence[int] = (2, 4),
    mixes: Sequence[str] = ("standard", "restricted", "half"),
    duration: float = 15.0,
    config: PathConfig | None = None,
    seed: int = 1,
) -> CampaignSpec:
    """A campaign of one dumbbell scenario per (flow count, mix).

    ``with_backend("fluid")`` routes every cell through the N-flow coupled
    fluid model (the fairness fast path; Jain agreement is ±0.05 on the
    cross-validation grid, see ``repro.fluid.validate.cross_validate_fairness``).
    """
    return CampaignSpec(name="fairness", units=tuple(
        MultiFlowSpec(scenario=from_bulk_flows(flow_mix(n_flows, mix), config=config),
                      duration=duration, seed=seed)
        for n_flows in flow_counts for mix in mixes))


def fairness_from_campaign(
    result: CampaignResult,
    flow_counts: Sequence[int] = (2, 4),
    mixes: Sequence[str] = ("standard", "restricted", "half"),
) -> FairnessResult:
    """Fold an executed :func:`fairness_spec` campaign (same grid)."""
    cells = [(n_flows, mix) for n_flows in flow_counts for mix in mixes]
    folded = FairnessResult(duration=result.runs[0].spec.duration)
    for (n_flows, mix), run in zip(cells, result.runs, strict=True):
        folded.runs[(n_flows, mix)] = run
        restricted_goodput = sum(
            f.goodput_bps for f in run.flows if f.algorithm == "restricted"
        )
        standard_goodput = sum(
            f.goodput_bps for f in run.flows if f.algorithm != "restricted"
        )
        folded.rows.append({
            "n_flows": n_flows,
            "mix": mix,
            "aggregate_goodput_bps": run.aggregate_goodput_bps,
            "utilization": run.link_utilization,
            "jain_index": run.jain_index,
            "total_send_stalls": run.total_send_stalls,
            "bottleneck_drops": run.bottleneck_drops,
            "restricted_share": (
                restricted_goodput / run.aggregate_goodput_bps
                if run.aggregate_goodput_bps > 0 and mix == "half" else None
            ),
            "standard_goodput_bps": standard_goodput,
            "restricted_goodput_bps": restricted_goodput,
        })
    return folded


def render_fairness(result: FairnessResult) -> str:
    """Render the fairness/utilisation table."""
    table = Table(
        ["flows", "mix", "aggregate goodput", "utilization", "Jain index",
         "send stalls", "bneck drops", "restricted share"],
        title=f"E9 — multi-flow fairness ({result.duration:.0f} s)",
    )
    for row in result.rows:
        share = row["restricted_share"]
        table.add_row(
            row["n_flows"],
            row["mix"],
            format_rate(row["aggregate_goodput_bps"]),
            f"{row['utilization'] * 100:.1f}%",
            f"{row['jain_index']:.4f}",
            row["total_send_stalls"],
            row["bottleneck_drops"],
            "-" if share is None else f"{share * 100:.1f}%",
        )
    return table.render()
