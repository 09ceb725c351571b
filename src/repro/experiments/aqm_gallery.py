"""Experiment E13 — the AQM + ECN congestion-control gallery.

The paper's controller manages the *sender-side* interface queue; an AQM
manages the *network* queue, and ECN replaces its drops with marks.  This
experiment crosses both axes: each congestion-control algorithm (including
the paper's restricted slow-start and the L4S-grade ``prague``) runs over
each bottleneck queue discipline (drop-tail, RED, CoDel, DualPI2) on the
same dumbbell, and the table reports per-cell goodput, utilisation,
bottleneck drops and CE marks — making the signalling trade visible: on a
marking AQM a well-behaved ECN flow keeps utilisation with (near-)zero
bottleneck drops, where the drop-tail baseline pays for every congestion
signal with lost packets.

Flows negotiate ECN exactly when the cell's discipline can mark
(``droptail`` cells run without ECN, so classic stacks are compared on
their native drop signal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.tables import Table
from ..campaign.spec import CampaignSpec
from ..errors import ExperimentError
from ..spec import MultiFlowSpec, aqm_dumbbell
from ..units import format_rate
from ..workloads.scenarios import PathConfig
from .runner import CampaignResult, MultiFlowResult

__all__ = [
    "GALLERY_DISCIPLINES",
    "GALLERY_CCS",
    "AQMGalleryResult",
    "aqm_gallery_spec",
    "aqm_gallery_grid_spec",
    "aqm_gallery_from_campaign",
    "render_aqm_gallery",
]

#: Bottleneck queue disciplines swept by the gallery, baseline first.
GALLERY_DISCIPLINES: tuple[str, ...] = ("droptail", "red", "codel", "dualpi2")

#: Algorithms swept by the gallery: the paper's controller, the classic
#: references, and the scalable L4S algorithm.
GALLERY_CCS: tuple[str, ...] = ("restricted", "reno", "cubic", "prague")


@dataclass
class AQMGalleryResult:
    """Per-(cc, discipline) outcomes of the gallery sweep."""

    duration: float
    rows: list[dict] = field(default_factory=list)
    runs: dict[tuple[str, str], MultiFlowResult] = field(default_factory=dict)

    def row_for(self, cc: str, discipline: str) -> dict:
        for row in self.rows:
            if row["cc"] == cc and row["discipline"] == discipline:
                return row
        raise ExperimentError(f"no row for cc={cc!r}, discipline={discipline!r}")


def aqm_gallery_spec(cc: str, discipline: str, *,
                     config: PathConfig | None = None,
                     n_flows: int = 2,
                     duration: float = 10.0,
                     seed: int = 1) -> MultiFlowSpec:
    """The declarative spec of one gallery cell.

    ECN is negotiated exactly when the discipline can mark, so every cell
    is ``repro scenario``-expressible and cache-keyed like any other
    multi-flow run.
    """
    ecn = discipline != "droptail"
    # spread flow starts over the first third of the run: simultaneous
    # slow starts compound into one unrecoverable (no-SACK) loss burst,
    # which would measure recovery behaviour rather than the AQM
    spread = duration / 3.0
    starts = [spread * i / max(1, n_flows - 1) for i in range(n_flows)]
    scenario = aqm_dumbbell(
        config, n_flows, discipline=discipline, ecn=ecn, ccs=cc,
        start_times=starts, name=f"aqm_{discipline}_{cc}")
    return MultiFlowSpec(scenario=scenario, duration=duration, seed=seed)


def aqm_gallery_grid_spec(
    ccs: Sequence[str] = GALLERY_CCS,
    disciplines: Sequence[str] = GALLERY_DISCIPLINES,
    n_flows: int = 2,
    duration: float = 10.0,
    config: PathConfig | None = None,
    seed: int = 1,
) -> CampaignSpec:
    """The campaign of every (cc, discipline) cell, cc-major.  Each cell's
    path and flow starts derive from ``config`` and ``duration``."""
    return CampaignSpec(name="aqm_gallery", units=tuple(
        aqm_gallery_spec(cc, discipline, config=config, n_flows=n_flows,
                         duration=duration, seed=seed)
        for cc in ccs for discipline in disciplines))


def aqm_gallery_from_campaign(
    result: CampaignResult,
    ccs: Sequence[str] = GALLERY_CCS,
    disciplines: Sequence[str] = GALLERY_DISCIPLINES,
) -> AQMGalleryResult:
    """Fold an executed :func:`aqm_gallery_grid_spec` campaign (same grid)."""
    cells = [(cc, discipline) for cc in ccs for discipline in disciplines]
    folded = AQMGalleryResult(duration=result.runs[0].spec.duration)
    for (cc, discipline), run in zip(cells, result.runs, strict=True):
        folded.runs[(cc, discipline)] = run
        folded.rows.append({
            "cc": cc,
            "discipline": discipline,
            "ecn": discipline != "droptail",
            "aggregate_goodput_bps": run.aggregate_goodput_bps,
            "utilization": run.link_utilization,
            "jain_index": run.jain_index,
            "bottleneck_drops": run.bottleneck_drops,
            "bottleneck_marks": run.bottleneck_marks,
            "total_send_stalls": run.total_send_stalls,
        })
    return folded


def render_aqm_gallery(result: AQMGalleryResult) -> str:
    """Render the gallery grid as one table."""
    table = Table(
        ["cc", "queue", "ecn", "aggregate goodput", "utilization",
         "Jain index", "bneck drops", "CE marks"],
        title=f"E13 — AQM + ECN gallery ({result.duration:.0f} s)",
    )
    for row in result.rows:
        table.add_row(
            row["cc"],
            row["discipline"],
            "yes" if row["ecn"] else "no",
            format_rate(row["aggregate_goodput_bps"]),
            f"{row['utilization'] * 100:.1f}%",
            f"{row['jain_index']:.4f}",
            row["bottleneck_drops"],
            row["bottleneck_marks"],
        )
    return table.render()
