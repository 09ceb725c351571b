"""Experiment E7 — how much does the tuning rule matter?

The paper derives its PID gains from the Ziegler–Nichols ultimate-gain
experiment with the modified constants ``Kp = 0.33 Kc``, ``Ti = 0.5 Tc``,
``Td = 0.33 Tc``.  This ablation runs the same bulk transfer with gains
derived from the other classical rules (classic ZN PID/PI, Tyreus–Luyben,
no-overshoot) as well as with gains measured by the relay-feedback tuner,
and reports goodput, stalls and how tightly the IFQ tracks the set point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..analysis.tables import Table
from ..campaign.spec import CampaignSpec
from ..control.pid import PIDGains
from ..control.ziegler_nichols import PAPER_RULE, TUNING_RULES, gains_from_ultimate
from ..core.config import DEFAULT_ULTIMATE, RestrictedSlowStartConfig
from ..core.tuning import autotune_gains_fluid
from ..errors import ExperimentError
from ..spec import RunSpec
from ..units import format_rate
from ..workloads.scenarios import PathConfig
from .runner import CampaignResult

__all__ = ["TuningAblationResult", "tuning_ablation_spec", "tuning_ablation_from_campaign",
           "render_tuning_ablation"]

#: Rules compared by default (the paper's rule first).
DEFAULT_RULES = (PAPER_RULE, "zn_classic_pid", "zn_classic_pi", "tyreus_luyben", "no_overshoot")

#: ``autotune_gains_fluid(PathConfig(), rule=PAPER_RULE).gains``, pinned so
#: building the registry's E7 spec runs no tuner (a test keeps it equal).
DEFAULT_RELAY_GAINS = PIDGains(kp=0.8403380995252074, ki=12.527836771036354,
                               kd=0.03720282828688592)


@dataclass
class TuningAblationResult:
    """Per-rule outcome of the tuning ablation."""

    duration: float
    rows: list[dict] = field(default_factory=list)

    def row_for(self, label: str) -> dict:
        for row in self.rows:
            if row["rule"] == label:
                return row
        raise ExperimentError(f"no row for rule {label!r}")

    def best_rule(self) -> str:
        """Rule with the highest goodput among rules with zero stalls.

        Falls back to the overall highest goodput when every rule stalls.
        """
        candidates = [r for r in self.rows if r["send_stalls"] == 0] or self.rows
        return max(candidates, key=lambda r: r["goodput_bps"])["rule"]


def tuning_ablation_spec(
    rules: Sequence[str] = DEFAULT_RULES,
    include_relay_tuned: bool = True,
    duration: float = 12.0,
    config: PathConfig | None = None,
    seed: int = 1,
) -> CampaignSpec:
    """A campaign of one restricted run per rule's gains (all from
    :data:`DEFAULT_ULTIMATE`), then one with gains relay-tuned on ``config``."""
    cfg = config if config is not None else PathConfig()
    gains = []
    for rule in rules:
        if rule not in TUNING_RULES:
            raise ExperimentError(f"unknown tuning rule {rule!r}")
        gains.append(gains_from_ultimate(DEFAULT_ULTIMATE, rule))
    if include_relay_tuned:
        gains.append(DEFAULT_RELAY_GAINS if config is None
                     else autotune_gains_fluid(cfg, rule=PAPER_RULE).gains)
    return CampaignSpec(name="tuning_ablation", units=tuple(
        RunSpec(cc="restricted", config=cfg, duration=duration, seed=seed,
                rss_config=RestrictedSlowStartConfig(gains=g))
        for g in gains))


def tuning_ablation_from_campaign(
    result: CampaignResult,
    rules: Sequence[str] = DEFAULT_RULES,
    include_relay_tuned: bool = True,
) -> TuningAblationResult:
    """Fold an executed :func:`tuning_ablation_spec` campaign (same rules)."""
    labels = [*rules] + (["relay_tuned+" + PAPER_RULE] if include_relay_tuned else [])
    folded = TuningAblationResult(duration=result.runs[0].spec.duration)
    for label, run in zip(labels, result.runs, strict=True):
        tail = run.ifq_occupancy[run.ifq_times > folded.duration / 2.0]
        folded.rows.append({
            "rule": label,
            "goodput_bps": run.flow.goodput_bps,
            "send_stalls": run.flow.send_stalls,
            "utilization": run.link_utilization,
            "ifq_peak": run.ifq_peak,
            "ifq_tail_mean": float(np.mean(tail)) if tail.size else 0.0,
            "setpoint_packets": 0.9 * run.config.ifq_capacity_packets,
        })
    return folded


def render_tuning_ablation(result: TuningAblationResult) -> str:
    """Render the rule-comparison table."""
    table = Table(
        ["tuning rule", "goodput", "utilization", "send stalls", "IFQ peak", "IFQ tail mean"],
        title=f"E7 — tuning-rule ablation ({result.duration:.0f} s runs)",
    )
    for row in result.rows:
        table.add_row(
            row["rule"],
            format_rate(row["goodput_bps"]),
            f"{row['utilization'] * 100:.1f}%",
            row["send_stalls"],
            row["ifq_peak"],
            f"{row['ifq_tail_mean']:.1f}",
        )
    return table.render() + f"\nbest rule (no stalls, highest goodput): {result.best_rule()}"
