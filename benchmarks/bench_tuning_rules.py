"""E7 — Ziegler–Nichols tuning-rule ablation.

The paper uses the modified constants Kp=0.33Kc, Ti=0.5Tc, Td=0.33Tc.  This
benchmark replays the workload with the classic ZN PID/PI rules,
Tyreus–Luyben, the no-overshoot variant and relay-feedback-derived gains.
Expected shape: every reasonable rule avoids stalls on the paper path (the
controller's job is easy once the IFQ is sensed at all); the differences show
up in how tightly the queue tracks the set point and in goodput during the
ramp.
"""

from __future__ import annotations

from repro.experiments import render_tuning_ablation
from repro.experiments.tuning_ablation import (
    tuning_ablation_from_campaign,
    tuning_ablation_spec,
)
from repro.spec import execute

from .conftest import emit, scaled


def test_tuning_rule_ablation(bench_once, benchmark):
    spec = tuning_ablation_spec(duration=scaled(12.0), seed=1)
    result = tuning_ablation_from_campaign(bench_once(execute, spec))
    emit(benchmark, render_tuning_ablation(result), best_rule=result.best_rule())
    paper_row = result.row_for("allcock_modified")
    # the paper's rule must be stall-free and near full utilisation
    assert paper_row["send_stalls"] == 0
    assert paper_row["utilization"] > 0.7
    # at least one alternative rule is also viable (sanity of the harness)
    viable = [row for row in result.rows if row["send_stalls"] == 0]
    assert len(viable) >= 2
