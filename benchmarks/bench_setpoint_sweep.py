"""E6 — controller set-point sweep (the paper fixes 90% of the IFQ).

Expected shape: conservative set points (0.5–0.7) waste a little throughput
headroom but never stall; the paper's 0.9 keeps full throughput with zero
stalls; pushing the set point to 1.0 removes the safety margin and stalls
reappear.
"""

from __future__ import annotations

from repro.experiments import render_sweep
from repro.experiments.sweeps import setpoint_sweep_spec
from repro.spec import execute

from .conftest import emit, scaled


def test_setpoint_sweep(bench_once, benchmark):
    spec = setpoint_sweep_spec(setpoints=(0.5, 0.7, 0.9, 1.0),
                               duration=scaled(10.0), seed=1)
    result = bench_once(execute, spec, max_workers=None)
    emit(benchmark, render_sweep(result))
    paper_point = result.row_for(0.9)
    # the paper's operating point: no stalls and high utilisation
    assert paper_point["restricted_send_stalls"] == 0
    assert paper_point["restricted_utilization"] > 0.7
    # lower set points also avoid stalls (they are simply more conservative)
    assert result.row_for(0.5)["restricted_send_stalls"] == 0
    assert result.row_for(0.5)["restricted_goodput_bps"] <= \
        paper_point["restricted_goodput_bps"] * 1.02
