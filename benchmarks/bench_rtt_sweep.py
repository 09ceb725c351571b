"""E4 — round-trip-time sweep.

Expected shape: the advantage of restricted slow-start grows with the RTT
(larger BDP relative to the fixed 100-packet IFQ, and slower linear recovery
after a stall-induced window collapse).
"""

from __future__ import annotations

from repro.experiments import render_sweep
from repro.experiments.sweeps import rtt_sweep_spec
from repro.spec import execute

from .conftest import emit, scaled


def test_rtt_sweep(bench_once, benchmark):
    spec = rtt_sweep_spec(rtts=(0.010, 0.030, 0.060, 0.120),
                          duration=scaled(10.0), seed=1)
    result = bench_once(execute, spec, max_workers=None)
    emit(benchmark, render_sweep(result))
    short = result.row_for(0.010)
    paper = result.row_for(0.060)
    long = result.row_for(0.120)
    # restricted never stalls at any RTT
    assert all(row["restricted_send_stalls"] == 0 for row in result.rows)
    # the win at the paper's operating point (and beyond) is substantial,
    # and larger than on a short-RTT path where recovery is cheap
    assert paper["improvement_percent"] > 15.0
    assert long["improvement_percent"] > short["improvement_percent"]
