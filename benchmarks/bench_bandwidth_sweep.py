"""E5 — bottleneck bandwidth sweep.

Expected shape: at low rates (BDP smaller than the IFQ) standard slow-start
never overruns the interface queue and both algorithms perform the same; as
the rate grows past ~25 Mbit/s the BDP exceeds ``txqueuelen`` and standard
TCP starts stalling, opening the gap the paper reports at 100 Mbit/s.
"""

from __future__ import annotations

from repro.experiments import render_sweep
from repro.experiments.sweeps import bandwidth_sweep_spec
from repro.spec import execute

from .conftest import emit, scaled


def test_bandwidth_sweep(bench_once, benchmark):
    spec = bandwidth_sweep_spec(rates_mbps=(10, 50, 100, 250),
                                duration=scaled(8.0), seed=1)
    result = bench_once(execute, spec, max_workers=None)
    emit(benchmark, render_sweep(result))
    low = result.row_for(10.0)
    high = result.row_for(100.0)
    # at 10 Mbit/s the 100-packet IFQ exceeds the BDP: any late stall (from
    # becoming receiver-window-limited) is harmless and the gap vanishes
    assert abs(low["improvement_percent"]) < 10.0
    # at the paper's 100 Mbit/s standard TCP stalls and loses badly
    assert high["reno_send_stalls"] >= 1
    assert high["improvement_percent"] > 15.0
    assert all(row["restricted_send_stalls"] == 0 for row in result.rows)
    # the advantage grows with the bandwidth-delay product
    assert high["improvement_percent"] > low["improvement_percent"]
