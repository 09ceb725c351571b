"""E8 — restricted slow-start versus other slow-start fixes.

Expected shape: algorithms that keep the standard exponential slow-start
(Reno, NewReno, CUBIC) overrun the IFQ and lose throughput; Limited
Slow-Start and HyStart mitigate the overshoot blindly; IFQ-aware restricted
slow-start avoids stalls entirely and fills the path fastest.
"""

from __future__ import annotations

from repro.experiments import render_baselines
from repro.experiments.baselines import baselines_from_comparison, baselines_spec
from repro.spec import execute

from .conftest import emit, scaled


def test_slow_start_variant_comparison(bench_once, benchmark):
    spec = baselines_spec(duration=scaled(15.0), seed=1)
    result = baselines_from_comparison(bench_once(execute, spec))
    emit(benchmark, render_baselines(result), ranking=" > ".join(result.ranking()))
    restricted = result.row_for("restricted")
    reno = result.row_for("reno")
    cubic = result.row_for("cubic")
    assert restricted["send_stalls"] == 0
    # exponential slow-start variants stall on this path
    assert reno["send_stalls"] >= 1
    assert cubic["send_stalls"] >= 1
    # restricted slow-start is at (or tied for) the top of the ranking and
    # clearly beats the stock stack
    assert "restricted" in result.ranking()[:2]
    assert restricted["goodput_bps"] > reno["goodput_bps"]
