"""E2 — the paper's Section 4 headline number.

"Preliminary results show that our scheme is able to achieve 40% improvement
in throughput compared to the standard TCP" (100 Mbit/s, 60 ms RTT path).
The absolute improvement measured here differs (clean simulated path), but
restricted slow-start must win by a wide margin.
"""

from __future__ import annotations

from repro.experiments import render_throughput
from repro.experiments.throughput import throughput_from_comparison, throughput_spec
from repro.spec import execute

from .conftest import emit, scaled


def test_headline_throughput_improvement(bench_once, benchmark):
    comparison = bench_once(execute, throughput_spec(duration=scaled(25.0), seed=1))
    result = throughput_from_comparison(comparison)
    emit(
        benchmark,
        render_throughput(result),
        standard_mbps=result.standard_goodput_bps / 1e6,
        restricted_mbps=result.restricted_goodput_bps / 1e6,
        improvement_percent=result.improvement_percent,
    )
    assert result.shape_holds()
    # the paper reports ~40%; require a clearly material improvement
    assert result.improvement_percent > 20.0
