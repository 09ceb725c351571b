"""E1 — regenerate the paper's Figure 1.

Cumulative send-stall signals over a 25-second bulk transfer on the
100 Mbit/s, 60 ms ANL–LBNL-like path: standard Linux TCP accumulates stalls,
restricted slow-start stays at (near) zero.
"""

from __future__ import annotations

from repro.experiments import render_figure1
from repro.experiments.figure1 import figure1_from_comparison, figure1_spec
from repro.spec import execute

from .conftest import emit, scaled


def test_figure1_cumulative_send_stalls(bench_once, benchmark):
    comparison = bench_once(execute, figure1_spec(duration=scaled(25.0), seed=1))
    result = figure1_from_comparison(comparison)
    emit(
        benchmark,
        render_figure1(result),
        standard_stalls=result.standard_total,
        proposed_stalls=result.proposed_total,
        shape_holds=result.shape_holds(),
    )
    # the paper's qualitative claim must hold: the proposed scheme stalls less
    assert result.shape_holds()
    assert result.standard_total >= 1
    assert result.proposed_total == 0
