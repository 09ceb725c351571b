"""E10 — transfer-size (completion-time) sweep.

Expected shape: small transfers finish during slow-start where the two
algorithms behave almost identically; for transfers that take tens of
round-trips the stall-induced window collapse makes standard TCP markedly
slower, so the completion-time speedup grows with the transfer size.
"""

from __future__ import annotations

from repro.experiments import render_sweep
from repro.experiments.sweeps import transfer_size_sweep_spec
from repro.spec import execute
from repro.units import MB

from .conftest import emit, scaled


def test_transfer_size_sweep(bench_once, benchmark):
    from .conftest import FAST_MODE

    # fast mode shortens the time budget, so also shrink the largest transfer
    sizes = (MB(1), MB(8), MB(32), MB(32 if FAST_MODE else 128))
    spec = transfer_size_sweep_spec(sizes_bytes=sizes, seed=1,
                                    max_duration=scaled(60.0))
    result = bench_once(execute, spec, max_workers=None)
    emit(benchmark, render_sweep(result))
    for row in result.rows:
        assert row["reno_completion_time"] is not None
        assert row["restricted_completion_time"] is not None
    small = result.row_for(MB(1))
    large = result.row_for(sizes[-1])
    # the speedup grows with transfer size and is material for large transfers
    assert large["speedup"] >= small["speedup"] * 0.9
    assert large["speedup"] > 1.2
