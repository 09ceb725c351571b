"""E3 — interface-queue (txqueuelen) size sweep.

Expected shape: with a small IFQ standard TCP stalls and loses throughput
while restricted slow-start is unaffected; once the IFQ exceeds roughly the
path BDP (~500 packets) the stalls disappear and the advantage shrinks.
"""

from __future__ import annotations

from repro.experiments import render_sweep
from repro.experiments.sweeps import ifq_sweep_spec
from repro.spec import execute
from repro.workloads import PathConfig

from .conftest import emit, scaled

#: The sweep uses a 2x-BDP receiver window (a typical hand-tuned value for
#: this path in 2005); with the default 3x window even an 800-packet IFQ can
#: be overrun once the flow becomes receiver-window-limited, which would
#: conflate two different effects.
SWEEP_CONFIG = PathConfig(rwnd_factor=2.0)


def test_ifq_size_sweep(bench_once, benchmark):
    spec = ifq_sweep_spec(sizes=(50, 100, 200, 400, 800), duration=scaled(8.0),
                          seed=1, base_config=SWEEP_CONFIG)
    result = bench_once(execute, spec, max_workers=None)
    emit(benchmark, render_sweep(result))
    small = result.row_for(50)
    large = result.row_for(800)
    # standard TCP stalls with a small IFQ but not with one well above the BDP
    assert small["reno_send_stalls"] >= 1
    assert large["reno_send_stalls"] == 0
    # restricted slow-start never stalls, whatever the queue size
    assert all(row["restricted_send_stalls"] == 0 for row in result.rows)
    # and the advantage is largest where the queue is smallest
    assert small["improvement_percent"] >= large["improvement_percent"]
