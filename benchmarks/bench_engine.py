"""E11 — engine micro-benchmarks.

Not a paper artefact: measures the raw event-processing and packet-forwarding
rates of the simulation substrate so performance regressions in the hot path
are visible (the HPC guides' "measure before optimising" rule).
"""

from __future__ import annotations

from repro.sim import Simulator
from repro.spec import RunSpec, execute
from repro.units import Mbps
from repro.workloads import PathConfig

from .conftest import emit

#: A modest path so the packet benchmark completes quickly.
ENGINE_PATH = PathConfig(
    bottleneck_rate_bps=Mbps(50),
    rtt=0.02,
    ifq_capacity_packets=100,
    router_buffer_packets=200,
)


def _run_empty_events(n_events: int) -> int:
    sim = Simulator(seed=1)

    def chain(remaining: int) -> None:
        if remaining > 0:
            sim.schedule(1e-6, chain, remaining - 1)

    # schedule a mix of immediate chains to exercise push/pop repeatedly
    for _ in range(100):
        sim.schedule(0.0, chain, n_events // 100)
    sim.run()
    return sim.events_processed


def test_event_loop_throughput(benchmark):
    events = benchmark.pedantic(_run_empty_events, args=(200_000,),
                                rounds=1, iterations=1)
    rate = events / max(benchmark.stats.stats.total, 1e-9)
    benchmark.extra_info["events_per_second"] = rate
    assert events >= 200_000


def test_packet_level_tcp_throughput(benchmark):
    spec = RunSpec(cc="restricted", config=ENGINE_PATH, duration=3.0, seed=1)
    result = benchmark.pedantic(execute, args=(spec,), rounds=1, iterations=1)
    wall = max(benchmark.stats.stats.total, 1e-9)
    events_per_second = result.events_processed / wall
    benchmark.extra_info["events_per_second"] = events_per_second
    benchmark.extra_info["sim_events"] = result.events_processed
    emit(benchmark,
         f"packet-level run: {result.events_processed} events, "
         f"{events_per_second:,.0f} events/s, goodput "
         f"{result.goodput_bps / 1e6:.1f} Mbit/s",
         goodput_mbps=result.goodput_bps / 1e6)
    assert result.flow.bytes_acked > 0
