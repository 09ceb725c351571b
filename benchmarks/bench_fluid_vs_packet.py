"""E12 — fluid fast path vs packet engine.

Not a paper artefact: demonstrates the two-backend architecture.  The fluid
backend must be (a) at least ~100x faster than the packet engine on the
default 25 s single-flow run, and (b) in agreement with it on the quantities
the experiments report (goodput, stall behaviour, IFQ peak) across the
cross-validation grid — see :mod:`repro.fluid.validate` for the documented
tolerances.
"""

from __future__ import annotations

from repro.fluid import cross_validate
from repro.obs.clock import wall_clock
from repro.spec import RunSpec, execute

from .conftest import emit, scaled

#: Speedup the fluid backend must deliver on the default 25 s run.
REQUIRED_SPEEDUP = 100.0


def _paired_runs(duration: float, seed: int = 1):
    rows = []
    for cc in ("reno", "restricted"):
        spec = RunSpec(cc=cc, duration=duration, seed=seed)
        t0 = wall_clock()
        packet = execute(spec)
        packet_wall = wall_clock() - t0
        t0 = wall_clock()
        fluid = execute(spec.replace(backend="fluid"))
        fluid_wall = wall_clock() - t0
        rows.append((cc, packet, packet_wall, fluid, fluid_wall))
    return rows


def test_fluid_speedup_on_default_run(benchmark, bench_once):
    """Default 25 s single-flow run: fluid must be >=100x faster."""
    duration = scaled(25.0)
    results = bench_once(_paired_runs, duration)
    lines = []
    worst_speedup = float("inf")
    for cc, packet, packet_wall, fluid, fluid_wall in results:
        speedup = packet_wall / max(fluid_wall, 1e-9)
        worst_speedup = min(worst_speedup, speedup)
        err = abs(fluid.goodput_bps - packet.goodput_bps) / packet.goodput_bps
        lines.append(
            f"{cc:12s} packet {packet.events_processed:>9,} events / {packet_wall:6.2f}s   "
            f"fluid {fluid.events_processed:>7,} steps / {fluid_wall * 1e3:7.1f}ms   "
            f"speedup {speedup:6.0f}x   goodput {fluid.goodput_bps / 1e6:6.2f} vs "
            f"{packet.goodput_bps / 1e6:6.2f} Mbit/s (err {err:5.1%})"
        )
    report = (f"E12 — fluid fast path vs packet engine ({duration:.0f} s run)\n"
              + "\n".join(lines))
    emit(benchmark, report, worst_speedup=worst_speedup)
    assert worst_speedup >= REQUIRED_SPEEDUP, (
        f"fluid backend only {worst_speedup:.0f}x faster (need {REQUIRED_SPEEDUP:.0f}x)")


def test_fluid_matches_packet_on_grid(benchmark, bench_once):
    """Cross-validation grid: both backends agree within tolerance."""
    report = bench_once(cross_validate, duration=3.0, seed=2)
    emit(benchmark, report.render(),
         points=len(report.rows),
         failures=len(report.failures()))
    assert report.ok, "\n".join(report.failures())
