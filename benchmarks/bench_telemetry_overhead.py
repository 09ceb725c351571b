"""Telemetry overhead — the trace bus must be free when off, bounded when on.

Not a paper artefact: gates the observability plane (:mod:`repro.obs`).
Two claims are enforced on the packet E12 workload (the fairness sweep's
multi-flow dumbbell, at bench scale):

* **trace-off is free** — running under a *disabled* trace session costs
  <2% over the plain run: the hot path pays one ``enabled`` (or
  ``is not None``) check per potential emit and nothing else;
* **trace-on is bounded** — a fully enabled bus spilling JSONL costs at
  most :data:`MAX_ON_RATIO` x the plain run, so ``repro run --trace``
  stays usable on real workloads.

Walls are min-of-:data:`REPEATS` to suppress scheduler noise; the
simulation itself is deterministic.  Runs in two harnesses:

* ``python -m pytest benchmarks/bench_telemetry_overhead.py``;
* ``PYTHONPATH=src python -m benchmarks.bench_telemetry_overhead`` — the
  CI step, which writes the ``BENCH_telemetry_overhead.json`` artifact.
"""

from __future__ import annotations

import pathlib
import tempfile
from typing import Callable, Sequence

from repro.experiments.sweeps import fairness_sweep_spec
from repro.obs import TraceBus, trace_session
from repro.obs.clock import wall_clock
from repro.testing import SMALL_PATH
from repro.spec import execute

from . import write_artifact

#: Enforced ceiling on the disabled-session wall-clock ratio (<2%).
MAX_OFF_RATIO = 1.02

#: Enforced ceiling on the enabled-and-spilling wall-clock ratio.
MAX_ON_RATIO = 5.0

#: Timing rounds; variants are interleaved within each round so slow drift
#: (thermal, noisy neighbours) hits all of them equally, and the min is
#: reported per variant.
REPEATS = 5

#: Default artifact path (repository root, like the BENCH_* convention).
DEFAULT_ARTIFACT = "BENCH_telemetry_overhead.json"


def _workload(duration: float):
    """The E12 packet workload at bench scale: a staggered 2-flow dumbbell
    fairness sweep (two points), executed serially — trace sessions are
    per-process, so the comparison must not fan out."""
    spec = fairness_sweep_spec(start_times=(0.0, 0.5), duration=duration,
                               base_config=SMALL_PATH)

    def run():
        return execute(spec, max_workers=0)

    return run


def _interleaved_min_walls(variants: dict[str, Callable[[], object]],
                           repeats: int = REPEATS) -> dict[str, float]:
    walls = {name: float("inf") for name in variants}
    for _ in range(repeats):
        for name, run in variants.items():
            t0 = wall_clock()
            run()
            walls[name] = min(walls[name], wall_clock() - t0)
    return walls


def run_telemetry_overhead_bench(duration: float = 4.0) -> dict:
    """Measure plain vs trace-off vs trace-on walls; returns the payload."""
    # Short points (fast mode) have walls of ~0.1 s, where a couple of
    # milliseconds of scheduler noise breaches the 2% ceiling; take more
    # rounds so the per-variant minimum converges.
    repeats = max(REPEATS, round(REPEATS * 4.0 / max(duration, 0.25)))
    run = _workload(duration)
    run()  # warm imports/allocator pools out of the measured region

    def run_trace_off():
        with trace_session(TraceBus(enabled=False)):
            return run()

    with tempfile.TemporaryDirectory(prefix="repro-bench-trace-") as root:
        spill = pathlib.Path(root) / "trace.jsonl"
        records = 0

        def run_trace_on():
            nonlocal records
            with TraceBus(spill_path=spill) as bus:
                with trace_session(bus):
                    result = run()
            records = bus.total_records
            return result

        walls = _interleaved_min_walls({
            "baseline": run,
            "off": run_trace_off,
            "on": run_trace_on,
        }, repeats=repeats)
    baseline_wall = walls["baseline"]
    off_wall = walls["off"]
    on_wall = walls["on"]

    return {
        "benchmark": "telemetry_overhead",
        "duration_s": duration,
        "repeats": repeats,
        "baseline_wall_s": baseline_wall,
        "trace_off_wall_s": off_wall,
        "trace_on_wall_s": on_wall,
        "off_ratio": off_wall / max(baseline_wall, 1e-9),
        "on_ratio": on_wall / max(baseline_wall, 1e-9),
        "trace_records": records,
        "max_off_ratio": MAX_OFF_RATIO,
        "max_on_ratio": MAX_ON_RATIO,
    }


def render_report(payload: dict) -> str:
    return (
        f"telemetry overhead — E12 fairness workload, "
        f"{payload['duration_s']:.1f} s points, min of {payload['repeats']}\n"
        f"baseline {payload['baseline_wall_s']:7.3f}s   "
        f"trace-off {payload['trace_off_wall_s']:7.3f}s "
        f"(x{payload['off_ratio']:.3f}, need <{payload['max_off_ratio']:.2f})   "
        f"trace-on {payload['trace_on_wall_s']:7.3f}s "
        f"(x{payload['on_ratio']:.2f}, need <{payload['max_on_ratio']:.1f}, "
        f"{payload['trace_records']:,} records)"
    )


def payload_failures(payload: dict) -> list[str]:
    """Which enforced claims the measured payload violates."""
    failures = []
    if payload["off_ratio"] >= payload["max_off_ratio"]:
        failures.append(
            f"disabled trace session costs x{payload['off_ratio']:.3f} "
            f"(must stay under x{payload['max_off_ratio']:.2f}: the off "
            "path is one enabled/None check per emit)")
    if payload["on_ratio"] >= payload["max_on_ratio"]:
        failures.append(
            f"enabled trace session costs x{payload['on_ratio']:.2f} "
            f"(must stay under x{payload['max_on_ratio']:.1f})")
    if payload["trace_records"] == 0:
        failures.append("trace-on run recorded nothing — the bus is not "
                        "reaching the engines")
    return failures


def test_telemetry_overhead(benchmark, bench_once):
    """Trace-off must cost <2%; trace-on must stay bounded."""
    from .conftest import emit, scaled

    payload = bench_once(run_telemetry_overhead_bench, scaled(4.0))
    emit(benchmark, render_report(payload),
         off_ratio=payload["off_ratio"],
         on_ratio=payload["on_ratio"],
         trace_records=payload["trace_records"])
    failures = payload_failures(payload)
    assert not failures, "; ".join(failures)


def main(argv: Sequence[str] | None = None) -> int:
    """CI smoke entry: run the bench, print the report, write the artifact."""
    import argparse

    parser = argparse.ArgumentParser(
        description="trace-bus overhead benchmark (off must be free, "
                    "on must be bounded)")
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("-o", "--output", default=DEFAULT_ARTIFACT,
                        help="artifact path (default: %(default)s)")
    args = parser.parse_args(argv)
    payload = run_telemetry_overhead_bench(duration=args.duration)
    print(render_report(payload))
    path = write_artifact(payload, args.output)
    print(f"wrote {path}")
    failures = payload_failures(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
