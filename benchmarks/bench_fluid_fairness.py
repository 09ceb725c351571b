"""E12 — multi-flow fluid fairness fast path vs packet engine.

Not a paper artefact: demonstrates the N-flow coupled fluid model (the
fairness fast path).  Two claims are enforced, matching the documented
tolerances:

* a 4-flow 25 s ``MultiFlowSpec`` runs **>=20x faster** on the fluid
  backend than on the packet engine;
* its Jain fairness index lands within **+-0.05** of the packet engine's
  (aggregate goodput within 25 % relative).

Runs in two harnesses:

* ``python -m pytest benchmarks/bench_fluid_fairness.py`` — the usual
  pytest-benchmark suite entry;
* ``PYTHONPATH=src python -m benchmarks.bench_fluid_fairness`` — the CI
  smoke step, which additionally writes the ``BENCH_fluid_fairness.json``
  artifact (packet vs fluid wall-clock, speedup, fairness agreement) so
  the bench trajectory is tracked across commits.
"""

from __future__ import annotations

from typing import Sequence

from repro.fluid import DEFAULT_FAIRNESS_TOLERANCE
from repro.spec import MultiFlowSpec, dumbbell, execute
from repro.workloads.scenarios import PathConfig
from repro.obs.clock import wall_clock

from . import write_artifact

#: Speedup the fluid fairness path must deliver on the default 25 s run.
REQUIRED_SPEEDUP = 20.0

#: Agreement thresholds — the cross-validation's documented tolerances,
#: imported so this gate and `repro validate` can never silently diverge.
JAIN_ATOL = DEFAULT_FAIRNESS_TOLERANCE.jain_atol
AGGREGATE_RTOL = DEFAULT_FAIRNESS_TOLERANCE.aggregate_rtol

#: Default artifact path (repository root, like the BENCH_* convention).
DEFAULT_ARTIFACT = "BENCH_fluid_fairness.json"


def run_fairness_bench(duration: float = 25.0, n_flows: int = 4,
                       seed: int = 1,
                       config: PathConfig | None = None) -> dict:
    """Time the same N-flow mix on both backends; return the artifact payload."""
    cfg = config if config is not None else PathConfig()
    scenario = dumbbell(cfg, n_flows, ccs="reno",
                        start_times=tuple(0.1 * i for i in range(n_flows)))
    spec = MultiFlowSpec(scenario=scenario, duration=duration, seed=seed)

    t0 = wall_clock()
    packet = execute(spec)
    packet_wall = wall_clock() - t0
    t0 = wall_clock()
    fluid = execute(spec.with_backend("fluid"))
    fluid_wall = wall_clock() - t0

    speedup = packet_wall / max(fluid_wall, 1e-9)
    aggregate_err = (abs(fluid.aggregate_goodput_bps - packet.aggregate_goodput_bps)
                     / max(packet.aggregate_goodput_bps, 1e-9))
    return {
        "benchmark": "fluid_fairness",
        "n_flows": n_flows,
        "duration_s": duration,
        "seed": seed,
        "bottleneck_mbps": cfg.bottleneck_rate_bps / 1e6,
        "rtt_ms": cfg.rtt * 1e3,
        "packet_wall_s": packet_wall,
        "fluid_wall_s": fluid_wall,
        "speedup": speedup,
        "required_speedup": REQUIRED_SPEEDUP,
        "packet_jain": packet.jain_index,
        "fluid_jain": fluid.jain_index,
        "jain_abs_error": abs(fluid.jain_index - packet.jain_index),
        "jain_atol": JAIN_ATOL,
        "packet_aggregate_bps": packet.aggregate_goodput_bps,
        "fluid_aggregate_bps": fluid.aggregate_goodput_bps,
        "aggregate_rel_error": aggregate_err,
        "aggregate_rtol": AGGREGATE_RTOL,
    }


def render_report(payload: dict) -> str:
    return (
        f"E12 — multi-flow fluid fairness fast path "
        f"({payload['n_flows']} flows, {payload['duration_s']:.0f} s run)\n"
        f"packet {payload['packet_wall_s']:7.2f}s   "
        f"fluid {payload['fluid_wall_s'] * 1e3:7.1f}ms   "
        f"speedup {payload['speedup']:6.0f}x (need "
        f">={payload['required_speedup']:.0f}x)\n"
        f"Jain {payload['fluid_jain']:.4f} vs {payload['packet_jain']:.4f} "
        f"(|d| {payload['jain_abs_error']:.4f}, atol {payload['jain_atol']:.2f})   "
        f"aggregate {payload['fluid_aggregate_bps'] / 1e6:6.2f} vs "
        f"{payload['packet_aggregate_bps'] / 1e6:6.2f} Mbit/s "
        f"(err {payload['aggregate_rel_error']:5.1%})"
    )


def payload_failures(payload: dict) -> list[str]:
    """Which enforced claims the measured payload violates."""
    failures = []
    if payload["speedup"] < payload["required_speedup"]:
        failures.append(
            f"fluid fairness path only {payload['speedup']:.0f}x faster "
            f"(need {payload['required_speedup']:.0f}x)")
    if payload["jain_abs_error"] > payload["jain_atol"]:
        failures.append(
            f"Jain index differs by {payload['jain_abs_error']:.3f} "
            f"(> {payload['jain_atol']:.2f})")
    if payload["aggregate_rel_error"] > payload["aggregate_rtol"]:
        failures.append(
            f"aggregate goodput differs by {payload['aggregate_rel_error']:.1%} "
            f"(> {payload['aggregate_rtol']:.0%})")
    return failures


def test_fluid_fairness_speedup_and_agreement(benchmark, bench_once):
    """4-flow 25 s mix: fluid must be >=20x faster and fairness-faithful."""
    from .conftest import emit, scaled

    payload = bench_once(run_fairness_bench, scaled(25.0))
    emit(benchmark, render_report(payload),
         speedup=payload["speedup"],
         jain_abs_error=payload["jain_abs_error"])
    failures = payload_failures(payload)
    assert not failures, "; ".join(failures)


def main(argv: Sequence[str] | None = None) -> int:
    """CI smoke entry: run the bench, print the report, write the artifact."""
    import argparse

    parser = argparse.ArgumentParser(
        description="multi-flow fluid fairness benchmark (packet vs fluid)")
    parser.add_argument("--duration", type=float, default=25.0)
    parser.add_argument("--flows", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-o", "--output", default=DEFAULT_ARTIFACT,
                        help="artifact path (default: %(default)s)")
    args = parser.parse_args(argv)
    payload = run_fairness_bench(duration=args.duration, n_flows=args.flows,
                                 seed=args.seed)
    print(render_report(payload))
    path = write_artifact(payload, args.output)
    print(f"wrote {path}")
    failures = payload_failures(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
