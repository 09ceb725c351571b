"""E13 — population-scale fluid engine: flows vs wall-clock scaling curve.

Not a paper artefact: demonstrates the vectorized population engine
(``FluidPopulationModel``) behind the fluid backend's churn path.  Three
claims are enforced:

* a churned reno dumbbell that grows to **~5,000 concurrent-era flows over
  a 25 s run completes in under 10 s wall-clock**;
* scaling is **near-linear in the population size**: the per-flow cost at
  the largest population must stay within ``SCALING_SLACK``x of the
  per-flow cost at the smallest (array-vectorized rounds, no quadratic
  coupling term);
* a churned **restricted** dumbbell of ``RESTRICTED_POPULATION`` (20,000)
  arrivals also completes in under 10 s.  Restricted flows run their PID
  controller on the engine's per-flow Python side-channel, which the reno
  curve never reaches; this point fails if the side-channel's cost grows
  with the population instead of with the flows active in each round.

Runs in two harnesses:

* ``python -m pytest benchmarks/bench_fluid_scale.py`` — the usual
  pytest-benchmark suite entry;
* ``PYTHONPATH=src python -m benchmarks.bench_fluid_scale`` — the CI
  smoke step, which additionally writes the ``BENCH_fluid_scale.json``
  artifact (population sizes, wall-clock, per-flow cost, scaling ratio,
  and the restricted point as ``restricted_point`` /
  ``restricted_largest_wall_s``) so the bench trajectory is tracked across
  commits.
"""

from __future__ import annotations

from typing import Sequence

from repro.fluid import FlowArrivalSpec
from repro.spec import MultiFlowSpec, dumbbell, execute
from repro.workloads.scenarios import PathConfig
from repro.obs.clock import wall_clock

from . import write_artifact

#: Flow-population sizes the scaling curve samples (arrival totals; the
#: arrival rate is chosen per point so the count is duration-independent).
POPULATIONS = (625, 1250, 2500, 5000)

#: Arrival total of the restricted (side-channel) point.
RESTRICTED_POPULATION = 20_000

#: Hard wall-clock ceiling for the largest population of either curve.
MAX_WALL_LARGEST = 10.0

#: Near-linearity gate: per-flow wall cost at the largest population must
#: be <= SCALING_SLACK x the per-flow cost at the smallest.  A quadratic
#: coupling term would blow through this immediately (8x at these sizes).
SCALING_SLACK = 3.0

#: Default artifact path (repository root, like the BENCH_* convention).
DEFAULT_ARTIFACT = "BENCH_fluid_scale.json"


def _time_point(cfg: PathConfig, cc: str, target: int, duration: float,
                seed: int) -> dict:
    """Time one churned dumbbell run of ``target`` arrivals of ``cc``."""
    churn = FlowArrivalSpec(rate_per_s=target / duration,
                            mean_size_bytes=100_000.0, cc=cc)
    spec = MultiFlowSpec(scenario=dumbbell(cfg, 2, ccs=cc), duration=duration,
                         seed=seed, backend="fluid", churn=churn)
    t0 = wall_clock()
    result = execute(spec)
    wall = wall_clock() - t0
    # churned flows stream into the summary instead of materialising
    # outcome objects, so the population size lives there — the result's
    # flows list holds only the declared pair
    n_flows = (result.summary.n_flows if result.summary is not None
               else len(result.flows))
    return {
        "target_flows": target,
        "n_flows": n_flows,
        "wall_s": wall,
        "per_flow_us": wall / max(n_flows, 1) * 1e6,
        "aggregate_goodput_bps": result.aggregate_goodput_bps,
    }


def run_scale_bench(duration: float = 25.0,
                    populations: Sequence[int] = POPULATIONS,
                    seed: int = 1,
                    config: PathConfig | None = None) -> dict:
    """Time churned dumbbell runs across population sizes; return the payload."""
    cfg = config if config is not None else PathConfig()
    points = [_time_point(cfg, "reno", target, duration, seed)
              for target in populations]
    restricted = _time_point(cfg, "restricted", RESTRICTED_POPULATION,
                             duration, seed)
    scaling_ratio = points[-1]["per_flow_us"] / max(points[0]["per_flow_us"],
                                                    1e-9)
    return {
        "benchmark": "fluid_scale",
        "duration_s": duration,
        "seed": seed,
        "bottleneck_mbps": cfg.bottleneck_rate_bps / 1e6,
        "rtt_ms": cfg.rtt * 1e3,
        "points": points,
        "largest_wall_s": points[-1]["wall_s"],
        "restricted_point": restricted,
        "restricted_largest_wall_s": restricted["wall_s"],
        "max_wall_largest_s": MAX_WALL_LARGEST,
        "scaling_ratio": scaling_ratio,
        "scaling_slack": SCALING_SLACK,
    }


def _point_line(point: dict, label: str = "") -> str:
    return (f"{point['n_flows']:>8}  {point['wall_s'] * 1e3:>7.0f}ms  "
            f"{point['per_flow_us']:>8.1f}us  "
            f"{point['aggregate_goodput_bps'] / 1e6:>9.2f}Mbps{label}")


def render_report(payload: dict) -> str:
    lines = [
        f"E13 — population-scale fluid engine "
        f"({payload['duration_s']:.0f} s churned dumbbell, "
        f"{payload['bottleneck_mbps']:.0f} Mbit/s bottleneck)",
        f"{'flows':>8}  {'wall':>9}  {'per-flow':>10}  {'aggregate':>12}",
    ]
    lines.extend(_point_line(point) for point in payload["points"])
    lines.append(_point_line(payload["restricted_point"], "  restricted"))
    lines.append(
        f"scaling ratio {payload['scaling_ratio']:.2f}x per flow "
        f"(need <={payload['scaling_slack']:.1f}x)   "
        f"largest {payload['largest_wall_s']:.2f}s, "
        f"restricted {payload['restricted_largest_wall_s']:.2f}s "
        f"(need <{payload['max_wall_largest_s']:.0f}s)")
    return "\n".join(lines)


def payload_failures(payload: dict) -> list[str]:
    """Which enforced claims the measured payload violates."""
    failures = []
    for label, point in (("", payload["points"][-1]),
                         (" restricted", payload["restricted_point"])):
        if point["wall_s"] >= payload["max_wall_largest_s"]:
            failures.append(
                f"{point['n_flows']}-flow{label} run took "
                f"{point['wall_s']:.1f}s "
                f"(need <{payload['max_wall_largest_s']:.0f}s)")
    if payload["scaling_ratio"] > payload["scaling_slack"]:
        failures.append(
            f"per-flow cost grew {payload['scaling_ratio']:.1f}x from "
            f"smallest to largest population "
            f"(need <={payload['scaling_slack']:.1f}x: not near-linear)")
    return failures


def test_fluid_scale_near_linear(benchmark, bench_once):
    """Churned populations up to 5k reno / 20k restricted flows: bounded
    wall, near-linear cost."""
    from .conftest import emit, scaled

    payload = bench_once(run_scale_bench, scaled(25.0))
    emit(benchmark, render_report(payload),
         largest_wall_s=payload["largest_wall_s"],
         restricted_largest_wall_s=payload["restricted_largest_wall_s"],
         scaling_ratio=payload["scaling_ratio"])
    failures = payload_failures(payload)
    assert not failures, "; ".join(failures)


def main(argv: Sequence[str] | None = None) -> int:
    """CI smoke entry: run the bench, print the report, write the artifact."""
    import argparse

    parser = argparse.ArgumentParser(
        description="population-scale fluid engine scaling benchmark")
    parser.add_argument("--duration", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-o", "--output", default=DEFAULT_ARTIFACT,
                        help="artifact path (default: %(default)s)")
    args = parser.parse_args(argv)
    payload = run_scale_bench(duration=args.duration, seed=args.seed)
    print(render_report(payload))
    path = write_artifact(payload, args.output)
    print(f"wrote {path}")
    failures = payload_failures(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
