"""Campaign cache — warm rerun of a multi-point sweep campaign vs cold.

Not a paper artefact: demonstrates the campaign subsystem
(:mod:`repro.campaign`).  One claim is enforced:

* rerunning a multi-point sweep campaign against a warm
  :class:`~repro.campaign.ResultStore` is **>=50x faster** than the cold
  run — i.e. the rerun does no simulation work (the manifest must report
  zero misses), only content-addressed store reads.

Runs in two harnesses:

* ``python -m pytest benchmarks/bench_campaign_cache.py`` — the usual
  pytest-benchmark suite entry;
* ``PYTHONPATH=src python -m benchmarks.bench_campaign_cache`` — the CI
  smoke step, which additionally writes the ``BENCH_campaign_cache.json``
  artifact (cold/warm wall-clock, speedup, hit counts) so the cache
  trajectory is tracked across commits.
"""

from __future__ import annotations

import pathlib
import tempfile
from typing import Sequence

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.experiments.sweeps import ifq_sweep_spec
from repro.testing import SMALL_PATH
from repro.obs.clock import wall_clock

from . import write_artifact

#: Speedup a warm rerun must deliver over the cold run.
REQUIRED_SPEEDUP = 50.0

#: Default artifact path (repository root, like the BENCH_* convention).
DEFAULT_ARTIFACT = "BENCH_campaign_cache.json"


def run_campaign_cache_bench(duration: float = 2.0,
                             store_root: str | pathlib.Path | None = None) -> dict:
    """Cold-vs-warm timing of one sweep campaign; returns the artifact payload.

    The campaign is a packet-engine IFQ sweep at test scale (3 points x
    2 algorithms): real event-driven simulation on the cold run, pure
    store reads on the warm one.  Serial execution (``max_workers=0``)
    keeps the comparison about caching, not process-pool startup.
    """
    campaign = CampaignSpec(
        name="bench_campaign_cache",
        sweeps=(ifq_sweep_spec(sizes=(10, 20, 40), duration=duration,
                               base_config=SMALL_PATH),),
    )

    def measure(root) -> dict:
        store = ResultStore(root)
        t0 = wall_clock()
        cold = run_campaign(campaign, store, max_workers=0)
        cold_wall = wall_clock() - t0
        t0 = wall_clock()
        warm = run_campaign(campaign, store, max_workers=0)
        warm_wall = wall_clock() - t0
        return {
            "benchmark": "campaign_cache",
            "duration_s": duration,
            "units": len(warm.units),
            "cold_hits": cold.hits,
            "cold_computed": cold.misses,
            "warm_hits": warm.hits,
            "warm_misses": warm.misses,
            "cold_wall_s": cold_wall,
            "warm_wall_s": warm_wall,
            "speedup": cold_wall / max(warm_wall, 1e-9),
            "required_speedup": REQUIRED_SPEEDUP,
        }

    if store_root is not None:
        return measure(store_root)
    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as root:
        return measure(root)


def render_report(payload: dict) -> str:
    return (
        f"campaign cache — {payload['units']}-unit sweep campaign, "
        f"{payload['duration_s']:.0f} s packet runs\n"
        f"cold {payload['cold_wall_s']:7.2f}s ({payload['cold_computed']} "
        f"computed)   warm {payload['warm_wall_s'] * 1e3:7.1f}ms "
        f"({payload['warm_hits']} hits, {payload['warm_misses']} misses)   "
        f"speedup {payload['speedup']:6.0f}x "
        f"(need >={payload['required_speedup']:.0f}x)"
    )


def payload_failures(payload: dict) -> list[str]:
    """Which enforced claims the measured payload violates."""
    failures = []
    if payload["warm_misses"] != 0:
        failures.append(
            f"warm rerun recomputed {payload['warm_misses']} units "
            "(must be all hits)")
    if payload["cold_hits"] != 0:
        failures.append(
            f"cold run reported {payload['cold_hits']} hits on an empty store")
    if payload["speedup"] < payload["required_speedup"]:
        failures.append(
            f"warm rerun only {payload['speedup']:.0f}x faster than cold "
            f"(need {payload['required_speedup']:.0f}x)")
    return failures


def test_campaign_cache_speedup(benchmark, bench_once):
    """Warm rerun of a sweep campaign must be >=50x faster than cold."""
    from .conftest import emit, scaled

    payload = bench_once(run_campaign_cache_bench, scaled(2.0))
    emit(benchmark, render_report(payload),
         speedup=payload["speedup"],
         warm_misses=payload["warm_misses"])
    failures = payload_failures(payload)
    assert not failures, "; ".join(failures)


def main(argv: Sequence[str] | None = None) -> int:
    """CI smoke entry: run the bench, print the report, write the artifact."""
    import argparse

    parser = argparse.ArgumentParser(
        description="campaign result-cache benchmark (cold vs warm rerun)")
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--store", default=None,
                        help="use this store directory instead of a "
                             "temporary one (must start empty for an "
                             "honest cold run)")
    parser.add_argument("-o", "--output", default=DEFAULT_ARTIFACT,
                        help="artifact path (default: %(default)s)")
    args = parser.parse_args(argv)
    payload = run_campaign_cache_bench(duration=args.duration,
                                       store_root=args.store)
    print(render_report(payload))
    path = write_artifact(payload, args.output)
    print(f"wrote {path}")
    failures = payload_failures(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
