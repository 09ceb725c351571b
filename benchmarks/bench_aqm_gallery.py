"""E13 — AQM + ECN gallery: modern queue disciplines vs the paper's cc.

The gallery crosses congestion control (restricted slow-start, NewReno,
CUBIC, Prague) with bottleneck queue disciplines (drop-tail, RED, CoDel,
DualPI2) on one dumbbell.  Two claims are enforced:

* on the L4S cell (``prague`` over ``dualpi2``) congestion is signalled by
  CE marks with **zero bottleneck drops** — the scalable-marking story;
* every ``droptail`` cell still pays for congestion with drops and, having
  no AQM, sees no marks.

Runs in two harnesses:

* ``python -m pytest benchmarks/bench_aqm_gallery.py`` — the usual
  pytest-benchmark suite entry;
* ``PYTHONPATH=src python -m benchmarks.bench_aqm_gallery`` — the CI smoke
  step, which additionally writes the ``BENCH_aqm_gallery.json`` artifact
  (wall-clock + per-cell headline metrics) so the gallery trajectory is
  tracked across commits.
"""

from __future__ import annotations

from typing import Sequence

from repro.experiments.aqm_gallery import (
    GALLERY_CCS,
    GALLERY_DISCIPLINES,
    render_aqm_gallery,
    run_aqm_gallery,
)
from repro.obs.clock import wall_clock

from . import write_artifact

#: Default artifact path (repository root, like the BENCH_* convention).
DEFAULT_ARTIFACT = "BENCH_aqm_gallery.json"


def run_aqm_gallery_bench(duration: float = 10.0,
                          n_flows: int = 2,
                          ccs: Sequence[str] = GALLERY_CCS,
                          disciplines: Sequence[str] = GALLERY_DISCIPLINES,
                          seed: int = 1,
                          max_workers: int | None = None) -> dict:
    """Run the gallery grid and return the artifact payload."""
    t0 = wall_clock()
    result = run_aqm_gallery(ccs=ccs, disciplines=disciplines,
                             n_flows=n_flows, duration=duration, seed=seed,
                             max_workers=max_workers)
    wall = wall_clock() - t0
    return {
        "benchmark": "aqm_gallery",
        "duration_s": duration,
        "n_flows": n_flows,
        "cells": len(result.rows),
        "wall_s": wall,
        "rows": result.rows,
        "report": render_aqm_gallery(result),
    }


def payload_failures(payload: dict) -> list[str]:
    """Which enforced claims the measured payload violates."""
    failures = []
    rows = payload["rows"]
    by_cell = {(r["cc"], r["discipline"]): r for r in rows}
    l4s = by_cell.get(("prague", "dualpi2"))
    if l4s is not None:
        if l4s["bottleneck_marks"] <= 0:
            failures.append("prague/dualpi2 saw no CE marks")
        if l4s["bottleneck_drops"] > 0:
            failures.append(
                f"prague/dualpi2 dropped {l4s['bottleneck_drops']} packets "
                "at the bottleneck (scalable marking should replace loss)")
    for row in rows:
        if row["discipline"] == "droptail":
            if row["bottleneck_marks"] != 0:
                failures.append(
                    f"{row['cc']}/droptail reported CE marks without an AQM")
            if row["bottleneck_drops"] <= 0:
                failures.append(
                    f"{row['cc']}/droptail saw no bottleneck drops — the "
                    "baseline never hit congestion")
        if not row["aggregate_goodput_bps"] > 0:
            failures.append(
                f"{row['cc']}/{row['discipline']} moved no data")
        if not 0.0 <= row["utilization"] <= 1.05:
            failures.append(
                f"{row['cc']}/{row['discipline']} utilization "
                f"{row['utilization']:.3f} out of bounds")
    return failures


def test_aqm_gallery(benchmark, bench_once):
    """Full 4x4 gallery: L4S cell marks without drops, drop-tail drops."""
    from .conftest import emit, scaled

    payload = bench_once(run_aqm_gallery_bench, scaled(10.0))
    emit(benchmark, payload["report"], wall_s=payload["wall_s"])
    failures = payload_failures(payload)
    assert not failures, "; ".join(failures)


def main(argv: Sequence[str] | None = None) -> int:
    """CI smoke entry: run the grid, print the table, write the artifact."""
    import argparse

    parser = argparse.ArgumentParser(
        description="AQM + ECN gallery benchmark (E13)")
    parser.add_argument("--duration", type=float, default=10.0)
    parser.add_argument("--flows", type=int, default=2)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("-o", "--output", default=DEFAULT_ARTIFACT,
                        help="artifact path (default: %(default)s)")
    args = parser.parse_args(argv)
    payload = run_aqm_gallery_bench(duration=args.duration,
                                    n_flows=args.flows, seed=args.seed)
    print(payload["report"])
    print(f"wall-clock {payload['wall_s']:.1f}s for {payload['cells']} cells")
    path = write_artifact(payload, args.output)
    print(f"wrote {path}")
    failures = payload_failures(payload)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
