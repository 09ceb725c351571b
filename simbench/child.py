"""One benchmark sample in a fresh interpreter.

``python -m simbench.child WORKLOAD --seed N --workdir DIR [--traced]``
does the workload's set-up, stamps the moment it is ready, runs one timed
pass, checks the pass's output and prints one JSON report as its last
line.  The harness spawns it (with ``src/`` on ``PYTHONPATH``) and turns
the ready stamp into ``setup_s``: interpreter start, ``import repro``,
spec construction and store open.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import time
from pathlib import Path


def monotonic() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sample(workload_name: str, seed: int, workdir: Path, traced: bool = False,
           sizes: dict | None = None) -> dict:
    """Set up, run and check one pass of a workload; return the report."""
    import numpy

    from .workloads import WORKLOADS, fingerprint, measured

    fold = None
    if traced:
        from .layers import LayerFold

        fold = LayerFold()
        fold.install()
    workload = WORKLOADS[workload_name](**(sizes or {}))
    workload.setup(seed, workdir)
    ready_at = monotonic()
    workload.prepare()
    if fold is not None:
        fold.reset()
    start = time.perf_counter()
    output = workload.run()
    wall = time.perf_counter() - start
    layers = fold.snapshot() if fold is not None else None
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = workload.units(output)
    digest, counts = fingerprint(units)
    failures = [f"{workload_name}/{unit.name}: {failure}"
                for unit in units for failure in unit.failures]
    return {
        "workload": workload_name,
        "seed": seed,
        "traced": traced,
        "ready_at": ready_at,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(units),
        "failed": sum(1 for unit in units if unit.failures),
        "failures": failures,
        "fingerprint": digest,
        "counts": counts,
        "measured": measured(units),
        "layers": layers,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m simbench.child")
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--sizes", type=json.loads, default=None,
                        help="JSON object of workload size overrides (tests)")
    args = parser.parse_args(argv)
    report = sample(args.workload, args.seed, args.workdir, args.traced, args.sizes)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
