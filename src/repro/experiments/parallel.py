"""Process-parallel execution of experiment specs and sweeps.

Packet-level runs are single-threaded, so parameter sweeps (IFQ size, RTT,
bandwidth, ...) fan out across a process pool.  The unit shipped to a
worker is one declarative spec (:mod:`repro.spec`): specs are plain frozen
dataclasses and results are dataclasses plus NumPy arrays, so both pickle
cleanly as required by :mod:`concurrent.futures`.

Set ``max_workers=0`` (or 1) to force serial execution — useful inside
pytest-benchmark, on machines where forking is undesirable, or when
debugging a worker crash.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from ..errors import ExperimentError
from ..spec import SpecBase, execute

__all__ = [
    "MAX_WORKERS_ENV",
    "default_worker_count",
    "map_specs",
]


#: Environment variable capping process fan-out without code changes (CI,
#: shared boxes).  Must be an integer >= 0; 0 (and 1) force serial runs.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def default_worker_count() -> int:
    """A conservative worker count (half the CPUs, at least one).

    A ``REPRO_MAX_WORKERS`` environment variable overrides the CPU-derived
    default for every ``max_workers=None`` call site at once: ``0`` (or
    ``1``) forces serial execution, larger values set the pool size.  The
    value is validated eagerly — a non-integer or negative setting raises
    :class:`ExperimentError` naming the variable rather than silently
    falling back.
    """
    override = os.environ.get(MAX_WORKERS_ENV)
    if override is not None:
        try:
            workers = int(override)
        except ValueError:
            raise ExperimentError(
                f"{MAX_WORKERS_ENV} must be an integer >= 0, got {override!r}"
            ) from None
        if workers < 0:
            raise ExperimentError(
                f"{MAX_WORKERS_ENV} must be an integer >= 0, got {workers}")
        return workers
    cpus = os.cpu_count() or 1
    return max(cpus // 2, 1)


def map_specs(specs: Sequence[SpecBase], max_workers: int | None = None,
              store=None) -> list:
    """Execute every spec, in input order, optionally across a process pool.

    Each worker receives (pickles) exactly one spec and returns its result.
    ``max_workers`` of 0 or 1 runs serially in-process; ``None`` uses
    :func:`default_worker_count`.  ``store`` (a
    :class:`repro.campaign.ResultStore`) records every result.
    """
    if not specs:
        raise ExperimentError("specs must not be empty")
    if max_workers is None:
        max_workers = default_worker_count()
    if max_workers <= 1 or len(specs) == 1:
        results = [execute(spec) for spec in specs]
    else:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [pool.submit(execute, spec) for spec in specs]
            results = [f.result() for f in futures]
    if store is not None:
        for result in results:
            store.put(result)
    return results
