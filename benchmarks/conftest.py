"""Shared settings for the benchmark harness.

Every benchmark regenerates one table/figure of the paper (the experiment
registry, ``python -m repro list``, maps each id to its benchmark file).
Benchmarks are *simulation experiments*, not
micro-benchmarks: each runs once (``rounds=1``) and reports the rendered
table through ``benchmark.extra_info`` and stdout (run pytest with ``-s`` to
see the tables).

Scaling knobs: set ``REPRO_BENCH_FAST=1`` in the environment to shrink the
simulated durations roughly 4x (useful on slow machines / CI smoke runs).
"""

from __future__ import annotations

import os

import pytest

#: Scale factor applied to simulated durations (1.0 = paper scale).
FAST_MODE = os.environ.get("REPRO_BENCH_FAST", "0") not in ("0", "", "false")


def scaled(duration: float) -> float:
    """Scale a simulated duration according to the fast-mode switch."""
    return duration / 4.0 if FAST_MODE else duration


@pytest.fixture
def bench_once(benchmark):
    """Run the callable exactly once under pytest-benchmark timing."""

    def run(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return run


def emit(benchmark, text: str, **extra) -> None:
    """Attach a rendered report to the benchmark record and print it."""
    benchmark.extra_info["report"] = text
    for key, value in extra.items():
        benchmark.extra_info[key] = value
    print("\n" + text)
