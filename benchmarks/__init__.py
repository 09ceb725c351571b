"""Benchmark suite (pytest-benchmark harness).

A real package so that the benchmark modules' ``from .conftest import ...``
works under pytest's rootdir collection (``python -m pytest benchmarks/``).
It also holds :func:`write_artifact`, the one JSON writer behind the CI
benches' ``-o BENCH_*.json`` artifacts.
"""

from __future__ import annotations

import json
import pathlib


def write_artifact(payload: dict, path: str | pathlib.Path) -> pathlib.Path:
    """Write a bench's JSON artifact (sorted keys, 2-space indent) to ``path``."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
