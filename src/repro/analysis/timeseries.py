"""Time-series manipulation helpers for experiment post-processing."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ExperimentError

__all__ = ["resample_step", "cumulative_count_series", "downsample"]


def resample_step(
    times: Sequence[float],
    values: Sequence[float],
    grid: Sequence[float],
    left: float = 0.0,
) -> np.ndarray:
    """Sample a piecewise-constant (step) series onto ``grid``.

    The value at a grid point is the most recent sample at or before it;
    grid points before the first sample take ``left``.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    g = np.asarray(grid, dtype=float)
    if t.size != v.size:
        raise ExperimentError("times and values must have equal length")
    if t.size == 0:
        return np.full(g.shape, left)
    idx = np.searchsorted(t, g, side="right") - 1
    out = np.where(idx >= 0, v[np.clip(idx, 0, t.size - 1)], left)
    return out.astype(float)


def cumulative_count_series(event_times: Sequence[float], grid: Sequence[float]) -> np.ndarray:
    """Cumulative number of events at each grid time (Figure-1 style series)."""
    ev = np.sort(np.asarray(event_times, dtype=float))
    g = np.asarray(grid, dtype=float)
    return np.searchsorted(ev, g, side="right").astype(float)


def downsample(times: Sequence[float], values: Sequence[float], max_points: int) -> tuple[np.ndarray, np.ndarray]:
    """Thin a series to at most ``max_points`` (uniform stride)."""
    if max_points < 2:
        raise ExperimentError("max_points must be >= 2")
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.size <= max_points:
        return t, v
    stride = int(np.ceil(t.size / max_points))
    return t[::stride], v[::stride]
