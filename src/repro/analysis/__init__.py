"""Post-processing: metrics, time-series helpers, report tables."""

from .metrics import (
    goodput_bps,
    improvement_percent,
    jain_fairness_index,
    stall_rate,
    time_to_bytes,
    utilization,
)
from .tables import Table, kv_table
from .timeseries import cumulative_count_series, downsample, resample_step

__all__ = [
    "goodput_bps",
    "improvement_percent",
    "jain_fairness_index",
    "stall_rate",
    "time_to_bytes",
    "utilization",
    "Table",
    "kv_table",
    "resample_step",
    "cumulative_count_series",
    "downsample",
]
