"""Web100-style instrumentation and tracing utilities."""

from .tracer import TimeSeries, TimeSeriesTracer
from .web100 import Web100Stats

__all__ = [
    "Web100Stats",
    "TimeSeries",
    "TimeSeriesTracer",
]
