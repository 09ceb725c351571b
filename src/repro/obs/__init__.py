"""Run-telemetry plane: structured tracing, phase profiling, wall clock.

Three small, composable pieces (see each module's docstring):

* :mod:`repro.obs.clock` — the single sanctioned home for wall-clock
  reads (``REP002``-exempt by module, not by pragma);
* :mod:`repro.obs.trace` — the engine-wide :class:`TraceBus` with typed
  categories, bounded buffering, JSONL spill, and the process-wide
  :func:`trace_session`;
* :mod:`repro.obs.telemetry` — :class:`RunTelemetry` phase spans and
  counters, attached to results as a non-cache-key sidecar.
"""

from .clock import wall_clock, wall_clock_ns
from .telemetry import (
    RunTelemetry,
    active_telemetry,
    add_counter,
    aggregate,
    memory_tracking_enabled,
    set_memory_tracking,
    telemetry_session,
)
from .trace import (
    TRACE_CATEGORIES,
    TraceBus,
    TraceRecord,
    active_trace_bus,
    read_jsonl,
    trace_session,
    write_jsonl,
)

__all__ = [
    "wall_clock",
    "wall_clock_ns",
    "RunTelemetry",
    "telemetry_session",
    "active_telemetry",
    "add_counter",
    "aggregate",
    "set_memory_tracking",
    "memory_tracking_enabled",
    "TRACE_CATEGORIES",
    "TraceBus",
    "TraceRecord",
    "trace_session",
    "active_trace_bus",
    "write_jsonl",
    "read_jsonl",
]
