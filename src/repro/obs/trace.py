"""Engine-wide structured trace bus.

A :class:`TraceBus` collects ``(time, category, message, fields)``
records (:class:`TraceRecord`) emitted by every execution path — the
packet engine, both fluid engines, queues/AQM, and the TCP stack — with:

* **typed categories** — :data:`TRACE_CATEGORIES` names every category an
  engine emits together with a one-line contract (the README table is
  generated from the same source of truth);
* **bounded memory** — without a spill file, ``max_records`` caps the
  buffer and sets :attr:`TraceBus.overflowed`; with a ``spill_path`` the
  buffer is appended to a JSONL file and cleared whenever it holds
  ``buffer_limit`` records, so multi-million-event runs trace in
  O(buffer) memory;
* **a process-wide session** — :func:`trace_session` installs a bus that
  :class:`repro.sim.Simulator` and the fluid engines pick up without any
  signature changes (:func:`active_trace_bus`), which is how
  ``repro run --trace`` reaches code deep inside a backend.

The zero-cost-when-off contract: components either hold ``trace = None``
and guard emits with one ``is not None`` check (queues), or call
``sim.trace.record(...)`` where a disabled bus (``TraceBus(enabled=False)``,
every bare simulator's default) returns after a single ``enabled`` check.
``benchmarks/bench_telemetry_overhead.py`` gates this in CI.

This module imports only the standard library, so the simulator core can
import it at module level.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import IO, Any, Iterable, Iterator

__all__ = [
    "TRACE_CATEGORIES",
    "TraceRecord",
    "TraceBus",
    "trace_session",
    "active_trace_bus",
    "write_jsonl",
    "read_jsonl",
]

#: Every category the engines emit, with its contract.  Keep this table in
#: sync with the README "Observability" section (the docs quote it).
TRACE_CATEGORIES: dict[str, str] = {
    "queue": "packet queue accounting: enqueue / dequeue / drop / mark (all disciplines)",
    "aqm": "AQM control law: CoDel drop-state transitions, DualPI2 probability updates",
    "ecn": "ECN plane: ECE echo reaching a sender's congestion response",
    "rto": "retransmission timeouts firing on established connections",
    "cc": "congestion-control state-machine transitions (open/disorder/cwr/recovery/loss)",
    "tcp": "legacy per-connection events: send stalls, connection teardown",
    "link": "link-level events: packets lost in flight on a lossy link",
    "sim": "TCP stack demux anomalies: segments dropped with no matching connection",
    "fluid": "scalar fluid engines: one record per simulated RTT round",
    "vector": "vector population engine: churn fold flushes (departed-flow batches)",
}

_DEFAULT_BUFFER_LIMIT = 65536


@dataclass(frozen=True)
class TraceRecord:
    """A single trace record."""

    time: float
    category: str
    message: str
    fields: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Flatten the record into a plain dictionary."""
        out = {"time": self.time, "category": self.category, "message": self.message}
        out.update(self.fields)
        return out


class TraceBus:
    """Collects :class:`TraceRecord` objects, with bounded memory and JSONL spill.

    Parameters
    ----------
    enabled:
        When ``False`` :meth:`record` is a no-op, keeping the hot path
        cheap (the default bus of a bare simulator is disabled).
    categories:
        Optional whitelist of category names (see :data:`TRACE_CATEGORIES`);
        when given, only those categories are stored.
    max_records:
        Optional cap on the in-memory buffer when there is no
        ``spill_path``; once reached, further records are dropped and
        :attr:`overflowed` is set.
    spill_path:
        When given, the in-memory buffer is appended to this JSONL file and
        cleared every time it reaches ``buffer_limit`` records (and on
        :meth:`close`), keeping memory bounded on long runs.
    buffer_limit:
        In-memory buffer size before a spill (default 65536 records).
    """

    def __init__(
        self,
        enabled: bool = True,
        categories: Iterable[str] | None = None,
        max_records: int | None = None,
        spill_path: str | pathlib.Path | None = None,
        buffer_limit: int = _DEFAULT_BUFFER_LIMIT,
    ) -> None:
        self.enabled = enabled
        self.categories = set(categories) if categories is not None else None
        self.max_records = max_records
        self.records: list[TraceRecord] = []
        self.overflowed = False
        self._clock: Any = None
        self.spill_path = pathlib.Path(spill_path) if spill_path is not None else None
        self.buffer_limit = max(1, int(buffer_limit))
        self.total_records = 0
        self.spilled_records = 0
        self.category_counts: dict[str, int] = {}
        self._sink: IO[str] | None = None

    # ------------------------------------------------------------------
    def bind_clock(self, sim: Any) -> None:
        """Attach a simulator so :meth:`record` can omit the time argument."""
        self._clock = sim

    def record(
        self,
        category: str,
        message: str,
        time: float | None = None,
        **fields: Any,
    ) -> None:
        """Store a record (no-op when disabled or filtered out)."""
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        if (self.spill_path is None and self.max_records is not None
                and len(self.records) >= self.max_records):
            self.overflowed = True
            return
        if time is None:
            time = self._clock.now if self._clock is not None else 0.0
        self.records.append(TraceRecord(time, category, message, fields))
        self.total_records += 1
        self.category_counts[category] = self.category_counts.get(category, 0) + 1
        if self.spill_path is not None and len(self.records) >= self.buffer_limit:
            self.spill()

    # ------------------------------------------------------------------
    def filter(self, category: str) -> list[TraceRecord]:
        """Return all buffered records of one category."""
        return [r for r in self.records if r.category == category]

    def categories_seen(self) -> set[str]:
        """Distinct categories among the buffered records."""
        return {r.category for r in self.records}

    def clear(self) -> None:
        """Drop all buffered records."""
        self.records.clear()
        self.overflowed = False

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return f"<TraceBus {state} records={len(self.records)}>"

    # ------------------------------------------------------------------
    def spill(self) -> int:
        """Append the in-memory buffer to ``spill_path`` and clear it.

        Returns the number of records written.  A no-op (returning 0) when
        no ``spill_path`` is configured.
        """
        if self.spill_path is None or not self.records:
            return 0
        if self._sink is None:
            self.spill_path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = self.spill_path.open("a")
        written = len(self.records)
        for rec in self.records:
            self._sink.write(json.dumps(rec.as_dict()) + "\n")
        self._sink.flush()
        self.spilled_records += written
        self.records.clear()
        return written

    def close(self) -> None:
        """Flush any buffered records to the spill file and close it."""
        self.spill()
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    def __enter__(self) -> "TraceBus":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    def export_jsonl(self, path: str | pathlib.Path) -> int:
        """Write the in-memory records to ``path`` as JSONL; returns count."""
        return write_jsonl(self.records, path)

    def summary(self) -> dict[str, Any]:
        """Record counts by category, plus spill totals — for CLI reporting."""
        return {
            "total_records": self.total_records,
            "spilled_records": self.spilled_records,
            "buffered_records": len(self.records),
            "categories": dict(sorted(self.category_counts.items())),
        }


# ----------------------------------------------------------------------
# JSONL round-trip helpers
# ----------------------------------------------------------------------
def write_jsonl(records: Iterable[TraceRecord], path: str | pathlib.Path) -> int:
    """Write trace records to ``path``, one JSON object per line."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with path.open("w") as sink:
        for rec in records:
            sink.write(json.dumps(rec.as_dict()) + "\n")
            count += 1
    return count


def read_jsonl(path: str | pathlib.Path) -> list[dict[str, Any]]:
    """Parse a JSONL trace file back into a list of flat dictionaries.

    Every line must be a JSON object carrying at least ``time``,
    ``category`` and ``message`` (the :meth:`TraceRecord.as_dict` shape);
    anything else raises ``ValueError`` so CI smoke checks fail loudly.
    """
    out: list[dict[str, Any]] = []
    with pathlib.Path(path).open() as source:
        for lineno, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            entry = json.loads(line)
            if not isinstance(entry, dict):
                raise ValueError(f"{path}:{lineno}: trace line is not an object")
            missing = {"time", "category", "message"} - entry.keys()
            if missing:
                raise ValueError(
                    f"{path}:{lineno}: trace line missing {sorted(missing)}")
            out.append(entry)
    return out


# ----------------------------------------------------------------------
# process-wide trace session
# ----------------------------------------------------------------------
_ACTIVE_BUS: TraceBus | None = None


def active_trace_bus() -> TraceBus | None:
    """The trace bus installed by :func:`trace_session`, if any.

    :class:`repro.sim.Simulator` consults this when constructed without an
    explicit recorder, and the fluid engines consult it at the top of each
    run — that is how ``repro run --trace`` reaches engines created deep
    inside a backend without threading a parameter through every layer.
    """
    return _ACTIVE_BUS


@contextlib.contextmanager
def trace_session(bus: TraceBus) -> Iterator[TraceBus]:
    """Install ``bus`` as the process-wide trace bus for the duration.

    Sessions nest: the previous bus (usually ``None``) is restored on
    exit, even on error.  Note the session is *per process* — it does not
    propagate into ``ProcessPoolExecutor`` workers, which is why the CLI
    forces serial execution while ``--trace`` is active.
    """
    global _ACTIVE_BUS
    previous = _ACTIVE_BUS
    _ACTIVE_BUS = bus
    try:
        yield bus
    finally:
        _ACTIVE_BUS = previous
