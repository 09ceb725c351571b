"""Discrete-event simulation engine.

The :class:`Simulator` is the backbone of every experiment in this
repository: hosts, links, queues, TCP connections and controllers all
schedule callbacks on a single simulator instance.  The design follows the
classic event-list pattern:

* a binary heap (:mod:`heapq`) holds one tuple per pending callback,
  ``(time, priority, seq, handle, callback, args)``, ordered by
  ``(time, priority, seq)``; ``seq`` is unique, so the comparison never
  reaches the other fields and same-time, same-priority entries run in
  the order they were scheduled;
* :meth:`Simulator.run` pops entries until the horizon, a stop request, or
  exhaustion, and calls ``callback(*args)`` directly;
* ``handle`` is the :class:`~repro.sim.events.Event` returned by
  :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at`; cancellation
  is lazy (the handle is flagged and the entry skipped when popped), which
  keeps the hot path free of heap surgery.  :meth:`Simulator.post`
  schedules without a handle (``handle`` is ``None``): the two events of
  every packet-hop, transmission-complete and delivery, are never
  cancelled, so they allocate no :class:`Event`.

Callbacks take positional arguments only; bind keywords with
:func:`functools.partial`.

Keeping the inner loop small matters: a 25-second, 100 Mbit/s packet-level
run processes a few million events (see ``benchmarks/bench_engine.py``), so
scheduling validates once, allocates nothing it does not need, and the loop
avoids attribute lookups where reasonable.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

from ..errors import ScheduleInPastError, SimulationError
from .events import Event, EventPriority
from .randomness import RandomStreams
from .tracing import TraceRecorder

__all__ = ["Simulator"]

#: One heap entry: ``(time, priority, seq, handle, callback, args)``.
_Entry = tuple[float, int, int, Optional[Event], Callable[..., Any], tuple[Any, ...]]

_INF = math.inf
_NORMAL = EventPriority.NORMAL


def _invalid_delay(delay: float) -> SimulationError:
    """The error for a ``delay`` outside ``[0, inf)``."""
    if delay < 0:
        return ScheduleInPastError(f"negative delay {delay!r}")
    return SimulationError(f"event time must be finite, got delay {delay!r}")


class Simulator:
    """Single-threaded discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulation's named random streams
        (see :class:`repro.sim.randomness.RandomStreams`).
    trace:
        Optional :class:`~repro.sim.tracing.TraceRecorder`.  When omitted,
        the ambient bus installed by
        :func:`repro.obs.trace.trace_session` is adopted if one is active
        (that is how ``repro run --trace`` reaches simulators built deep
        inside a backend); otherwise a disabled recorder is created so
        components can call ``sim.trace.record(...)`` unconditionally.
    """

    def __init__(self, seed: int = 1, trace: TraceRecorder | None = None) -> None:
        self._now: float = 0.0
        self._heap: list[_Entry] = []
        self._seq: int = 0
        self._running: bool = False
        self._stopped: bool = False
        self.events_processed: int = 0
        self.events_scheduled: int = 0
        self.events_cancelled: int = 0
        self.streams = RandomStreams(seed)
        if trace is None:
            # Imported lazily: repro.obs.trace builds on sim.tracing, so a
            # module-level import here would be circular.
            from ..obs.trace import active_trace_bus

            trace = active_trace_bus()
            if trace is not None:
                trace.bind_clock(self)
        self.trace = trace if trace is not None else TraceRecorder(enabled=False)

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def clock(self) -> float:
        """Current simulation time in seconds, as a plain method.

        Components that read the time on every packet (queues) hold the
        bound method ``sim.clock``: one call, no property lookup.
        """
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` after ``delay`` seconds.

        Returns the :class:`Event` handle, which may be cancelled.  A
        negative delay raises :class:`ScheduleInPastError`; a NaN or
        infinite one raises :class:`SimulationError`.
        """
        if not 0.0 <= delay < _INF:
            raise _invalid_delay(delay)
        time = self._now + delay
        self._seq = seq = self._seq + 1
        event = Event(time, priority, seq, callback, args)
        heapq.heappush(self._heap, (time, priority, seq, event, callback, args))
        self.events_scheduled += 1
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = EventPriority.NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute simulation ``time``."""
        if not self._now <= time < _INF:
            if math.isnan(time) or math.isinf(time):
                raise SimulationError(f"event time must be finite, got {time!r}")
            raise ScheduleInPastError(
                f"cannot schedule at {time!r}; current time is {self._now!r}"
            )
        self._seq = seq = self._seq + 1
        event = Event(time, priority, seq, callback, args)
        heapq.heappush(self._heap, (time, priority, seq, event, callback, args))
        self.events_scheduled += 1
        return event

    def post(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds, without a handle.

        Same validation, priority (``NORMAL``) and FIFO order as
        :meth:`schedule`, but nothing is returned, so the callback cannot be
        cancelled and no :class:`Event` is allocated.  For per-packet events
        nobody cancels.
        """
        if not 0.0 <= delay < _INF:
            raise _invalid_delay(delay)
        time = self._now + delay
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (time, _NORMAL, seq, None, callback, args))
        self.events_scheduled += 1

    def cancel(self, event: Event | None) -> None:
        """Cancel a previously scheduled event (no-op for ``None``)."""
        if event is not None and not event.cancelled:
            event.cancel()
            self.events_cancelled += 1

    # ------------------------------------------------------------------
    # random streams
    # ------------------------------------------------------------------
    def rng(self, name: str) -> "np.random.Generator":
        """Return the named :class:`numpy.random.Generator` stream."""
        return self.streams.get(name)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the event list is
        empty (cancelled events are skipped transparently).
        """
        heap = self._heap
        while heap:
            time, _priority, _seq, handle, callback, args = heapq.heappop(heap)
            if handle is not None and handle.cancelled:
                continue
            self._now = time
            self.events_processed += 1
            callback(*args)
            return True
        return False

    def run(self, until: float | None = None, max_events: int | None = None) -> float:
        """Run the event loop.

        Parameters
        ----------
        until:
            Simulation horizon (seconds).  Events scheduled exactly at the
            horizon are executed; later events remain queued.  ``None`` runs
            to event exhaustion.
        max_events:
            Optional safety valve on the number of events processed in this
            call; mostly useful in tests guarding against runaway loops.

        Returns the simulation time when the loop stopped.
        :attr:`events_processed` is brought up to date when the call returns.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        if until is not None and until < self._now:
            raise SimulationError(
                f"horizon {until!r} lies before current time {self._now!r}"
            )
        self._running = True
        self._stopped = False
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        processed = 0
        heap = self._heap
        heappop = heapq.heappop
        try:
            while heap and not self._stopped:
                if heap[0][0] > horizon:
                    break
                time, _priority, _seq, handle, callback, args = heappop(heap)
                if handle is not None and handle.cancelled:
                    continue
                self._now = time
                processed += 1
                callback(*args)
                if processed >= budget:
                    break
        finally:
            self._running = False
            self.events_processed += processed
        if until is not None and not self._stopped and processed < budget:
            # Advance the clock to the horizon even if the event list dried up
            # earlier, so wall-clock style measurements stay meaningful.
            self._now = max(self._now, until)
        return self._now

    def stop(self) -> None:
        """Request the running loop to stop after the current event."""
        self._stopped = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending_events(self) -> int:
        """Number of events still in the heap (including cancelled ones)."""
        return len(self._heap)

    def peek_next_time(self) -> float | None:
        """Time of the next pending (non-cancelled) event, or ``None``."""
        live = [entry[0] for entry in self._heap
                if entry[3] is None or not entry[3].cancelled]
        return min(live) if live else None

    def drain(self) -> Iterable[Event]:
        """Remove and yield all remaining events (used by tests/teardown).

        Entries scheduled without a handle (:meth:`post`) are yielded as a
        fresh :class:`Event`, so every pending entry yields one.
        """
        while self._heap:
            time, priority, seq, handle, callback, args = heapq.heappop(self._heap)
            yield handle if handle is not None else Event(time, priority, seq, callback, args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator t={self._now:.6f} pending={len(self._heap)} "
            f"processed={self.events_processed}>"
        )
