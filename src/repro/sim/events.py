"""Event objects used by the discrete-event engine.

Events are small slotted objects ordered by ``(time, priority, sequence)``.
The sequence number is assigned by the :class:`~repro.sim.engine.Simulator`
at scheduling time and guarantees a deterministic FIFO order for events
scheduled at the same instant — which in turn makes every simulation run
bit-for-bit reproducible for a given seed.

An :class:`Event` is the *handle* of a scheduled callback: the engine's
heap entry carries the callback itself and consults the handle only to
skip cancelled entries.  Callbacks scheduled with
:meth:`~repro.sim.engine.Simulator.post` have no handle at all.
"""

from __future__ import annotations

from typing import Any, Callable

__all__ = ["Event", "EventPriority"]


class EventPriority:
    """Symbolic priorities for simultaneous events.

    Lower values run first.  Most events use :data:`NORMAL`; the engine's
    internal bookkeeping (e.g. run-until sentinels) uses :data:`LATE` so that
    user events scheduled at exactly the stop time still execute.
    """

    EARLY = 0
    NORMAL = 1
    LATE = 2


class Event:
    """A scheduled callback.

    Instances are created by :meth:`repro.sim.engine.Simulator.schedule`; user
    code normally only keeps the handle around to be able to
    :meth:`cancel` it.  ``callback(*args)`` is what the engine runs.
    """

    __slots__ = ("time", "priority", "seq", "callback", "args", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[..., Any],
        args: tuple[Any, ...] = (),
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    # Ordering ---------------------------------------------------------
    def sort_key(self) -> tuple[float, int, int]:
        """Key used by the engine's priority queue."""
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    # Cancellation ------------------------------------------------------
    def cancel(self) -> None:
        """Mark the event as cancelled.

        Cancelled events stay in the heap but are skipped when popped; this
        is O(1) and avoids a heap rebuild.
        """
        self.cancelled = True

    @property
    def is_pending(self) -> bool:
        """True if the event has not been cancelled (it may already have run)."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = getattr(self.callback, "__qualname__", repr(self.callback))
        state = "cancelled" if self.cancelled else "pending"
        return f"<Event t={self.time:.6f} seq={self.seq} {name} [{state}]>"
