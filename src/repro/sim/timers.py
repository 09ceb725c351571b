"""Timer helpers built on top of the event engine.

Two idioms recur throughout protocol code:

* a *restartable one-shot timer* (retransmission timer, delayed-ACK timer,
  idle timer) — :class:`Timer`;
* a *periodic task* (tracers sampling cwnd/queue occupancy, controllers with
  a fixed sample interval) — :class:`PeriodicTask`.

Both wrap the raw :class:`~repro.sim.engine.Simulator` scheduling API with
cancel/restart bookkeeping so protocol code stays readable.
"""

from __future__ import annotations

from typing import Any, Callable

from ..errors import ConfigurationError
from .engine import Simulator
from .events import Event

__all__ = ["Timer", "PeriodicTask"]


class Timer:
    """A restartable one-shot timer.

    The callback fires once, ``timeout`` seconds after the most recent
    :meth:`start` / :meth:`restart`, unless :meth:`stop` disarms it first.

    Protocol timers are re-armed far more often than they fire (the
    retransmission timer on every ACK, the delayed-ACK timer on every
    other segment), so re-arming is lazy.  The timer keeps one heap entry.
    Stopping only disarms; arming for an expiry no earlier than the entry
    records the deadline, with the FIFO place a freshly scheduled expiry
    would take (:meth:`~repro.sim.engine.Simulator.reserve_seq`).  When the
    entry comes due it fires, re-arms itself at that deadline and place, or
    lapses if the timer was disarmed, so the timer fires exactly when, and
    in the order, a cancel and reschedule would have fired it.  Arming for
    an earlier expiry cancels the entry and schedules a new one.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any], name: str = "timer") -> None:
        self.sim = sim
        self.callback = callback
        self.name = name
        #: The pending heap entry; it may come due before ``_deadline``,
        #: and outlive a :meth:`stop`.
        self._event: Event | None = None
        self._armed = False
        self._deadline = 0.0
        self._deadline_seq = 0
        self.expirations = 0

    # ------------------------------------------------------------------
    @property
    def is_running(self) -> bool:
        """True while an expiry is armed."""
        return self._armed

    @property
    def expiry_time(self) -> float | None:
        """Absolute expiry time, or ``None`` when idle."""
        return self._deadline if self._armed else None

    # ------------------------------------------------------------------
    def start(self, timeout: float) -> None:
        """Arm the timer ``timeout`` seconds from now (error if already armed)."""
        if timeout < 0:
            raise ConfigurationError(f"timer timeout must be >= 0, got {timeout!r}")
        if self._armed:
            raise ConfigurationError(f"timer {self.name!r} is already running")
        sim = self.sim
        self._armed = True
        event = self._event
        if event is not None:
            deadline = sim.now + timeout
            if deadline >= event.time:
                # keep the pending entry; it re-arms itself when it comes due
                self._deadline = deadline
                self._deadline_seq = sim.reserve_seq()
                return
            sim.cancel(event)
        self._event = event = sim.schedule(timeout, self._fire)
        self._deadline = event.time
        self._deadline_seq = event.seq

    def restart(self, timeout: float) -> None:
        """(Re-)arm the timer ``timeout`` seconds from now."""
        self._armed = False
        self.start(timeout)

    def stop(self) -> None:
        """Disarm the timer (no-op when idle)."""
        self._armed = False

    def _fire(self) -> None:
        event = self._event
        assert event is not None
        if not self._armed:
            # stopped since this entry was scheduled: it lapses
            self._event = None
            return
        if event.seq != self._deadline_seq:
            # re-armed for a later deadline: move there, in its FIFO place
            self._event = self.sim.schedule_at(self._deadline, self._fire,
                                               seq=self._deadline_seq)
            return
        self._event = None
        self._armed = False
        self.expirations += 1
        self.callback()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"expires@{self.expiry_time:.6f}" if self.is_running else "idle"
        return f"<Timer {self.name} {state}>"


class PeriodicTask:
    """Invoke a callback every ``interval`` seconds until stopped.

    The callback receives the current simulation time.  The first invocation
    happens ``interval`` seconds after :meth:`start` unless ``fire_now`` is
    set, in which case it also runs immediately (at the current time).
    """

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        callback: Callable[[float], Any],
        name: str = "periodic",
    ) -> None:
        if interval <= 0:
            raise ConfigurationError(f"interval must be positive, got {interval!r}")
        self.sim = sim
        self.interval = float(interval)
        self.callback = callback
        self.name = name
        self._event: Event | None = None
        self._running = False
        self.invocations = 0

    @property
    def is_running(self) -> bool:
        return self._running

    def start(self, fire_now: bool = False) -> None:
        """Begin periodic invocation."""
        if self._running:
            return
        self._running = True
        if fire_now:
            self.invocations += 1
            self.callback(self.sim.now)
        self._event = self.sim.schedule(self.interval, self._tick)

    def stop(self) -> None:
        """Stop periodic invocation."""
        self._running = False
        if self._event is not None:
            self.sim.cancel(self._event)
            self._event = None

    def _tick(self) -> None:
        if not self._running:
            return
        self.invocations += 1
        self.callback(self.sim.now)
        if self._running:
            self._event = self.sim.schedule(self.interval, self._tick)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return f"<PeriodicTask {self.name} every {self.interval}s [{state}]>"
