"""Discrete-event simulation engine (substrate).

Public surface:

* :class:`~repro.sim.engine.Simulator` — the event loop every component
  schedules on.
* :class:`~repro.sim.events.Event` / :class:`~repro.sim.events.EventPriority`
* :class:`~repro.sim.timers.Timer` / :class:`~repro.sim.timers.PeriodicTask`
* :class:`~repro.sim.randomness.RandomStreams`

Tracing lives in :mod:`repro.obs.trace` (:class:`~repro.obs.trace.TraceBus`).
"""

from .engine import Simulator
from .events import Event, EventPriority
from .randomness import RandomStreams, derive_seed
from .timers import PeriodicTask, Timer

__all__ = [
    "Simulator",
    "Event",
    "EventPriority",
    "Timer",
    "PeriodicTask",
    "RandomStreams",
    "derive_seed",
]
