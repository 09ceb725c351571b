"""Tests for event objects."""

from __future__ import annotations

import functools

from hypothesis import given
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.events import Event, EventPriority


def make_event(time=1.0, priority=EventPriority.NORMAL, seq=1, callback=None):
    return Event(time, priority, seq, callback or (lambda: None))


class TestOrdering:
    def test_earlier_time_sorts_first(self):
        assert make_event(time=1.0, seq=2) < make_event(time=2.0, seq=1)

    def test_priority_breaks_time_tie(self):
        early = make_event(priority=EventPriority.EARLY, seq=5)
        late = make_event(priority=EventPriority.LATE, seq=1)
        assert early < late

    def test_sequence_breaks_full_tie(self):
        assert make_event(seq=1) < make_event(seq=2)

    def test_sort_key_tuple(self):
        ev = make_event(time=3.0, priority=EventPriority.LATE, seq=7)
        assert ev.sort_key() == (3.0, EventPriority.LATE, 7)

    @given(st.lists(st.tuples(st.floats(min_value=0, max_value=100, allow_nan=False),
                              st.integers(min_value=0, max_value=2),
                              st.integers(min_value=0, max_value=10_000)),
                    min_size=2, max_size=50))
    def test_ordering_matches_key_ordering(self, specs):
        events = [Event(t, p, s, lambda: None) for t, p, s in specs]
        sorted_events = sorted(events)
        keys = [e.sort_key() for e in sorted_events]
        assert keys == sorted(keys)


class TestCancellation:
    def test_new_event_is_pending(self):
        assert make_event().is_pending

    def test_cancel_clears_pending(self):
        ev = make_event()
        ev.cancel()
        assert ev.cancelled
        assert not ev.is_pending


class TestExecution:
    def test_run_invokes_callback_with_args(self):
        got = []
        sim = Simulator()
        ev = sim.schedule(1.0, lambda a, b: got.append((a, b)), 1, 2)
        assert ev.args == (1, 2)
        sim.run()
        assert got == [(1, 2)]

    def test_run_with_kwargs(self):
        # no keyword path: keywords are bound into the callback
        got = []
        sim = Simulator()
        sim.schedule(1.0, functools.partial(lambda a, b=0: got.append((a, b)), b=9), 5)
        sim.run()
        assert got == [(5, 9)]

    def test_event_has_no_kwargs_or_run(self):
        ev = make_event()
        assert not hasattr(ev, "kwargs")
        assert not hasattr(ev, "run")

    def test_priorities_are_ordered_constants(self):
        assert EventPriority.EARLY < EventPriority.NORMAL < EventPriority.LATE
