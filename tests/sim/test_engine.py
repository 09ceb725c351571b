"""Tests for the discrete-event engine."""

from __future__ import annotations

import functools
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ScheduleInPastError, SimulationError
from repro.sim import Event, EventPriority, Simulator


class TestScheduling:
    def test_initial_time_is_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_callback_at_time(self, sim):
        fired = []
        sim.schedule(1.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [1.5]

    def test_schedule_at_absolute_time(self, sim):
        fired = []
        sim.schedule_at(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_schedule_with_args_and_kwargs(self, sim):
        # callbacks take positional args; keywords are bound with partial
        got = []
        sim.schedule(0.1, functools.partial(lambda a, b=None: got.append((a, b)), b=2), 1)
        sim.run()
        assert got == [(1, 2)]

    def test_schedule_rejects_keyword_arguments(self, sim):
        with pytest.raises(TypeError):
            sim.schedule(0.1, lambda b=None: None, b=2)  # type: ignore[call-arg]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ScheduleInPastError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ScheduleInPastError):
            sim.schedule_at(0.5, lambda: None)

    def test_non_finite_time_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule_at(float("inf"), lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(float("nan"), lambda: None)

    def test_events_scheduled_counter(self, sim):
        for _ in range(5):
            sim.schedule(0.1, lambda: None)
        assert sim.events_scheduled == 5


class TestSchedulingContract:
    """One validated push behind ``schedule``, ``schedule_at`` and ``post``."""

    @pytest.mark.parametrize("delay", [-1e-9, -1.0, -math.inf])
    def test_negative_delay_raises_schedule_in_past(self, sim, delay):
        with pytest.raises(ScheduleInPastError):
            sim.schedule(delay, lambda: None)
        with pytest.raises(ScheduleInPastError):
            sim.post(delay, lambda: None)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_delay_or_time_raises(self, sim, value):
        with pytest.raises(SimulationError) as delay_error:
            sim.schedule(value, lambda: None)
        with pytest.raises(SimulationError) as post_error:
            sim.post(value, lambda: None)
        with pytest.raises(SimulationError) as time_error:
            sim.schedule_at(value, lambda: None)
        for error in (delay_error, post_error, time_error):
            assert not isinstance(error.value, ScheduleInPastError)

    def test_schedule_at_in_the_past_raises(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ScheduleInPastError):
            sim.schedule_at(0.999, lambda: None)

    def test_rejected_schedule_leaves_no_trace(self, sim):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(SimulationError):
                sim.post(bad, lambda: None)
        assert sim.events_scheduled == 0
        assert sim.pending_events() == 0

    def test_zero_delay_runs_now(self, sim):
        fired = []
        sim.post(0.0, lambda: fired.append(sim.now))
        sim.schedule_at(0.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.0, 0.0]

    def test_same_time_fifo_across_handle_and_handleless(self, sim):
        order = []
        for tag in range(12):
            if tag % 3 == 0:
                sim.post(1.0, order.append, tag)
            elif tag % 3 == 1:
                sim.schedule(1.0, order.append, tag)
            else:
                sim.schedule_at(1.0, order.append, tag)
        sim.run()
        assert order == list(range(12))

    def test_post_returns_no_handle_and_counts(self, sim):
        assert sim.post(0.5, lambda: None) is None
        assert sim.events_scheduled == 1
        sim.run()
        assert sim.events_processed == 1

    def test_post_passes_positional_args(self, sim):
        got = []
        sim.post(0.1, lambda a, b: got.append((a, b, sim.now)), 1, 2)
        sim.run()
        assert got == [(1, 2, 0.1)]

    def test_clock_is_the_current_time(self, sim):
        clock = sim.clock
        seen = []
        sim.post(0.25, lambda: seen.append((clock(), sim.now)))
        sim.run()
        assert seen == [(0.25, 0.25)]
        assert clock() == sim.now == 0.25

    def test_step_runs_handleless_entries(self, sim):
        fired = []
        sim.post(0.2, fired.append, "post")
        ev = sim.schedule(0.1, fired.append, "cancelled")
        sim.schedule(0.3, fired.append, "schedule")
        sim.cancel(ev)
        assert sim.step() is True
        assert fired == ["post"]
        assert sim.now == 0.2
        assert sim.step() is True
        assert fired == ["post", "schedule"]
        assert sim.step() is False
        assert sim.events_processed == 2

    def test_drain_yields_an_event_per_pending_entry(self, sim):
        sim.post(2.0, print, "b")
        handle = sim.schedule(1.0, print, "a")
        sim.cancel(handle)
        sim.schedule_at(3.0, print, "c")
        drained = list(sim.drain())
        assert all(isinstance(ev, Event) for ev in drained)
        assert [ev.time for ev in drained] == [1.0, 2.0, 3.0]
        assert drained[0] is handle and drained[0].cancelled
        assert [ev.args for ev in drained] == [("a",), ("b",), ("c",)]
        assert [ev.seq for ev in drained] == [2, 1, 3]
        assert sim.pending_events() == 0

    def test_peek_next_time_sees_handleless_entries(self, sim):
        assert sim.peek_next_time() is None
        ev = sim.schedule(0.5, lambda: None)
        sim.post(1.5, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.cancel(ev)
        assert sim.peek_next_time() == 1.0
        assert sim.pending_events() == 3

    def test_events_processed_after_max_events(self, sim):
        for i in range(6):
            sim.post(0.1 * (i + 1), lambda: None)
        sim.run(max_events=4)
        assert sim.events_processed == 4
        assert sim.now == pytest.approx(0.4)
        sim.run()
        assert sim.events_processed == 6


class TestOrdering:
    def test_events_run_in_time_order(self, sim):
        order = []
        sim.schedule(0.3, lambda: order.append("c"))
        sim.schedule(0.1, lambda: order.append("a"))
        sim.schedule(0.2, lambda: order.append("b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo_order(self, sim):
        order = []
        for tag in range(10):
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == list(range(10))

    def test_priority_breaks_ties(self, sim):
        order = []
        sim.schedule(1.0, lambda: order.append("late"), priority=EventPriority.LATE)
        sim.schedule(1.0, lambda: order.append("early"), priority=EventPriority.EARLY)
        sim.schedule(1.0, lambda: order.append("normal"))
        sim.run()
        assert order == ["early", "normal", "late"]

    @given(st.lists(st.floats(min_value=0.001, max_value=100.0), min_size=1, max_size=40))
    def test_execution_times_are_sorted(self, delays):
        sim = Simulator(seed=1)
        times = []
        for d in delays:
            sim.schedule(d, lambda: times.append(sim.now))
        sim.run()
        assert times == sorted(times)
        assert len(times) == len(delays)


class TestRunControl:
    def test_run_until_horizon(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_event_exactly_at_horizon_runs(self, sim):
        fired = []
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run(until=2.0)
        assert fired == [2]

    def test_remaining_events_stay_queued(self, sim):
        sim.schedule(5.0, lambda: None)
        sim.run(until=1.0)
        assert sim.pending_events() == 1

    def test_run_with_no_events_advances_to_horizon(self, sim):
        assert sim.run(until=4.0) == 4.0

    def test_horizon_before_now_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)

    def test_stop_halts_loop(self, sim):
        fired = []
        sim.schedule(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]

    def test_run_resumes_after_stop(self, sim):
        fired = []
        sim.schedule(1.0, lambda: sim.stop())
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run()
        sim.run()
        assert fired == [2]

    def test_max_events_bound(self, sim):
        for i in range(10):
            sim.schedule(0.1 * (i + 1), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_step_runs_one_event(self, sim):
        fired = []
        sim.schedule(0.5, lambda: fired.append(1))
        sim.schedule(0.7, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]

    def test_reentrant_run_rejected(self, sim):
        def reenter():
            sim.run()
        sim.schedule(0.1, reenter)
        with pytest.raises(SimulationError):
            sim.run()


class TestCancellation:
    def test_cancelled_event_does_not_run(self, sim):
        fired = []
        ev = sim.schedule(1.0, lambda: fired.append(1))
        sim.cancel(ev)
        sim.run()
        assert fired == []

    def test_cancel_none_is_noop(self, sim):
        sim.cancel(None)

    def test_cancel_counts(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.cancel(ev)
        sim.cancel(ev)  # double-cancel is harmless
        assert sim.events_cancelled == 1

    def test_events_scheduled_from_callbacks(self, sim):
        fired = []

        def chain(n):
            fired.append(sim.now)
            if n > 0:
                sim.schedule(1.0, chain, n - 1)

        sim.schedule(1.0, chain, 3)
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_peek_next_time_skips_cancelled(self, sim):
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.cancel(ev)
        assert sim.peek_next_time() == 2.0

    def test_drain_empties_heap(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        events = list(sim.drain())
        assert len(events) == 2
        assert sim.pending_events() == 0


class TestRandomStreams:
    def test_named_streams_are_stable(self):
        a = Simulator(seed=42).rng("loss").random(5)
        b = Simulator(seed=42).rng("loss").random(5)
        assert list(a) == list(b)

    def test_different_names_differ(self):
        sim = Simulator(seed=42)
        assert list(sim.rng("a").random(3)) != list(sim.rng("b").random(3))

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).rng("x").random(3)
        b = Simulator(seed=2).rng("x").random(3)
        assert list(a) != list(b)
