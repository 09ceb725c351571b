"""Tests for Timer and PeriodicTask."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.sim import PeriodicTask, Timer


class TestTimer:
    def test_fires_after_timeout(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(0.5)
        sim.run()
        assert fired == [0.5]
        assert timer.expirations == 1

    def test_not_running_initially(self, sim):
        timer = Timer(sim, lambda: None)
        assert not timer.is_running
        assert timer.expiry_time is None

    def test_running_while_armed(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        assert timer.is_running
        assert timer.expiry_time == pytest.approx(1.0)

    def test_stop_prevents_firing(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(1))
        timer.start(1.0)
        timer.stop()
        sim.run()
        assert fired == []
        assert not timer.is_running

    def test_restart_replaces_expiry(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        timer.restart(2.0)
        sim.run()
        assert fired == [2.0]

    def test_double_start_rejected(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        with pytest.raises(ConfigurationError):
            timer.start(2.0)

    def test_negative_timeout_rejected(self, sim):
        timer = Timer(sim, lambda: None)
        with pytest.raises(ConfigurationError):
            timer.start(-1.0)

    def test_timer_not_running_after_firing(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(0.5)
        sim.run()
        assert not timer.is_running

    def test_timer_can_be_rearmed_from_callback(self, sim):
        fired = []

        def cb():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer = Timer(sim, cb)
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_stop_idle_timer_is_noop(self, sim):
        timer = Timer(sim, lambda: None)
        timer.stop()  # should not raise


class TestLazyRestart:
    """A restart to a later expiry keeps the heap entry, which re-arms
    itself at the new deadline in the FIFO place of the restart."""

    def test_reports_the_new_expiry(self, sim):
        timer = Timer(sim, lambda: None)
        timer.start(1.0)
        sim.run(until=0.25)
        timer.restart(2.0)
        assert timer.is_running
        assert timer.expiry_time == 2.25
        sim.run(until=1.5)  # the first entry came due and re-armed
        assert timer.is_running and timer.expiry_time == 2.25
        assert timer.expirations == 0

    def test_restart_to_an_earlier_expiry_fires_early(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(2.0)
        timer.restart(0.5)
        assert timer.expiry_time == 0.5
        sim.run()
        assert fired == [0.5]

    def test_stop_after_a_lazy_restart_never_fires(self, sim):
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(1.0)
        sim.run(until=0.5)
        timer.restart(1.0)
        timer.stop()
        assert not timer.is_running and timer.expiry_time is None
        sim.run()
        assert fired == []
        # stopped while re-armed, too
        timer.start(1.0)
        timer.restart(3.0)
        sim.run(until=sim.now + 2.0)
        timer.stop()
        sim.run()
        assert fired == [] and timer.expirations == 0

    def test_stop_then_start_reuses_the_pending_entry(self, sim):
        # the delayed-ACK pattern: armed, stopped, armed again later
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        for t in (0.0, 0.25, 0.5):
            sim.schedule_at(t, timer.start, 1.0)
            sim.schedule_at(t + 0.125, timer.stop)
        sim.schedule_at(0.75, timer.start, 1.0)
        sim.run()
        assert fired == [1.75] and timer.expirations == 1
        # one expiry entry served every arming: 7 scripted events + 1 + 1 re-arm
        assert sim.events_scheduled == 9

    def test_firing_sequence_is_pinned(self, sim):
        # the RTO pattern: restarted on every "ACK", fires once they stop,
        # re-armed from its own callback; same-time events keep the order
        # a cancel and reschedule at each restart gave them
        log = []

        def expired():
            log.append(("fire", sim.now))
            if timer.expirations == 1:
                timer.start(0.25)
                timer.restart(0.5)

        timer = Timer(sim, expired)
        sim.schedule_at(1.75, log.append, ("before", 1.75))
        timer.start(1.0)
        for t in (0.25, 0.5, 0.75):
            sim.schedule_at(t, timer.restart, 1.0)
        sim.schedule_at(1.0, sim.schedule_at, 1.75, log.append, ("after", 1.75))
        sim.schedule_at(2.25, log.append, ("tie", 2.25))
        sim.run()
        assert log == [("before", 1.75), ("fire", 1.75), ("after", 1.75),
                       ("tie", 2.25), ("fire", 2.25)]
        assert timer.expirations == 2 and not timer.is_running


class TestPeriodicTask:
    def test_fires_every_interval(self, sim):
        ticks = []
        task = PeriodicTask(sim, 0.5, lambda now: ticks.append(now))
        task.start()
        sim.run(until=2.0)
        assert ticks == [0.5, 1.0, 1.5, 2.0]

    def test_fire_now_includes_t0(self, sim):
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda now: ticks.append(now))
        task.start(fire_now=True)
        sim.run(until=2.0)
        assert ticks == [0.0, 1.0, 2.0]

    def test_stop_halts_ticks(self, sim):
        ticks = []
        task = PeriodicTask(sim, 0.5, lambda now: ticks.append(now))
        task.start()
        sim.schedule(1.1, task.stop)
        sim.run(until=3.0)
        assert ticks == [0.5, 1.0]

    def test_invalid_interval_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            PeriodicTask(sim, 0.0, lambda now: None)

    def test_double_start_is_idempotent(self, sim):
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda now: ticks.append(now))
        task.start()
        task.start()
        sim.run(until=2.0)
        assert ticks == [1.0, 2.0]

    def test_invocation_counter(self, sim):
        task = PeriodicTask(sim, 0.25, lambda now: None)
        task.start()
        sim.run(until=1.0)
        assert task.invocations == 4

    def test_is_running_flag(self, sim):
        task = PeriodicTask(sim, 1.0, lambda now: None)
        assert not task.is_running
        task.start()
        assert task.is_running
        task.stop()
        assert not task.is_running
