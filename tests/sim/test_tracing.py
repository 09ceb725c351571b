"""Tests for the trace recorder (:class:`repro.obs.TraceBus`) on a simulator."""

from __future__ import annotations

import pytest

from repro.obs import TraceBus, trace_session
from repro.sim import Simulator


class TestTraceRecorder:
    def test_disabled_recorder_is_noop(self):
        recorder = TraceBus(enabled=False)
        recorder.record("cat", "msg")
        assert len(recorder) == 0

    def test_records_with_fields(self):
        recorder = TraceBus()
        recorder.record("tcp", "stall", time=1.5, cwnd=10)
        rec = recorder.records[0]
        assert rec.time == 1.5
        assert rec.category == "tcp"
        assert rec.fields["cwnd"] == 10

    def test_as_dict_flattens(self):
        recorder = TraceBus()
        recorder.record("link", "loss", time=0.5, uid=3)
        d = recorder.records[0].as_dict()
        assert d == {"time": 0.5, "category": "link", "message": "loss", "uid": 3}

    def test_category_filter(self):
        recorder = TraceBus(categories=["tcp"])
        recorder.record("tcp", "a", time=0.0)
        recorder.record("link", "b", time=0.0)
        assert len(recorder) == 1
        assert recorder.categories_seen() == {"tcp"}

    def test_filter_by_category(self):
        recorder = TraceBus()
        recorder.record("a", "1", time=0.0)
        recorder.record("b", "2", time=0.0)
        recorder.record("a", "3", time=0.0)
        assert [r.message for r in recorder.filter("a")] == ["1", "3"]

    def test_max_records_overflow(self):
        recorder = TraceBus(max_records=2)
        for i in range(5):
            recorder.record("x", str(i), time=float(i))
        assert len(recorder) == 2
        assert recorder.overflowed

    def test_clock_binding_supplies_time(self):
        sim = Simulator(seed=1)
        recorder = TraceBus()
        recorder.bind_clock(sim)
        sim.schedule(2.5, lambda: recorder.record("t", "now"))
        sim.run()
        assert recorder.records[0].time == 2.5

    def test_clear(self):
        recorder = TraceBus(max_records=1)
        recorder.record("x", "1", time=0.0)
        recorder.record("x", "2", time=0.0)
        recorder.clear()
        assert len(recorder) == 0
        assert not recorder.overflowed

    def test_iteration(self):
        recorder = TraceBus()
        recorder.record("x", "1", time=0.0)
        recorder.record("x", "2", time=1.0)
        assert [r.message for r in recorder] == ["1", "2"]

    def test_simulator_has_disabled_recorder_by_default(self):
        sim = Simulator(seed=1)
        sim.trace.record("anything", "ignored")
        assert len(sim.trace) == 0


class TestSimulatorClock:
    @pytest.mark.parametrize("via_session", [False, True], ids=["explicit", "session"])
    def test_bus_is_bound_to_the_simulator_clock(self, via_session):
        # records emitted without a time (tcp send_stall, conn_state, cc
        # state, demux_drop) must carry the current simulation time
        bus = TraceBus()
        if via_session:
            with trace_session(bus):
                sim = Simulator(seed=1)
        else:
            sim = Simulator(seed=1, trace=bus)
        sim.schedule(1.5, lambda: sim.trace.record("tcp", "send_stall", conn="c0"))
        sim.run()
        assert [r.time for r in bus] == [1.5]
