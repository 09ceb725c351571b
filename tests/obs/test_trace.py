"""TraceBus: disabled no-op, category filtering, spill, JSONL round-trip."""

from __future__ import annotations

import json
import tracemalloc

import pytest

from repro.obs.trace import (
    TRACE_CATEGORIES,
    TraceBus,
    TraceRecord,
    active_trace_bus,
    read_jsonl,
    trace_session,
    write_jsonl,
)


class TestDisabledPath:
    def test_disabled_bus_records_nothing(self):
        bus = TraceBus(enabled=False)
        for _ in range(100):
            bus.record("queue", "enqueue", time=0.0, uid=1, qlen=3)
        assert bus.records == []
        assert bus.total_records == 0
        assert bus.category_counts == {}

    def test_disabled_bus_returns_before_building_a_record(self, monkeypatch):
        # the zero-cost-off contract: after the single `enabled` check the
        # disabled path must not construct anything
        bus = TraceBus(enabled=False)
        monkeypatch.setattr("repro.obs.trace.TraceRecord",
                            lambda *a, **k: pytest.fail("record built while off"))
        bus.record("queue", "drop", time=1.0)

    def test_disabled_bus_retains_no_memory(self):
        bus = TraceBus(enabled=False)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            for i in range(10_000):
                bus.record("queue", "enqueue", time=float(i), uid=i)
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # transient call frames aside, nothing may accumulate per event
        assert after - before < 16 * 1024

    def test_queues_hold_no_trace_without_a_session(self):
        # components guard emits with one `is not None` check; without an
        # ambient bus the queue's trace slot must stay None (no call at all)
        from repro.net.queues import DropTailQueue
        from repro.sim.engine import Simulator
        from repro.net.interface import NetworkInterface  # noqa: F401

        sim = Simulator(seed=1)
        queue = DropTailQueue(capacity_packets=4)
        assert queue.trace is None
        assert not sim.trace.enabled


class TestFilteringAndCounts:
    def test_category_whitelist_filters(self):
        bus = TraceBus(categories=("queue",))
        bus.record("queue", "enqueue", time=0.0)
        bus.record("cc", "state", time=0.0)
        assert [r.category for r in bus.records] == ["queue"]
        assert bus.category_counts == {"queue": 1}

    def test_total_and_per_category_counts(self):
        bus = TraceBus()
        for _ in range(3):
            bus.record("fluid", "round", time=0.0)
        bus.record("vector", "churn_flush", time=0.0)
        assert bus.total_records == 4
        assert bus.summary()["categories"] == {"fluid": 3, "vector": 1}

    def test_known_categories_are_documented(self):
        # every engine-emitted category must carry a contract line (the
        # README table renders from TRACE_CATEGORIES)
        for name, doc in TRACE_CATEGORIES.items():
            assert isinstance(doc, str) and doc


class TestSpill:
    def test_buffer_spills_at_limit_and_close_flushes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = TraceBus(spill_path=path, buffer_limit=10)
        for i in range(25):
            bus.record("queue", "enqueue", time=float(i), uid=i)
        assert bus.spilled_records == 20
        assert len(bus.records) == 5
        bus.close()
        lines = path.read_text().splitlines()
        assert len(lines) == 25
        assert bus.total_records == 25

    def test_spilled_lines_preserve_order_and_fields(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceBus(spill_path=path, buffer_limit=2) as bus:
            bus.record("queue", "enqueue", time=0.5, uid=7, qlen=2)
            bus.record("queue", "drop", time=0.75, uid=8, qlen=2)
        entries = read_jsonl(path)
        assert [e["message"] for e in entries] == ["enqueue", "drop"]
        assert entries[0] == {"time": 0.5, "category": "queue",
                              "message": "enqueue", "uid": 7, "qlen": 2}


class TestJsonlRoundTrip:
    def test_write_then_read(self, tmp_path):
        records = [
            TraceRecord(0.0, "queue", "enqueue", {"uid": 1}),
            TraceRecord(1.5, "cc", "state", {"old": "open", "new": "recovery"}),
        ]
        path = tmp_path / "t.jsonl"
        assert write_jsonl(records, path) == 2
        loaded = read_jsonl(path)
        assert loaded == [r.as_dict() for r in records]

    def test_export_jsonl_matches_buffer(self, tmp_path):
        bus = TraceBus()
        bus.record("rto", "fire", time=2.0, conn="c0")
        path = tmp_path / "t.jsonl"
        bus.export_jsonl(path)
        assert read_jsonl(path) == [{"time": 2.0, "category": "rto",
                                     "message": "fire", "conn": "c0"}]

    def test_read_rejects_non_object_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(ValueError, match="not an object"):
            read_jsonl(path)

    def test_read_rejects_missing_keys(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"time": 0.0, "category": "queue"}) + "\n")
        with pytest.raises(ValueError, match="message"):
            read_jsonl(path)


class TestSession:
    def test_session_installs_and_restores(self):
        assert active_trace_bus() is None
        bus = TraceBus()
        with trace_session(bus):
            assert active_trace_bus() is bus
            inner = TraceBus()
            with trace_session(inner):
                assert active_trace_bus() is inner
            assert active_trace_bus() is bus
        assert active_trace_bus() is None

    def test_session_restores_on_error(self):
        bus = TraceBus()
        with pytest.raises(RuntimeError):
            with trace_session(bus):
                raise RuntimeError("boom")
        assert active_trace_bus() is None

    def test_simulator_adopts_ambient_bus(self):
        from repro.sim.engine import Simulator

        bus = TraceBus()
        with trace_session(bus):
            sim = Simulator(seed=1)
            assert sim.trace is bus
        # outside a session the simulator falls back to a disabled recorder
        assert not Simulator(seed=1).trace.enabled
