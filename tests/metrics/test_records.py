"""Tests for the canonical per-flow outcome record."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import codec
from repro.errors import DocumentError
from repro.metrics import FlowRecord, class_label_for


class TestClassLabel:
    def test_churn_prefix(self):
        assert class_label_for("churn17:reno") == "churn"

    def test_declared_default(self):
        assert class_label_for("flow0:reno") == "declared"
        assert class_label_for("crosstalk") == "declared"


class TestValidation:
    def test_minimal_record(self):
        record = FlowRecord(flow_id="f0", cc="reno")
        assert not record.completed
        assert record.fct is None
        assert record.class_label == "declared"

    def test_empty_flow_id_rejected(self):
        with pytest.raises(ValueError, match="flow_id"):
            FlowRecord(flow_id="", cc="reno")

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError, match="start_time"):
            FlowRecord(flow_id="f0", cc="reno", start_time=-1.0)

    def test_completion_before_start_rejected(self):
        with pytest.raises(ValueError, match="precedes"):
            FlowRecord(flow_id="f0", cc="reno", start_time=5.0,
                       completion_time=4.0)

    @pytest.mark.parametrize("field,value", [
        ("bytes_acked", -1), ("goodput_bps", -0.5),
        ("send_stalls", -1), ("loss_events", -2), ("retransmits", -1),
    ])
    def test_negative_counters_rejected(self, field, value):
        with pytest.raises(ValueError):
            FlowRecord(flow_id="f0", cc="reno", **{field: value})

    def test_frozen(self):
        record = FlowRecord(flow_id="f0", cc="reno")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.bytes_acked = 7


class TestFctProperty:
    def test_completed_flow(self):
        record = FlowRecord(flow_id="f0", cc="reno", start_time=1.5,
                            completion_time=4.0)
        assert record.completed
        assert record.fct == pytest.approx(2.5)

    def test_zero_fct_allowed(self):
        record = FlowRecord(flow_id="f0", cc="reno", start_time=2.0,
                            completion_time=2.0)
        assert record.fct == 0.0


class _StubOutcome:
    """Duck-typed engine outcome (the shared FlowResult/FluidFlowOutcome
    surface from_flow reads)."""

    name = "churn3:reno"
    algorithm = "reno"
    start_time = 0.5
    completion_time = 2.5
    bytes_acked = 10_000
    goodput_bps = 40_000.0
    send_stalls = 2
    congestion_signals = 3
    pkts_retrans = 1


class TestFromFlow:
    def test_duck_typed_fields(self):
        record = FlowRecord.from_flow(_StubOutcome(), src="sender0",
                                      dst="receiver0")
        assert record.flow_id == "churn3:reno"
        assert record.cc == "reno"
        assert record.class_label == "churn"  # inferred from the name
        assert record.src == "sender0"
        assert record.fct == pytest.approx(2.0)
        assert record.loss_events == 3
        assert record.retransmits == 1

    def test_explicit_class_label_wins(self):
        record = FlowRecord.from_flow(_StubOutcome(), class_label="declared")
        assert record.class_label == "declared"


class TestSerialization:
    def test_round_trip(self):
        record = FlowRecord(flow_id="f0", cc="restricted", src="a", dst="b",
                            start_time=1.0, completion_time=3.0,
                            bytes_acked=5, goodput_bps=10.0, send_stalls=1,
                            loss_events=2, retransmits=3)
        assert codec.decode(FlowRecord, codec.encode(record)) == record

    def test_incomplete_round_trips(self):
        record = FlowRecord(flow_id="f0", cc="reno")
        clone = codec.decode(FlowRecord, json.loads(json.dumps(codec.encode(record))))
        assert clone.completion_time is None
        assert clone == record

    def test_unknown_field_rejected(self):
        data = codec.encode(FlowRecord(flow_id="f0", cc="reno"))
        data["rtt"] = 0.02
        with pytest.raises(DocumentError, match="unknown FlowRecord"):
            codec.decode(FlowRecord, data)
