"""Tests for the experiment runner (single-flow, comparison, multi-flow specs)."""

from __future__ import annotations

import pytest

from repro.core import RestrictedSlowStartConfig
from repro.errors import ExperimentError
from repro.experiments import single_flow_summary
from repro.spec import ComparisonSpec, MultiFlowSpec, RunSpec, execute, from_bulk_flows
from repro.tcp.state import LocalCongestionPolicy
from repro.workloads import BulkFlowSpec

from repro.testing import SMALL_PATH


class TestRunSingleFlow:
    def test_returns_flow_metrics_and_traces(self):
        result = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=2.0, seed=1))
        assert result.flow.algorithm == "reno"
        assert result.flow.bytes_acked > 0
        assert result.goodput_bps > 0
        assert len(result.ifq_times) == len(result.ifq_occupancy) > 0
        assert len(result.cwnd_times) == len(result.cwnd_segments) > 0
        assert result.telemetry.counters["events"] > 0

    def test_same_seed_is_deterministic(self):
        spec = RunSpec(cc="reno", config=SMALL_PATH, duration=1.5, seed=3)
        a = execute(spec)
        b = execute(spec)
        assert a.flow.bytes_acked == b.flow.bytes_acked
        assert a.flow.send_stalls == b.flow.send_stalls
        assert list(a.cwnd_segments) == list(b.cwnd_segments)

    def test_restricted_uses_path_matched_gains(self):
        result = execute(RunSpec(cc="restricted", config=SMALL_PATH, duration=2.0))
        assert result.flow.algorithm == "restricted"
        assert result.flow.send_stalls == 0

    def test_explicit_rss_config(self):
        rss = RestrictedSlowStartConfig.for_path(SMALL_PATH.rtt).replace(
            setpoint_fraction=0.5)
        result = execute(RunSpec(cc="restricted", config=SMALL_PATH, duration=2.0,
                                 rss_config=rss))
        # a lower set point keeps the queue emptier
        tail = result.ifq_occupancy[result.ifq_times > 1.0]
        assert tail.mean() < 0.7 * SMALL_PATH.ifq_capacity_packets

    def test_finite_transfer_completion(self):
        result = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=5.0,
                                 total_bytes=50_000))
        assert result.flow.completion_time is not None
        assert result.flow.bytes_acked == 50_000

    def test_policy_override(self):
        result = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=2.0,
                                 local_congestion_policy=LocalCongestionPolicy.IGNORE))
        assert result.flow.other_reductions == 0

    def test_cc_kwargs_forwarded(self):
        result = execute(RunSpec(cc="limited_slow_start", config=SMALL_PATH,
                                 duration=2.0,
                                 cc_kwargs={"max_ssthresh_segments": 10}))
        assert result.flow.bytes_acked > 0

    def test_invalid_duration_rejected(self):
        with pytest.raises(ExperimentError):
            RunSpec(cc="reno", config=SMALL_PATH, duration=0.0)

    def test_link_utilization_bounded(self):
        result = execute(RunSpec(cc="restricted", config=SMALL_PATH, duration=2.0))
        assert 0.0 < result.link_utilization <= 1.0

    def test_summary_dict(self):
        result = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=1.0))
        summary = single_flow_summary(result)
        assert {"algorithm", "goodput_mbps", "send_stalls", "ifq_peak"} <= set(summary)


class TestRunComparison:
    def test_improvement_and_stalls(self):
        comparison = execute(ComparisonSpec(
            base=RunSpec(config=SMALL_PATH, duration=3.0, seed=2),
            algorithms=("reno", "restricted")))
        assert comparison.improvement_percent("restricted") > 0
        stalls = comparison.stall_counts()
        assert stalls["restricted"] <= stalls["reno"]

    def test_baseline_must_be_included(self):
        with pytest.raises(ExperimentError):
            ComparisonSpec(base=RunSpec(config=SMALL_PATH, duration=1.0),
                           algorithms=("restricted",), baseline="reno")


def _multi_flow(flows, duration, seed=1, shared_paths=False):
    return execute(MultiFlowSpec(
        scenario=from_bulk_flows(flows, config=SMALL_PATH,
                                 shared_paths=shared_paths),
        duration=duration, seed=seed))


class TestRunMultiFlow:
    """Dumbbell multi-flow runs declared through ``from_bulk_flows``."""

    def test_two_flows_share_bottleneck(self):
        result = _multi_flow([BulkFlowSpec(cc="reno"),
                              BulkFlowSpec(cc="reno", start_time=0.1)], duration=3.0)
        assert len(result.flows) == 2
        assert result.aggregate_goodput_bps > 0
        assert 0.5 <= result.jain_index <= 1.0
        assert result.link_utilization <= 1.0

    def test_mixed_algorithms(self):
        result = _multi_flow([BulkFlowSpec(cc="restricted"), BulkFlowSpec(cc="reno")],
                             duration=3.0)
        algorithms = {f.algorithm for f in result.flows}
        assert algorithms == {"restricted", "reno"}

    def test_shared_path_mode(self):
        result = _multi_flow([BulkFlowSpec(cc="reno"), BulkFlowSpec(cc="reno")],
                             duration=2.0, shared_paths=True)
        assert len(result.flows) == 2

    def test_empty_specs_rejected(self):
        with pytest.raises(ExperimentError):
            from_bulk_flows([], config=SMALL_PATH)

    def test_explicit_path_index_is_honoured(self):
        # both flows on pair 1: they share sender1's IFQ, pair 0 stays idle
        result = _multi_flow([BulkFlowSpec(cc="reno", path_index=1),
                              BulkFlowSpec(cc="reno", path_index=1)], duration=2.0)
        assert [r.src for r in result.records] == ["sender1", "sender1"]
        assert all(f.bytes_acked > 0 for f in result.flows)
