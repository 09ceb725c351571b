"""Tests for the restricted slow-start algorithm.

Unit tests exercise the controller-driven window rule against a scripted
IFQ probe; integration tests run it end-to-end on the scaled-down path and
assert the paper's qualitative claims (no stalls, the IFQ regulates to the
set point, throughput beats standard TCP).
"""

from __future__ import annotations

import math

import pytest

from repro.core import RestrictedSlowStart, RestrictedSlowStartConfig
from repro.host import IFQMonitor
from repro.sim import Simulator
from repro.tcp import TCPOptions
from repro.tcp.cc import CCContext, RenoCC
from repro.workloads import build_dumbbell

MSS = 1000


class ScriptedIFQ:
    """A fake IFQ probe whose occupancy the test controls."""

    def __init__(self, qlen=0, capacity=100):
        self.qlen = qlen
        self.capacity = capacity

    def __call__(self):
        return (self.qlen, self.capacity)


def make_cc(ifq=None, config=None, sim=None, **option_overrides):
    sim = sim if sim is not None else Simulator(seed=1)
    options = TCPOptions(mss=MSS, rwnd_bytes=10_000_000, **option_overrides)
    ctx = CCContext(sim, options, ifq_probe=ifq)
    return sim, RestrictedSlowStart(ctx, config or RestrictedSlowStartConfig())


class TestWindowRule:
    def test_full_growth_when_queue_empty(self):
        ifq = ScriptedIFQ(qlen=0, capacity=100)
        sim, cc = make_cc(ifq)
        before = cc.cwnd
        sim._now = 0.01
        cc.on_ack(MSS, 0.05, 2 * MSS)
        assert cc.cwnd == pytest.approx(before + 1.0, abs=0.05)

    def test_no_growth_at_or_above_setpoint(self):
        ifq = ScriptedIFQ(qlen=95, capacity=100)
        sim, cc = make_cc(ifq)
        before = cc.cwnd
        for i in range(5):
            sim._now = 0.01 * (i + 1)
            cc.on_ack(MSS, 0.05, 2 * MSS)
        assert cc.cwnd <= before
        assert cc.increments_withheld >= 1

    def test_window_trimmed_when_queue_over_setpoint(self):
        ifq = ScriptedIFQ(qlen=99, capacity=100)
        config = RestrictedSlowStartConfig()
        sim, cc = make_cc(ifq, config)
        cc.cwnd = 50.0
        for i in range(50):
            sim._now = 0.001 * (i + 1)
            cc.on_ack(MSS, 0.05, 40 * MSS)
        assert cc.cwnd < 50.0

    def test_window_never_below_initial(self):
        ifq = ScriptedIFQ(qlen=100, capacity=100)
        sim, cc = make_cc(ifq, initial_cwnd_segments=2)
        for i in range(500):
            sim._now = 0.001 * (i + 1)
            cc.on_ack(MSS, 0.05, 2 * MSS)
        assert cc.cwnd >= 2.0

    def test_growth_tapers_as_queue_fills(self):
        """Increments shrink monotonically (on average) as occupancy rises."""
        grants = []
        for qlen in (0, 40, 70, 85):
            ifq = ScriptedIFQ(qlen=qlen, capacity=100)
            sim, cc = make_cc(ifq)
            before = cc.cwnd
            sim._now = 0.01
            cc.on_ack(MSS, 0.05, 2 * MSS)
            grants.append(cc.cwnd - before)
        assert grants[0] >= grants[1] >= grants[2] >= grants[3]

    def test_unbounded_ifq_falls_back_to_standard(self):
        sim, cc = make_cc(ifq=None)   # no probe -> capacity None
        sim2 = Simulator(seed=2)
        reno = RenoCC(CCContext(sim2, TCPOptions(mss=MSS, rwnd_bytes=10_000_000)))
        for i in range(10):
            sim._now = sim2._now = 0.01 * (i + 1)
            cc.on_ack(MSS, 0.05, 2 * MSS)
            reno.on_ack(MSS, 0.05, 2 * MSS)
        assert cc.cwnd == pytest.approx(reno.cwnd)

    def test_unbounded_ifq_frozen_when_fallback_disabled(self):
        config = RestrictedSlowStartConfig(fallback_to_standard_when_unbounded=False)
        sim, cc = make_cc(ifq=None, config=config)
        before = cc.cwnd
        sim._now = 0.01
        cc.on_ack(MSS, 0.05, 2 * MSS)
        assert cc.cwnd == before

    def test_min_control_interval_limits_updates(self):
        ifq = ScriptedIFQ(qlen=0, capacity=100)
        config = RestrictedSlowStartConfig(min_control_interval=0.1)
        sim, cc = make_cc(ifq, config)
        sim._now = 0.001
        cc.on_ack(MSS, 0.05, 2 * MSS)
        invocations = cc.controller_invocations
        sim._now = 0.002   # far less than the control interval later
        cc.on_ack(MSS, 0.05, 2 * MSS)
        assert cc.controller_invocations == invocations

    def test_congestion_avoidance_is_reno(self):
        ifq = ScriptedIFQ(qlen=0, capacity=100)
        sim, cc = make_cc(ifq, initial_ssthresh_segments=2)
        cc.cwnd = 10.0
        cc.ssthresh = 2.0
        sim._now = 0.01
        cc.on_ack(MSS, 0.05, 10 * MSS)
        assert cc.cwnd == pytest.approx(10.1)

    def test_growth_splits_at_ssthresh(self):
        ifq = ScriptedIFQ(qlen=0, capacity=100)
        sim, cc = make_cc(ifq, initial_ssthresh_segments=3)
        # cwnd starts at 2, ssthresh 3: one acked segment crosses the boundary
        sim._now = 0.01
        cc.on_ack(MSS, 0.05, 2 * MSS)
        assert cc.cwnd <= 3.5
        assert not cc.in_slow_start or cc.cwnd <= 3.0


class TestReductions:
    def test_local_congestion_reduces_and_resets_pid(self):
        ifq = ScriptedIFQ(qlen=0, capacity=100)
        sim, cc = make_cc(ifq)
        sim._now = 0.01
        cc.on_ack(MSS, 0.05, 2 * MSS)
        cc.cwnd = 40.0
        cc.on_local_congestion(100, 100, 40 * MSS)
        assert cc.cwnd == pytest.approx(20.0)
        assert cc.pid.integral == 0.0
        assert not cc.in_slow_start

    def test_rto_resets_pid(self):
        ifq = ScriptedIFQ(qlen=10, capacity=100)
        sim, cc = make_cc(ifq)
        sim._now = 0.01
        cc.on_ack(MSS, 0.05, 2 * MSS)
        cc.on_rto(10 * MSS)
        assert cc.cwnd == 1.0
        assert cc.pid.updates == 0 or cc.pid.integral == 0.0

    def test_enter_recovery_reduces_window(self):
        ifq = ScriptedIFQ(qlen=10, capacity=100)
        _, cc = make_cc(ifq)
        cc.cwnd = 30.0
        cc.on_enter_recovery(30 * MSS)
        assert cc.ssthresh == pytest.approx(15.0)

    def test_reset_disabled_keeps_integral(self):
        ifq = ScriptedIFQ(qlen=50, capacity=100)
        config = RestrictedSlowStartConfig(reset_integral_on_congestion=False)
        sim, cc = make_cc(ifq, config)
        for i in range(20):
            sim._now = 0.002 * (i + 1)
            cc.on_ack(MSS, 0.05, 2 * MSS)
        integral_before = cc.pid.integral
        cc.on_rto(10 * MSS)
        assert cc.pid.integral == integral_before


class TestEndToEnd:
    def run_flow(self, sim, path, cc_factory, duration=4.0):
        scenario = build_dumbbell(sim, path, n_flows=1)
        app, _sink = scenario.add_bulk_flow_between("sender0", "receiver0", cc=cc_factory)
        monitor = IFQMonitor(sim, scenario.sender_ifq(0), interval=0.02)
        monitor.start()
        sim.run(until=duration)
        return app, monitor, scenario

    def test_no_send_stalls_on_paper_like_path(self, small_path, small_rss_config):
        sim = Simulator(seed=3)
        app, _, _ = self.run_flow(
            sim, small_path, lambda ctx: RestrictedSlowStart(ctx, small_rss_config))
        assert app.stats.SendStall == 0

    def test_standard_tcp_does_stall_on_same_path(self, small_path):
        sim = Simulator(seed=3)
        app, _, _ = self.run_flow(sim, small_path, "reno")
        assert app.stats.SendStall >= 1

    def test_ifq_regulates_near_setpoint(self, small_path, small_rss_config):
        sim = Simulator(seed=3)
        app, monitor, scenario = self.run_flow(
            sim, small_path, lambda ctx: RestrictedSlowStart(ctx, small_rss_config),
            duration=6.0)
        times, occ = monitor.as_arrays()
        tail = occ[times > 3.0]
        setpoint_packets = 0.9 * small_path.ifq_capacity_packets
        assert abs(float(tail.mean()) - setpoint_packets) < 0.25 * small_path.ifq_capacity_packets
        assert scenario.sender_ifq(0).queue.stats.dropped == 0

    def test_beats_standard_tcp_goodput(self, small_path, small_rss_config):
        sim_a = Simulator(seed=3)
        restricted, _, _ = self.run_flow(
            sim_a, small_path, lambda ctx: RestrictedSlowStart(ctx, small_rss_config),
            duration=6.0)
        sim_b = Simulator(seed=3)
        standard, _, _ = self.run_flow(sim_b, small_path, "reno", duration=6.0)
        assert restricted.goodput_bps() > standard.goodput_bps()

    def test_stays_in_slow_start_without_losses(self, small_path, small_rss_config):
        sim = Simulator(seed=3)
        app, _, _ = self.run_flow(
            sim, small_path, lambda ctx: RestrictedSlowStart(ctx, small_rss_config),
            duration=4.0)
        assert math.isinf(app.connection.cc.ssthresh)
        assert app.stats.CongestionSignals == 0

    def test_controller_counters_populated(self, small_path, small_rss_config):
        sim = Simulator(seed=3)
        app, _, _ = self.run_flow(
            sim, small_path, lambda ctx: RestrictedSlowStart(ctx, small_rss_config))
        cc = app.connection.cc
        assert cc.controller_invocations > 0
        assert cc.increments_granted > 0

    def test_grow_only_variant_still_reduces_stalls_vs_reno(self, small_path):
        config = RestrictedSlowStartConfig.for_path(small_path.rtt).replace(
            min_increment_per_ack=0.0)
        sim = Simulator(seed=3)
        restricted, _, _ = self.run_flow(
            sim, small_path, lambda ctx: RestrictedSlowStart(ctx, config), duration=4.0)
        sim_b = Simulator(seed=3)
        standard, _, _ = self.run_flow(sim_b, small_path, "reno", duration=4.0)
        assert restricted.stats.SendStall <= standard.stats.SendStall
