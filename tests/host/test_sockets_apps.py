"""Tests for the socket façade and traffic-generating applications."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.host import (
    BulkSenderApp,
    CBRSource,
    OnOffSource,
    PoissonSource,
    SimSocket,
    SinkApp,
    listen,
)
from repro.tcp.cc import cc_factory
from repro.units import Mbps
from repro.workloads import build_dumbbell


class TestSockets:
    def test_socket_roundtrip(self, sim, small_scenario):
        sender = small_scenario.senders[0]
        receiver = small_scenario.receivers[0]
        received = []
        accepted = []

        def on_conn(sock):
            accepted.append(sock)
            sock.on_data = received.append

        listen(receiver, 8080, options=small_scenario.config.tcp_options(),
               on_connection=on_conn)
        sock = SimSocket(sender.stack.connect(
            receiver.address, 8080, options=small_scenario.config.tcp_options()))
        sock.send(30_000)
        sim.run(until=3.0)
        assert sum(received) == 30_000
        assert sock.bytes_acked == 30_000
        assert sock.bytes_pending == 0
        assert sock.is_established
        assert len(accepted) == 1
        assert accepted[0].bytes_delivered == 30_000

    def test_on_all_acked_callback(self, sim, small_scenario):
        sender = small_scenario.senders[0]
        receiver = small_scenario.receivers[0]
        listen(receiver, 8081, options=small_scenario.config.tcp_options())
        sock = SimSocket(sender.stack.connect(
            receiver.address, 8081, options=small_scenario.config.tcp_options()))
        done = []
        sock.on_all_acked = lambda: done.append(sim.now)
        sock.send(5_000)
        sim.run(until=2.0)
        assert len(done) == 1

    def test_socket_exposes_stats_and_cwnd(self, sim, small_scenario):
        sender = small_scenario.senders[0]
        receiver = small_scenario.receivers[0]
        listen(receiver, 8082, options=small_scenario.config.tcp_options())
        sock = SimSocket(sender.stack.connect(
            receiver.address, 8082, options=small_scenario.config.tcp_options()))
        sock.send(10_000)
        sim.run(until=2.0)
        assert sock.stats.DataPktsOut > 0
        assert sock.cwnd_bytes > 0


class TestBulkSenderApp:
    def test_finite_transfer_completes(self, sim, small_scenario):
        opts = small_scenario.config.tcp_options()
        sink = SinkApp(small_scenario.receivers[0], 7000, options=opts)
        app = BulkSenderApp(sim, small_scenario.senders[0],
                            small_scenario.receivers[0].address, 7000,
                            total_bytes=40_000, options=opts,
                            cc_factory=cc_factory("reno"))
        sim.run(until=3.0)
        assert app.completed
        assert app.completion_time is not None
        assert app.elapsed() == pytest.approx(app.completion_time)
        assert sink.bytes_received == 40_000

    def test_unlimited_transfer_never_completes(self, sim, small_scenario):
        opts = small_scenario.config.tcp_options()
        SinkApp(small_scenario.receivers[0], 7000, options=opts)
        app = BulkSenderApp(sim, small_scenario.senders[0],
                            small_scenario.receivers[0].address, 7000,
                            total_bytes=None, options=opts,
                            cc_factory=cc_factory("reno"))
        sim.run(until=2.0)
        assert not app.completed
        assert app.bytes_acked > 0

    def test_goodput_zero_before_start(self, sim, small_scenario):
        opts = small_scenario.config.tcp_options()
        SinkApp(small_scenario.receivers[0], 7000, options=opts)
        app = BulkSenderApp(sim, small_scenario.senders[0],
                            small_scenario.receivers[0].address, 7000,
                            total_bytes=1000, start_time=1.0, options=opts)
        assert app.goodput_bps() == 0.0

    def test_invalid_total_bytes(self, sim, small_scenario):
        with pytest.raises(ConfigurationError):
            BulkSenderApp(sim, small_scenario.senders[0],
                          small_scenario.receivers[0].address, 7000, total_bytes=0)


class TestCrossTrafficSources:
    def test_cbr_rate_close_to_target(self, sim, small_scenario):
        sender = small_scenario.senders[0]
        receiver = small_scenario.receivers[0]
        source = CBRSource(sim, sender, receiver.address, 9000,
                           rate_bps=Mbps(2), packet_bytes=1000)
        sim.run(until=2.0)
        assert source.rate_sent_bps() == pytest.approx(Mbps(2), rel=0.05)
        assert receiver.udp_bytes_received > 0

    def test_cbr_stop_time(self, sim, small_scenario):
        sender = small_scenario.senders[0]
        receiver = small_scenario.receivers[0]
        source = CBRSource(sim, sender, receiver.address, 9000,
                           rate_bps=Mbps(2), packet_bytes=1000, stop_time=0.5)
        sim.run(until=2.0)
        sent_at_stop = source.packets_sent
        assert sent_at_stop <= Mbps(2) * 0.5 / 8000 + 2

    def test_poisson_mean_rate(self, sim, small_scenario):
        sender = small_scenario.senders[0]
        receiver = small_scenario.receivers[0]
        source = PoissonSource(sim, sender, receiver.address, 9000,
                               rate_bps=Mbps(2), packet_bytes=1000)
        sim.run(until=4.0)
        assert source.rate_sent_bps() == pytest.approx(Mbps(2), rel=0.25)

    def test_poisson_is_reproducible(self, small_scenario, small_path):
        from repro.sim import Simulator
        from repro.workloads import build_dumbbell

        def run(seed):
            sim = Simulator(seed=seed)
            scen = build_dumbbell(sim, small_path, n_flows=1)
            src = PoissonSource(sim, scen.senders[0], scen.receivers[0].address, 9000,
                                rate_bps=Mbps(1), packet_bytes=500, name="p")
            sim.run(until=1.0)
            return src.packets_sent

        assert run(11) == run(11)

    def test_onoff_sends_less_than_cbr_at_same_peak(self, small_path):
        from repro.sim import Simulator
        from repro.workloads import build_dumbbell

        def run(kind):
            sim = Simulator(seed=9)
            scen = build_dumbbell(sim, small_path, n_flows=1)
            cls = CBRSource if kind == "cbr" else OnOffSource
            kwargs = dict(packet_bytes=1000)
            if kind == "cbr":
                kwargs["rate_bps"] = Mbps(2)
            else:
                kwargs.update(peak_rate_bps=Mbps(2), mean_on_time=0.2, mean_off_time=0.2)
            src = cls(sim, scen.senders[0], scen.receivers[0].address, 9000, **kwargs)
            sim.run(until=4.0)
            return src.bytes_sent

        assert run("onoff") < run("cbr")

    def test_invalid_rates_rejected(self, sim, small_scenario):
        sender = small_scenario.senders[0]
        receiver = small_scenario.receivers[0]
        with pytest.raises(ConfigurationError):
            CBRSource(sim, sender, receiver.address, 9000, rate_bps=0)
        with pytest.raises(ConfigurationError):
            PoissonSource(sim, sender, receiver.address, 9000, rate_bps=-1)
        with pytest.raises(ConfigurationError):
            OnOffSource(sim, sender, receiver.address, 9000, peak_rate_bps=Mbps(1),
                        mean_on_time=0.0)
