"""Tests for the network interface (queue + transmitter + link)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.net import (
    ECN_ECT1,
    ECN_NOT_ECT,
    DropTailQueue,
    DualPI2Queue,
    NetworkInterface,
    Node,
    Packet,
)
from repro.net.lossmodels import BernoulliLoss, DeterministicLoss, NoLoss
from repro.sim import RandomStreams
from repro.units import Mbps


class SinkNode(Node):
    """Test double that records every delivered packet with its arrival time."""

    def __init__(self, name, address, sim=None):
        super().__init__(name, address)
        self.sim = sim
        self.received = []

    def receive(self, packet, interface):
        self._count_arrival(packet)
        self.received.append((self.sim.now if self.sim else 0.0, packet))


def build_link(sim, rate_bps=Mbps(10), delay=0.01, capacity=10):
    src = SinkNode("src", 1, sim)
    dst = SinkNode("dst", 2, sim)
    queue = DropTailQueue(capacity, clock=lambda: sim.now)
    iface = NetworkInterface(sim, src, queue, rate_bps, delay, name="src->dst")
    iface.connect(dst)
    return src, dst, iface


class TestTransmission:
    def test_single_packet_delivery_time(self, sim):
        _, dst, iface = build_link(sim, rate_bps=Mbps(10), delay=0.01)
        # 1250 bytes at 10 Mbit/s = 1 ms serialisation + 10 ms propagation
        assert iface.send(Packet(1250, 1, 2))
        sim.run()
        assert len(dst.received) == 1
        assert dst.received[0][0] == pytest.approx(0.011)

    def test_back_to_back_packets_are_serialised(self, sim):
        _, dst, iface = build_link(sim, rate_bps=Mbps(10), delay=0.0)
        for _ in range(3):
            iface.send(Packet(1250, 1, 2))
        sim.run()
        times = [t for t, _ in dst.received]
        assert times == pytest.approx([0.001, 0.002, 0.003])

    def test_delivery_preserves_fifo_order(self, sim):
        _, dst, iface = build_link(sim)
        sent = [Packet(500, 1, 2) for _ in range(5)]
        for p in sent:
            iface.send(p)
        sim.run()
        assert [p.uid for _, p in dst.received] == [p.uid for p in sent]

    def test_hop_count_incremented(self, sim):
        _, dst, iface = build_link(sim)
        iface.send(Packet(100, 1, 2))
        sim.run()
        assert dst.received[0][1].hops == 1

    def test_stats_counters(self, sim):
        _, dst, iface = build_link(sim)
        iface.send(Packet(1000, 1, 2))
        iface.send(Packet(1000, 1, 2))
        sim.run()
        assert iface.stats.packets_sent == 2
        assert iface.stats.bytes_sent == 2000
        assert iface.stats.packets_delivered == 2

    def test_node_arrival_counters(self, sim):
        _, dst, iface = build_link(sim)
        iface.send(Packet(700, 1, 2))
        sim.run()
        assert dst.packets_received == 1
        assert dst.bytes_received == 700


class TestQueueOverflow:
    def test_send_returns_false_when_queue_full(self, sim):
        _, _, iface = build_link(sim, capacity=2)
        # first packet goes straight to the transmitter, two fill the queue
        assert iface.send(Packet(1500, 1, 2))
        assert iface.send(Packet(1500, 1, 2))
        assert iface.send(Packet(1500, 1, 2))
        assert not iface.send(Packet(1500, 1, 2))
        assert iface.stats.enqueue_failures == 1

    def test_stall_listener_invoked_on_overflow(self, sim):
        _, _, iface = build_link(sim, capacity=1)
        stalls = []
        iface.stall_listeners.append(lambda ifc, pkt: stalls.append(pkt.uid))
        iface.send(Packet(1500, 1, 2))
        iface.send(Packet(1500, 1, 2))
        rejected = Packet(1500, 1, 2)
        iface.send(rejected)
        assert stalls == [rejected.uid]

    def test_queue_drains_after_overflow(self, sim):
        _, dst, iface = build_link(sim, capacity=2, delay=0.0)
        for _ in range(5):
            iface.send(Packet(1250, 1, 2))
        sim.run()
        # 1 in transmission + 2 queued were delivered, 2 were rejected
        assert len(dst.received) == 3


class TestOccupancyAndUtilization:
    def test_qlen_and_capacity(self, sim):
        _, _, iface = build_link(sim, capacity=4)
        for _ in range(3):
            iface.send(Packet(1500, 1, 2))
        # one packet is in the transmitter, the rest sit in the queue
        assert iface.qlen == 2
        assert iface.capacity_packets == 4
        assert iface.occupancy() == pytest.approx(0.5)

    def test_busy_flag(self, sim):
        _, _, iface = build_link(sim)
        assert not iface.is_busy
        iface.send(Packet(1500, 1, 2))
        assert iface.is_busy
        sim.run()
        assert not iface.is_busy

    def test_utilization_fraction(self, sim):
        _, _, iface = build_link(sim, rate_bps=Mbps(10), delay=0.0)
        # 1250 bytes = 1 ms of transmission
        iface.send(Packet(1250, 1, 2))
        sim.run(until=2e-3)
        assert iface.utilization() == pytest.approx(0.5, rel=0.05)

    def test_utilization_zero_at_start(self, sim):
        _, _, iface = build_link(sim)
        assert iface.utilization() == 0.0


class TestLossModels:
    def test_loss_model_drops_packets(self, sim):
        src = SinkNode("src", 1, sim)
        dst = SinkNode("dst", 2, sim)
        queue = DropTailQueue(100, clock=lambda: sim.now)
        iface = NetworkInterface(sim, src, queue, Mbps(10), 0.0,
                                 loss_model=DeterministicLoss([0, 2]))
        iface.connect(dst)
        for _ in range(4):
            iface.send(Packet(1000, 1, 2))
        sim.run()
        assert len(dst.received) == 2
        assert iface.stats.packets_lost == 2

    def test_full_loss_delivers_nothing(self, sim):
        src = SinkNode("src", 1, sim)
        dst = SinkNode("dst", 2, sim)
        queue = DropTailQueue(100, clock=lambda: sim.now)
        iface = NetworkInterface(sim, src, queue, Mbps(10), 0.0,
                                 loss_model=BernoulliLoss(1.0))
        iface.connect(dst)
        for _ in range(5):
            iface.send(Packet(1000, 1, 2))
        sim.run()
        assert dst.received == []
        assert iface.stats.packets_lost == 5


    def test_loss_free_link_draws_no_stream(self, sim):
        _, dst, iface = build_link(sim)
        for _ in range(3):
            iface.send(Packet(1000, 1, 2))
        sim.run()
        assert len(dst.received) == 3
        assert "loss:src->dst" not in sim.streams

    def test_lossy_link_uses_its_named_stream(self, sim):
        _, dst, iface = build_link(sim, capacity=100)
        iface.loss_model = BernoulliLoss(0.5)
        sent = [Packet(1000, 1, 2) for _ in range(40)]
        for packet in sent:
            iface.send(packet)
        sim.run()
        # one draw per packet, in wire order, from the "loss:<iface>" stream
        rng = RandomStreams(sim.streams.master_seed).get("loss:src->dst")
        kept = [p.uid for p in sent if not rng.random() < 0.5]
        assert [p.uid for _, p in dst.received] == kept
        assert iface.stats.packets_lost == 40 - len(kept) > 0

    def test_loss_model_assigned_after_wiring_takes_effect(self, sim):
        _, dst, iface = build_link(sim)
        iface.loss_model = DeterministicLoss([1])
        for _ in range(3):
            iface.send(Packet(1000, 1, 2))
        sim.run()
        assert iface.stats.packets_lost == 1
        iface.loss_model = NoLoss()
        iface.send(Packet(1000, 1, 2))
        sim.run()
        assert iface.stats.packets_lost == 1
        assert len(dst.received) == 3


class TestQueueSubclassOccupancy:
    """The forwarding path must read occupancy through the queue's
    ``qlen``/``is_empty``: DualPI2 holds L4S packets outside ``_queue``."""

    def build(self, sim, capacity):
        src = SinkNode("src", 1, sim)
        dst = SinkNode("dst", 2, sim)
        queue = DualPI2Queue(capacity_packets=capacity, rng=np.random.default_rng(1),
                             step_threshold=1.0, clock=sim.clock)
        iface = NetworkInterface(sim, src, queue, Mbps(10), 0.001, name="src->dst")
        iface.connect(dst)
        return dst, queue, iface

    def test_interface_drains_an_l4s_only_queue(self, sim):
        dst, queue, iface = self.build(sim, capacity=20)
        sent = [Packet(1250, 1, 2, ecn=ECN_ECT1) for _ in range(8)]
        for packet in sent:
            assert iface.send(packet)
        # one packet in the transmitter, the rest held in the L4S queue
        assert iface.qlen == 7 and not queue._queue
        sim.run()
        assert [p.uid for _, p in dst.received] == [p.uid for p in sent]
        assert queue.is_empty and not iface.is_busy
        assert queue.stats.dequeued == 8

    def test_admission_counts_both_sub_queues(self, sim):
        _, queue, iface = self.build(sim, capacity=3)
        stalls = []
        iface.stall_listeners.append(lambda ifc, pkt: stalls.append(pkt.uid))
        assert iface.send(Packet(1250, 1, 2, ecn=ECN_ECT1))  # to the transmitter
        assert iface.send(Packet(1250, 1, 2, ecn=ECN_ECT1))
        assert iface.send(Packet(1250, 1, 2, ecn=ECN_ECT1))
        assert iface.send(Packet(1250, 1, 2, ecn=ECN_NOT_ECT))
        assert queue.qlen == 3 and queue.is_full
        rejected = Packet(1250, 1, 2, ecn=ECN_ECT1)
        assert not iface.send(rejected)
        assert not iface.send(Packet(1250, 1, 2, ecn=ECN_NOT_ECT))
        assert stalls[0] == rejected.uid and len(stalls) == 2
        assert queue.stats.dropped == 2 and queue.stats.peak_packets == 3


class TestValidation:
    def test_zero_rate_rejected(self, sim):
        node = SinkNode("n", 1, sim)
        with pytest.raises(ConfigurationError):
            NetworkInterface(sim, node, DropTailQueue(5), 0.0, 0.01)

    def test_negative_delay_rejected(self, sim):
        node = SinkNode("n", 1, sim)
        with pytest.raises(ConfigurationError):
            NetworkInterface(sim, node, DropTailQueue(5), Mbps(1), -0.1)

    def test_send_without_connect_rejected(self, sim):
        node = SinkNode("n", 1, sim)
        iface = NetworkInterface(sim, node, DropTailQueue(5), Mbps(1), 0.0)
        with pytest.raises(TopologyError):
            iface.send(Packet(100, 1, 2))

    def test_double_connect_rejected(self, sim):
        node = SinkNode("n", 1, sim)
        other = SinkNode("m", 2, sim)
        iface = NetworkInterface(sim, node, DropTailQueue(5), Mbps(1), 0.0)
        iface.connect(other)
        with pytest.raises(TopologyError):
            iface.connect(other)

    def test_interface_registers_with_node(self, sim):
        node = SinkNode("n", 1, sim)
        iface = NetworkInterface(sim, node, DropTailQueue(5), Mbps(1), 0.0)
        assert iface in node.interfaces
