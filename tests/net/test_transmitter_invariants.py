"""The one-event-per-hop transmitter: conservation laws and trace parity.

An interface schedules a packet's delivery when its serialisation starts
and a completion event only while packets wait behind it; its counters
still count a packet once its serialisation has completed.  These tests
hold the counters to the laws that must survive that bookkeeping, on small
dumbbells stopped at arbitrary times (so packets are caught mid-wire), and
check that a traced run, which may take the queues' general path,
computes the same documents as an untraced one.
"""

from __future__ import annotations

import hashlib
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.results_io import result_document
from repro.net import DropTailQueue, NetworkInterface, Node, Packet
from repro.obs.trace import TraceBus, trace_session
from repro.sim import Simulator
from repro.spec import ComparisonSpec, MultiFlowSpec, RunSpec, aqm_dumbbell, dumbbell, execute, lossy_link
from repro.testing import SMALL_PATH
from repro.units import Mbps
from repro.workloads.compile import compile_scenario

CCS = ("reno", "restricted", "cubic", "prague")


def _scenario(kind, n_flows, ccs, ecn):
    if kind == "droptail":
        return dumbbell(SMALL_PATH, n_flows, ccs=ccs)
    if kind == "lossy":
        return lossy_link(SMALL_PATH, loss=0.02, n_flows=n_flows, ccs=ccs)
    return aqm_dumbbell(SMALL_PATH, n_flows, discipline=kind, ecn=ecn, ccs=ccs)


@settings(max_examples=12, deadline=None)
@given(kind=st.sampled_from(("droptail", "red", "codel", "dualpi2", "lossy")),
       n_flows=st.integers(1, 3),
       ccs=st.lists(st.sampled_from(CCS), min_size=3, max_size=3),
       ecn=st.booleans(),
       horizon=st.floats(0.05, 0.4),
       seed=st.integers(1, 50))
def test_counters_conserve_packets(kind, n_flows, ccs, ecn, horizon, seed):
    sim = Simulator(seed=seed)
    scenario = compile_scenario(sim, _scenario(kind, n_flows, ccs[:n_flows], ecn))
    sim.run(until=horizon)
    assert sim.now == horizon
    for iface in scenario.topology.interfaces():
        queue, stats = iface.queue.stats, iface.stats
        # CoDel drops at the head, after counting the packet dequeued; every
        # other drop is a rejection at send()
        head_drops = getattr(iface.queue, "head_drops", 0)
        assert queue.dropped == stats.enqueue_failures + head_drops
        assert queue.enqueued == queue.dequeued + iface.qlen
        # a packet that left the queue for the wire is on it or done with
        # it; packets_sent counts completed serialisations, lost ones too
        on_wire = int(iface.is_busy)
        assert queue.dequeued - head_drops == stats.packets_sent + on_wire
        assert stats.packets_delivered <= stats.packets_sent - stats.packets_lost
        assert 0.0 <= stats.busy_time <= sim.now
        assert 0.0 <= iface.utilization() <= 1.0


def _digest(result):
    document = result_document(result)
    document.pop("telemetry", None)
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()


def _traced(spec):
    bus = TraceBus()
    with trace_session(bus):
        result = execute(spec, max_workers=0)
    assert bus.total_records > 0
    return result, bus


class TestTraceParity:
    """Tracing takes the queues' general path and adds loss-record events;
    neither may move a result."""

    def test_single_flow_comparison(self):
        spec = ComparisonSpec(base=RunSpec(config=SMALL_PATH, duration=1.0, seed=1),
                              algorithms=("reno", "restricted"))
        traced, bus = _traced(spec)
        assert bus.category_counts.get("queue", 0) > 0
        assert _digest(traced) == _digest(execute(spec, max_workers=0))

    def test_aqm_and_ecn(self):
        spec = MultiFlowSpec(scenario=aqm_dumbbell(SMALL_PATH, 2, discipline="dualpi2",
                                                   ecn=True, ccs=("prague", "reno")),
                             duration=1.0, seed=2)
        traced, _ = _traced(spec)
        assert _digest(traced) == _digest(execute(spec, max_workers=0))

    def test_lossy_link_records_each_loss_at_serialisation_end(self):
        spec = RunSpec(duration=1.0, seed=1, scenario=lossy_link(SMALL_PATH, loss=0.02))
        traced, bus = _traced(spec)
        assert _digest(traced) == _digest(execute(spec, max_workers=0))
        losses = [r for r in bus.records if r.category == "link"]
        assert losses and all(r.message == "loss" for r in losses)
        times = [r.time for r in losses]
        assert times == sorted(times)


class _Sink(Node):
    def receive(self, packet, interface):
        self._count_arrival(packet)


class TestMidSerialisation:
    def _link(self, sim):
        src, dst = _Sink("src", 1), _Sink("dst", 2)
        iface = NetworkInterface(sim, src, DropTailQueue(10, clock=sim.clock),
                                 Mbps(10), 0.001, name="src->dst")
        iface.connect(dst)
        return iface

    def test_packet_on_the_wire_is_not_counted_sent(self, sim):
        iface = self._link(sim)
        iface.send(Packet(1250, 1, 2))  # 1 ms on the wire
        sim.run(until=0.0005)
        assert iface.is_busy and iface.qlen == 0
        assert iface.stats.packets_sent == 0 and iface.stats.busy_time == 0.0
        assert iface.utilization() == 1.0
        sim.run(until=0.001)
        assert not iface.is_busy
        assert (iface.stats.packets_sent, iface.stats.bytes_sent) == (1, 1250)
        assert iface.stats.busy_time == 0.001

    def test_run_ending_mid_serialisation_leaves_it_out_of_packets_forwarded(self):
        # packets_forwarded sums packets_sent over the interfaces: a run
        # stopped while an interface serialises leaves that packet out
        sim = Simulator(seed=1)
        scenario = compile_scenario(sim, dumbbell(SMALL_PATH, 1))
        sim.run(until=0.5)
        interfaces = list(scenario.topology.interfaces())
        busy = [iface for iface in interfaces if iface.is_busy]
        assert busy
        sent = sum(iface.stats.packets_sent for iface in interfaces)
        dequeued = sum(iface.queue.stats.dequeued for iface in interfaces)
        assert sent == dequeued - len(busy)

    def test_back_to_back_serialisations_need_one_completion_each_waiting_packet(self, sim):
        iface = self._link(sim)
        for _ in range(4):
            iface.send(Packet(1250, 1, 2))
        sim.run()
        # 4 deliveries plus 3 completion events (one per packet that waited)
        assert sim.events_processed == 7
        assert iface.stats.packets_sent == 4 and iface.stats.busy_time == 0.004


def test_drop_tail_pass_through_matches_enqueue_then_dequeue():
    clock = [0.0]

    def fresh():
        return DropTailQueue(4, capacity_bytes=3000, clock=lambda: clock[0])

    fast, slow = fresh(), fresh()
    script = [(0.0, 1500), (0.5, 1500), (0.7, 4000), (1.25, 100), (1.25, 2999)]
    for now, size in script:
        clock[0] = now
        a, b = Packet(size, 1, 2), Packet(size, 1, 2)
        got = fast.pass_through(a)
        want = slow.dequeue() if slow.enqueue(b) else False
        assert (got is a) == (want is b) and (got is False) == (want is False)
        assert _stats(fast) == _stats(slow)
    clock[0] = 2.0
    assert fast.stats.mean_occupancy(2.0, 0) == slow.stats.mean_occupancy(2.0, 0)


def _stats(queue):
    return [getattr(queue.stats, name) for name in queue.stats.__slots__]
