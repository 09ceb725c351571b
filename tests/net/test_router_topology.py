"""Tests for routers and topology/route construction."""

from __future__ import annotations

import pytest

from repro.errors import RoutingError, TopologyError
from repro.host import Host
from repro.net import DropTailQueue, Packet, Router, Topology, default_queue_factory
from repro.units import Mbps


def star_topology(sim):
    """host_a -- router -- host_b."""
    topo = Topology(sim)
    a = Host(sim, "a", 1)
    b = Host(sim, "b", 2)
    r = Router("r", 3)
    for node in (a, b, r):
        topo.add_node(node)
    topo.add_link(a, r, Mbps(10), 0.001)
    topo.add_link(r, b, Mbps(10), 0.001)
    topo.build_routes()
    return topo, a, b, r


class TestRouter:
    def test_forwards_toward_destination(self, sim):
        topo, a, b, r = star_topology(sim)
        a.send_packet(Packet(1000, src=a.address, dst=b.address))
        sim.run()
        assert b.udp_packets_received == 1
        assert r.packets_forwarded == 1

    def test_packet_addressed_to_router_is_consumed(self, sim):
        topo, a, b, r = star_topology(sim)
        a.send_packet(Packet(500, src=a.address, dst=r.address))
        sim.run()
        assert r.packets_received == 1
        assert r.packets_forwarded == 0

    def test_no_route_counts_drop(self, sim):
        topo, a, b, r = star_topology(sim)
        a.send_packet(Packet(500, src=a.address, dst=99))
        sim.run()
        assert r.no_route_drops == 1

    def test_route_for_unknown_raises(self, sim):
        r = Router("r", 1)
        with pytest.raises(RoutingError):
            r.route_for(42)

    def test_set_route_rejects_foreign_interface(self, sim):
        topo, a, b, r = star_topology(sim)
        foreign = a.default_interface
        with pytest.raises(RoutingError):
            r.set_route(b.address, foreign)

    def test_router_buffer_overflow_counts_drops(self, sim):
        topo = Topology(sim)
        a = Host(sim, "a", 1)
        b = Host(sim, "b", 2)
        r = Router("r", 3)
        for node in (a, b, r):
            topo.add_node(node)
        # fast ingress, slow egress with a tiny buffer => router drops
        topo.add_link(a, r, Mbps(100), 0.0,
                      queue_factory=default_queue_factory(1000))
        topo.add_link(r, b, Mbps(1), 0.0,
                      queue_factory=default_queue_factory(2))
        topo.build_routes()
        for _ in range(20):
            a.send_packet(Packet(1500, src=a.address, dst=b.address))
        sim.run()
        assert r.packets_dropped > 0
        assert b.udp_packets_received < 20

    def test_total_buffer_occupancy(self, sim):
        topo, a, b, r = star_topology(sim)
        assert r.total_buffer_occupancy() == 0


class TestTopology:
    def test_duplicate_node_name_rejected(self, sim):
        topo = Topology(sim)
        topo.add_node(Host(sim, "x", 1))
        with pytest.raises(TopologyError):
            topo.add_node(Host(sim, "x", 2))

    def test_duplicate_address_rejected(self, sim):
        topo = Topology(sim)
        topo.add_node(Host(sim, "x", 1))
        with pytest.raises(TopologyError):
            topo.add_node(Host(sim, "y", 1))

    def test_link_requires_registered_nodes(self, sim):
        topo = Topology(sim)
        a = Host(sim, "a", 1)
        b = Host(sim, "b", 2)
        topo.add_node(a)
        with pytest.raises(TopologyError):
            topo.add_link(a, b, Mbps(1), 0.001)

    def test_link_creates_two_interfaces(self, sim):
        topo = Topology(sim)
        a = Host(sim, "a", 1)
        b = Host(sim, "b", 2)
        topo.add_node(a)
        topo.add_node(b)
        spec = topo.add_link(a, b, Mbps(1), 0.001)
        assert spec.iface_ab.node is a
        assert spec.iface_ba.node is b
        assert spec.iface_ab.peer_node is b
        assert spec.iface_ba.peer_node is a

    def test_node_lookup(self, sim):
        topo, a, b, r = star_topology(sim)
        assert topo.node("a") is a
        with pytest.raises(TopologyError):
            topo.node("nope")

    def test_hosts_and_routers_listing(self, sim):
        topo, a, b, r = star_topology(sim)
        assert set(n.name for n in topo.hosts()) == {"a", "b"}
        assert [n.name for n in topo.routers()] == ["r"]

    def test_interfaces_iteration(self, sim):
        topo, _, _, _ = star_topology(sim)
        assert len(list(topo.interfaces())) == 4  # 2 links x 2 directions

    def test_path_rtt(self, sim):
        topo, a, b, r = star_topology(sim)
        assert topo.path_rtt("a", "b") == pytest.approx(0.004)

    def test_routes_on_chain_of_routers(self, sim):
        topo = Topology(sim)
        a = Host(sim, "a", 1)
        b = Host(sim, "b", 2)
        r1 = Router("r1", 3)
        r2 = Router("r2", 4)
        for node in (a, b, r1, r2):
            topo.add_node(node)
        topo.add_link(a, r1, Mbps(10), 0.001)
        topo.add_link(r1, r2, Mbps(10), 0.001)
        topo.add_link(r2, b, Mbps(10), 0.001)
        topo.build_routes()
        a.send_packet(Packet(800, src=a.address, dst=b.address))
        sim.run()
        assert b.udp_packets_received == 1
        assert r1.packets_forwarded == 1
        assert r2.packets_forwarded == 1

    def test_disconnected_topology_rejected(self, sim):
        topo = Topology(sim)
        topo.add_node(Host(sim, "a", 1))
        topo.add_node(Host(sim, "b", 2))
        with pytest.raises(TopologyError):
            topo.build_routes()

    def test_unknown_routing_weight_rejected(self, sim):
        topo = Topology(sim)
        with pytest.raises(TopologyError, match="'rate'"):
            topo.build_routes(weight="rate")

    def test_empty_topology_routes_nothing(self, sim):
        topo = Topology(sim)
        topo.build_routes()
        assert topo.routers() == []

    def test_path_rtt_unknown_node_raises(self, sim):
        topo, *_ = star_topology(sim)
        with pytest.raises(TopologyError, match="'nope'"):
            topo.path_rtt("a", "nope")

    def test_path_rtt_unreachable_node_raises(self, sim):
        topo = Topology(sim)
        topo.add_node(Host(sim, "a", 1))
        topo.add_node(Host(sim, "b", 2))
        with pytest.raises(TopologyError, match="no path from 'a' to 'b'"):
            topo.path_rtt("a", "b")

    def test_interface_to_unknown_neighbor_raises(self, sim):
        topo, a, b, r = star_topology(sim)
        with pytest.raises(TopologyError):
            r.interface_to(999)

    def test_default_queue_factory_capacity(self, sim):
        factory = default_queue_factory(7)
        queue = factory(lambda: 0.0, "q")
        assert isinstance(queue, DropTailQueue)
        assert queue.capacity_packets == 7

    def test_asymmetric_link_rates(self, sim):
        topo = Topology(sim)
        a = Host(sim, "a", 1)
        b = Host(sim, "b", 2)
        topo.add_node(a)
        topo.add_node(b)
        spec = topo.add_link(a, b, Mbps(10), 0.001, rate_ba_bps=Mbps(1))
        assert spec.iface_ab.rate_bps == Mbps(10)
        assert spec.iface_ba.rate_bps == Mbps(1)
        assert spec.rate_ba_bps == Mbps(1)
        # symmetric links mirror the forward rate
        sym = Topology(sim)
        sym.add_node(Host(sim, "c", 3))
        sym.add_node(Host(sim, "d", 4))
        spec2 = sym.add_link(sym.node("c"), sym.node("d"), Mbps(10), 0.001)
        assert spec2.rate_ba_bps == Mbps(10)


class TestWeightedRouting:
    """Delay-weighted shortest paths on a graph with ≥3 routers.

    The diamond gives two candidate r1→r3 paths: a direct one-hop link with
    a large propagation delay and a two-hop detour through r2 whose total
    delay is far smaller — so hop-count and delay-weighted routing disagree.
    """

    def diamond(self, sim):
        topo = Topology(sim)
        a = Host(sim, "a", 1)
        b = Host(sim, "b", 2)
        r1, r2, r3 = Router("r1", 3), Router("r2", 4), Router("r3", 5)
        for node in (a, b, r1, r2, r3):
            topo.add_node(node)
        topo.add_link(a, r1, Mbps(10), 0.0001)
        topo.add_link(r3, b, Mbps(10), 0.0001)
        topo.add_link(r1, r3, Mbps(10), 0.100, name="slow-direct")
        topo.add_link(r1, r2, Mbps(10), 0.001)
        topo.add_link(r2, r3, Mbps(10), 0.001)
        return topo, a, b, r1, r2, r3

    def test_hop_count_routing_prefers_the_direct_link(self, sim):
        topo, a, b, r1, r2, r3 = self.diamond(sim)
        topo.build_routes()
        a.send_packet(Packet(800, src=a.address, dst=b.address))
        sim.run()
        assert b.udp_packets_received == 1
        assert r2.packets_forwarded == 0  # detour not taken

    def test_delay_weighted_routing_takes_the_low_delay_detour(self, sim):
        topo, a, b, r1, r2, r3 = self.diamond(sim)
        topo.build_routes(weight="delay")
        a.send_packet(Packet(800, src=a.address, dst=b.address))
        sim.run()
        assert b.udp_packets_received == 1
        assert r2.packets_forwarded == 1  # 0.002 s detour beats 0.100 s direct
        assert r1.packets_forwarded == 1 and r3.packets_forwarded == 1

    def test_delay_weighted_routing_is_symmetric(self, sim):
        topo, a, b, r1, r2, r3 = self.diamond(sim)
        topo.build_routes(weight="delay")
        b.send_packet(Packet(800, src=b.address, dst=a.address))
        sim.run()
        assert a.udp_packets_received == 1
        assert r2.packets_forwarded == 1

    def test_path_rtt_uses_delay_weighted_paths(self, sim):
        topo, a, b, *_ = self.diamond(sim)
        topo.build_routes(weight="delay")
        # 2 × (0.0001 + 0.001 + 0.001 + 0.0001), ignoring the slow direct link
        assert topo.path_rtt("a", "b") == pytest.approx(0.0044)
