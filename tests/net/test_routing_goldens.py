"""Routing-table goldens and a shortest-path property for ``build_routes``.

Each golden maps router name -> destination host -> next-hop node name.  The
hand-built cases exercise the tie rule documented in
:mod:`repro.net.topology`: equal hop counts, equal delay sums, and a link
re-declared between the same two routers.  A changed next hop changes which
interface a packet leaves by, so it would also move the packet goldens.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host import Host
from repro.net import Router, Topology
from repro.sim import Simulator
from repro.spec.scenario import available_scenarios, scenario_factory
from repro.units import Mbps
from repro.workloads.compile import compile_topology


def next_hops(topology: Topology) -> dict[str, dict[str, str]]:
    """router name -> {destination name -> next-hop node name}."""
    by_address = {node.address: name for name, node in topology.nodes.items()}
    return {
        router.name: {by_address[dst]: iface.peer_node.name
                      for dst, iface in router.routing_table.items()}
        for router in topology.routers()
    }


def build(routers, hosts, links, weight=None) -> Topology:
    """A topology of ``routers`` then ``hosts``, linked in ``links`` order.

    ``links`` holds ``(a, b, delay_s)`` triples.
    """
    sim = Simulator(seed=1)
    topology = Topology(sim)
    address = 1
    for name in routers:
        topology.add_node(Router(name, address))
        address += 1
    for name in hosts:
        topology.add_node(Host(sim, name, address))
        address += 1
    for a, b, delay in links:
        topology.add_link(topology.node(a), topology.node(b), Mbps(10), delay)
    topology.build_routes(weight=weight)
    return topology


def ring4() -> Topology:
    """Four routers in a ring, one host each: opposite hosts tie on hops."""
    return build(
        ["r0", "r1", "r2", "r3"], ["h0", "h1", "h2", "h3"],
        [("r0", "r1", 0.001), ("r1", "r2", 0.001), ("r2", "r3", 0.001),
         ("r3", "r0", 0.001)]
        + [(f"h{i}", f"r{i}", 0.0001) for i in range(4)])


def diamond(middle_first: str, middle_second: str, delays=(0.001, 0.001, 0.001, 0.001),
            weight=None) -> Topology:
    """a -- r1 -- {r2, r3} -- r4 -- b, the two middle branches declared in order."""
    d1, d2, d3, d4 = delays
    return build(
        ["r1", "r2", "r3", "r4"], ["a", "b"],
        [("a", "r1", 0.0001), ("b", "r4", 0.0001),
         ("r1", middle_first, d1), (middle_first, "r4", d2),
         ("r1", middle_second, d3), (middle_second, "r4", d4)],
        weight=weight)


def redeclared() -> Topology:
    """r1 -- r3 declared slow, then re-declared (reversed) faster than r1-r2-r3."""
    return build(
        ["r1", "r2", "r3"], ["a", "b", "c"],
        [("a", "r1", 0.0001), ("b", "r3", 0.0001), ("c", "r2", 0.0001),
         ("r1", "r2", 0.001), ("r2", "r3", 0.001), ("r1", "r3", 0.010),
         ("r3", "r1", 0.0005)],
        weight="delay")


def gallery(name: str) -> Topology:
    spec = scenario_factory(name)()
    topology, _ = compile_topology(Simulator(seed=1), spec.topology)
    return topology


GALLERY_GOLDENS = {
    "aqm_dumbbell": {
        "r1": {"receiver0": "r2", "sender0": "sender0"},
        "r2": {"receiver0": "receiver0", "sender0": "r1"},
    },
    "asymmetric_path": {
        "r1": {"receiver0": "r2", "sender0": "sender0"},
        "r2": {"receiver0": "receiver0", "sender0": "r1"},
    },
    "dumbbell": {
        "r1": {"receiver0": "r2", "sender0": "sender0"},
        "r2": {"receiver0": "receiver0", "sender0": "r1"},
    },
    "l4s_dumbbell": {
        "r1": {"receiver0": "r2", "sender0": "sender0"},
        "r2": {"receiver0": "receiver0", "sender0": "r1"},
    },
    "lossy_link": {
        "r1": {"receiver0": "r2", "sender0": "sender0"},
        "r2": {"receiver0": "receiver0", "sender0": "r1"},
    },
    "parking_lot": {
        "r0": {"dst0": "r1", "dst1": "r1", "dst2": "r1", "dst3": "r1",
               "src0": "src0", "src1": "src1", "src2": "r1", "src3": "r1"},
        "r1": {"dst0": "r2", "dst1": "dst1", "dst2": "r2", "dst3": "r2",
               "src0": "r0", "src1": "r0", "src2": "src2", "src3": "r2"},
        "r2": {"dst0": "r3", "dst1": "r1", "dst2": "dst2", "dst3": "r3",
               "src0": "r1", "src1": "r1", "src2": "r1", "src3": "src3"},
        "r3": {"dst0": "dst0", "dst1": "r2", "dst2": "r2", "dst3": "dst3",
               "src0": "r2", "src1": "r2", "src2": "r2", "src3": "r2"},
    },
    "red_bottleneck": {
        "r1": {"receiver0": "r2", "sender0": "sender0"},
        "r2": {"receiver0": "receiver0", "sender0": "r1"},
    },
    "shared_path": {
        "r1": {"receiver0": "r2", "sender0": "sender0"},
        "r2": {"receiver0": "receiver0", "sender0": "r1"},
    },
}

TIE_GOLDENS = {
    "ring4": (ring4, {
        "r0": {"h0": "h0", "h1": "r1", "h2": "r1", "h3": "r3"},
        "r1": {"h0": "r0", "h1": "h1", "h2": "r2", "h3": "r0"},
        "r2": {"h0": "r1", "h1": "r1", "h2": "h2", "h3": "r3"},
        "r3": {"h0": "r0", "h1": "r2", "h2": "r2", "h3": "h3"},
    }),
    "diamond_r2_first": (lambda: diamond("r2", "r3"), {
        "r1": {"a": "a", "b": "r2"},
        "r2": {"a": "r1", "b": "r4"},
        "r3": {"a": "r1", "b": "r4"},
        "r4": {"a": "r2", "b": "b"},
    }),
    "diamond_r3_first": (lambda: diamond("r3", "r2"), {
        "r1": {"a": "a", "b": "r3"},
        "r2": {"a": "r1", "b": "r4"},
        "r3": {"a": "r1", "b": "r4"},
        "r4": {"a": "r3", "b": "b"},
    }),
    # 0.25 + 0.5 == 0.5 + 0.25 exactly: an equal delay sum on each branch;
    # r4 reaches r3 first (0.25 < 0.5), so r3's path to a is found first
    "diamond_equal_delay": (
        lambda: diamond("r2", "r3", delays=(0.25, 0.5, 0.5, 0.25), weight="delay"), {
            "r1": {"a": "a", "b": "r2"},
            "r2": {"a": "r1", "b": "r4"},
            "r3": {"a": "r1", "b": "r4"},
            "r4": {"a": "r3", "b": "b"},
        }),
    "redeclared_link": (redeclared, {
        "r1": {"a": "a", "b": "r3", "c": "r2"},
        "r2": {"a": "r1", "b": "r3", "c": "c"},
        "r3": {"a": "r1", "b": "b", "c": "r2"},
    }),
}


def test_gallery_goldens_cover_the_gallery():
    assert sorted(GALLERY_GOLDENS) == available_scenarios()


@pytest.mark.parametrize("name", sorted(GALLERY_GOLDENS))
def test_gallery_routes(name):
    assert next_hops(gallery(name)) == GALLERY_GOLDENS[name]


@pytest.mark.parametrize("name", sorted(TIE_GOLDENS))
def test_tie_routes(name):
    factory, golden = TIE_GOLDENS[name]
    assert next_hops(factory()) == golden


def test_redeclared_link_delay_sets_path_rtt():
    # a -> r1 -> r3 -> b over the re-declared 0.5 ms link, both ways
    assert redeclared().path_rtt("a", "b") == pytest.approx(2 * (0.0001 + 0.0005 + 0.0001))


# ---------------------------------------------------------------------------
# property: random connected topologies
# ---------------------------------------------------------------------------

#: Dyadic delays: every sum is exact, so distances compare with ``==``.
DELAYS = st.sampled_from([0.125, 0.25, 0.5, 1.0])


@st.composite
def connected_topologies(draw):
    """(routers, hosts, links, weight): a random tree plus extra router links.

    Extra links may repeat a router pair, which re-declares that link; hosts
    are leaves hung off one router each.
    """
    n_routers = draw(st.integers(1, 6))
    routers = [f"r{i}" for i in range(n_routers)]
    links = [(routers[draw(st.integers(0, i - 1))], routers[i], draw(DELAYS))
             for i in range(1, n_routers)]
    if n_routers > 1:
        pairs = st.tuples(st.integers(0, n_routers - 1), st.integers(0, n_routers - 1))
        for i, j in draw(st.lists(pairs.filter(lambda p: p[0] != p[1]), max_size=6)):
            links.append((routers[i], routers[j], draw(DELAYS)))
    attach = draw(st.lists(st.integers(0, n_routers - 1), min_size=1, max_size=5))
    hosts = [f"h{k}" for k in range(len(attach))]
    links += [(host, routers[i], draw(DELAYS)) for host, i in zip(hosts, attach)]
    links = draw(st.permutations(links))
    return routers, hosts, links, draw(st.sampled_from([None, "delay"]))


def all_pairs_distances(names, links, weight):
    """Floyd-Warshall over the links, the last declaration of a pair winning."""
    cost = {}
    for a, b, delay in links:
        cost[a, b] = cost[b, a] = 1 if weight is None else delay
    inf = float("inf")
    dist = {(a, b): 0 if a == b else cost.get((a, b), inf) for a in names for b in names}
    for k in names:
        for a in names:
            for b in names:
                if dist[a, k] + dist[k, b] < dist[a, b]:
                    dist[a, b] = dist[a, k] + dist[k, b]
    return cost, dist


@settings(max_examples=150, deadline=None)
@given(connected_topologies())
def test_next_hops_lie_on_shortest_paths(case):
    routers, hosts, links, weight = case
    tables = next_hops(build(routers, hosts, links, weight))
    assert tables == next_hops(build(routers, hosts, links, weight))
    cost, dist = all_pairs_distances(routers + hosts, links, weight)
    assert set(tables) == set(routers)
    for router, table in tables.items():
        assert set(table) == set(hosts)
        for dest, hop in table.items():
            assert cost[router, hop] + dist[hop, dest] == dist[router, dest]
