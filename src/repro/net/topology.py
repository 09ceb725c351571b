"""Topology container and route computation.

:class:`Topology` keeps track of nodes and bidirectional links, builds the
per-direction :class:`~repro.net.interface.NetworkInterface` pairs, and
computes destination-based routing tables for every
:class:`~repro.net.router.Router`.

Routing rule: each router sends a packet for a host along a shortest path,
by hop count (the default) or by summed propagation delay
(``weight="delay"``).  Ties go to the first path found in link declaration
order: Dijkstra pops equal distances in push order, visits a node's
neighbours in the order their links were declared, relaxes only on a
strictly shorter distance, and so keeps the first path it finds.  A link
re-declared between the same two nodes overwrites the first one's delay.

The concrete experiment topologies (single path, dumbbell with N flows) are
assembled by :mod:`repro.workloads.scenarios` on top of this class.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Callable, Iterable

from ..errors import TopologyError
from ..sim.engine import Simulator
from .interface import NetworkInterface
from .lossmodels import LossModel
from .node import Node
from .queues import DropTailQueue, PacketQueue
from .router import Router

__all__ = ["Topology", "LinkSpec", "default_queue_factory"]

#: Signature of a queue factory: ``factory(clock, name) -> PacketQueue``.
QueueFactory = Callable[[Callable[[], float], str], PacketQueue]


def default_queue_factory(capacity_packets: int = 100) -> QueueFactory:
    """Return a factory building drop-tail queues of ``capacity_packets``."""

    def factory(clock: Callable[[], float], name: str) -> PacketQueue:
        return DropTailQueue(capacity_packets, clock=clock, name=name)

    return factory


class LinkSpec:
    """Description of one bidirectional link installed in a topology.

    ``rate_bps`` is the forward (a→b) line rate; ``rate_ba_bps`` the
    reverse rate, which equals the forward rate on symmetric links.
    """

    __slots__ = ("node_a", "node_b", "iface_ab", "iface_ba", "rate_bps",
                 "rate_ba_bps", "delay_s")

    def __init__(
        self,
        node_a: Node,
        node_b: Node,
        iface_ab: NetworkInterface,
        iface_ba: NetworkInterface,
        rate_bps: float,
        delay_s: float,
        rate_ba_bps: float | None = None,
    ) -> None:
        self.node_a = node_a
        self.node_b = node_b
        self.iface_ab = iface_ab
        self.iface_ba = iface_ba
        self.rate_bps = rate_bps
        self.rate_ba_bps = rate_ba_bps if rate_ba_bps is not None else rate_bps
        self.delay_s = delay_s


class Topology:
    """A collection of nodes and links plus routing-table construction."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: dict[str, Node] = {}
        self.links: list[LinkSpec] = []
        # node name -> neighbour name -> link delay, both in declaration order
        self._adj: dict[str, dict[str, float]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> Node:
        """Register a node (host or router) with the topology."""
        if node.name in self.nodes:
            raise TopologyError(f"duplicate node name {node.name!r}")
        for existing in self.nodes.values():
            if existing.address == node.address:
                raise TopologyError(
                    f"duplicate address {node.address} ({existing.name!r} vs {node.name!r})"
                )
        self.nodes[node.name] = node
        self._adj[node.name] = {}
        return node

    def add_link(
        self,
        node_a: Node,
        node_b: Node,
        rate_bps: float,
        delay_s: float,
        queue_factory: QueueFactory | None = None,
        queue_factory_ba: QueueFactory | None = None,
        loss_model: LossModel | None = None,
        loss_model_ba: LossModel | None = None,
        rate_ba_bps: float | None = None,
        name: str | None = None,
    ) -> LinkSpec:
        """Create a bidirectional link between two registered nodes.

        Each direction gets its own queue (built by ``queue_factory``; the
        reverse direction may use a different ``queue_factory_ba``) and its
        own :class:`NetworkInterface`.  ``rate_ba_bps`` makes the link
        asymmetric (a slower reverse/ACK direction); ``None`` mirrors
        ``rate_bps``.
        """
        for node in (node_a, node_b):
            if node.name not in self.nodes:
                raise TopologyError(f"node {node.name!r} is not part of this topology")
        if queue_factory is None:
            queue_factory = default_queue_factory()
        if queue_factory_ba is None:
            queue_factory_ba = queue_factory
        label = name or f"{node_a.name}--{node_b.name}"
        clock = self.sim.clock

        q_ab = queue_factory(clock, f"{label}:{node_a.name}->{node_b.name}")
        q_ba = queue_factory_ba(clock, f"{label}:{node_b.name}->{node_a.name}")
        iface_ab = NetworkInterface(
            self.sim, node_a, q_ab, rate_bps, delay_s,
            name=f"{node_a.name}->{node_b.name}", loss_model=loss_model,
        )
        iface_ba = NetworkInterface(
            self.sim, node_b, q_ba,
            rate_ba_bps if rate_ba_bps is not None else rate_bps, delay_s,
            name=f"{node_b.name}->{node_a.name}", loss_model=loss_model_ba,
        )
        iface_ab.connect(node_b, iface_ba)
        iface_ba.connect(node_a, iface_ab)

        spec = LinkSpec(node_a, node_b, iface_ab, iface_ba, rate_bps, delay_s,
                        rate_ba_bps=rate_ba_bps)
        self.links.append(spec)
        self._adj[node_a.name][node_b.name] = delay_s
        self._adj[node_b.name][node_a.name] = delay_s
        return spec

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _shortest_paths(
        self, source: str, weight: str | None
    ) -> tuple[dict[str, float], dict[str, str]]:
        """Dijkstra from ``source``: distance and first hop per reachable node.

        Ties follow the module's routing rule: the heap is keyed by
        (distance, push counter) and only a strictly shorter distance relaxes.
        """
        adj = self._adj
        dist: dict[str, float] = {}
        seen: dict[str, float] = {source: 0}
        first_hop: dict[str, str] = {}
        pushes = count()
        fringe: list[tuple[float, int, str]] = [(0, next(pushes), source)]
        while fringe:
            d, _, v = heappop(fringe)
            if v in dist:
                continue
            dist[v] = d
            for u, delay in adj[v].items():
                du = d + (1 if weight is None else delay)
                if u not in dist and (u not in seen or du < seen[u]):
                    seen[u] = du
                    first_hop[u] = u if v == source else first_hop[v]
                    heappush(fringe, (du, next(pushes), u))
        return dist, first_hop

    def build_routes(self, weight: str | None = None) -> None:
        """Populate every router's routing table using shortest paths.

        Parameters
        ----------
        weight:
            ``None`` for hop-count shortest paths, or ``"delay"`` to minimise
            summed propagation delay instead.  Ties follow the module's
            routing rule.  Hosts get no table; a topology without routers
            routes nothing.
        """
        if weight not in (None, "delay"):
            raise TopologyError(
                f"unknown routing weight {weight!r}; use None (hop count) or 'delay'")
        if self._adj:
            origin = next(iter(self._adj))
            reached, _ = self._shortest_paths(origin, None)
            unreachable = [name for name in self._adj if name not in reached]
            if unreachable:
                raise TopologyError(
                    f"topology graph is not connected: {unreachable} "
                    f"unreachable from {origin!r}")
        for node in self.nodes.values():
            if not isinstance(node, Router):
                continue
            _, first_hop = self._shortest_paths(node.name, weight)
            for dest_name, dest_node in self.nodes.items():
                if dest_name == node.name or isinstance(dest_node, Router):
                    continue
                next_hop = self.nodes[first_hop[dest_name]]
                node.set_route(dest_node.address, node.interface_to(next_hop.address))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        """Look up a node by name."""
        try:
            return self.nodes[name]
        except KeyError:
            raise TopologyError(f"unknown node {name!r}") from None

    def routers(self) -> list[Router]:
        """All routers in the topology."""
        return [n for n in self.nodes.values() if isinstance(n, Router)]

    def hosts(self) -> list[Node]:
        """All non-router nodes in the topology."""
        return [n for n in self.nodes.values() if not isinstance(n, Router)]

    def interfaces(self) -> Iterable[NetworkInterface]:
        """Every interface in the topology (both link directions)."""
        for spec in self.links:
            yield spec.iface_ab
            yield spec.iface_ba

    def path_rtt(self, name_a: str, name_b: str) -> float:
        """Two-way propagation delay between two nodes (ignores serialisation).

        Follows the minimum-delay path, as ``build_routes(weight="delay")``.
        """
        for name in (name_a, name_b):
            if name not in self._adj:
                raise TopologyError(f"unknown node {name!r}")
        dist, _ = self._shortest_paths(name_a, "delay")
        if name_b not in dist:
            raise TopologyError(f"no path from {name_a!r} to {name_b!r}")
        return 2.0 * dist[name_b]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Topology nodes={len(self.nodes)} links={len(self.links)}>"
