"""Compile declarative scenario specs into live simulation objects.

The bridge between the data layer (:mod:`repro.spec.scenario`) and the
simulation layer, and the only code that places flows and cross traffic
on a topology: :func:`compile_topology` instantiates a
:class:`~repro.spec.scenario.TopologySpec` as hosts, routers, queues and
interfaces; :func:`compile_scenario` additionally attaches the declared
bulk flows and cross-traffic sources, returning the
:class:`~repro.workloads.scenarios.Scenario` container that monitors,
metrics and the experiment runner read.

Determinism note: nodes are instantiated in declaration order (fixing the
address allocation) and links/flows in declaration order (fixing interface
attachment, port assignment and event scheduling), so one scenario spec
always compiles to the same simulation.
"""

from __future__ import annotations

from dataclasses import fields

from ..core.config import RestrictedSlowStartConfig
from ..core.restricted_slow_start import RestrictedSlowStart
from ..errors import ExperimentError
from ..host.apps import CBRSource, OnOffSource, PoissonSource
from ..host.host import Host
from ..net.address import AddressAllocator
from ..net.lossmodels import (
    BernoulliLoss,
    DeterministicLoss,
    GilbertElliottLoss,
    LossModel,
)
from ..net.aqm import CoDelQueue, DualPI2Queue
from ..net.node import Node
from ..net.queues import DropTailQueue, PacketQueue, REDQueue
from ..net.router import Router
from ..net.topology import Topology
from ..sim.engine import Simulator
from ..spec.scenario import (
    CrossTrafficSpec,
    FlowSpec,
    LossSpec,
    QueueSpec,
    ScenarioSpec,
    TopologySpec,
)
from .scenarios import CROSS_TRAFFIC_PORT_BASE, CCFactory, PathConfig, Scenario

__all__ = [
    "compile_topology",
    "compile_scenario",
    "attach_workload",
    "attach_flow_spec",
    "attach_cross_traffic_spec",
    "build_loss_model",
    "build_queue",
    "resolve_restricted_config",
    "scenario_cc_factory",
    "core_drops",
    "core_marks",
    "core_capacity_bps",
]

_LOSS_CLASSES: dict[str, type[LossModel]] = {
    "bernoulli": BernoulliLoss,
    "gilbert_elliott": GilbertElliottLoss,
    "deterministic": DeterministicLoss,
}


def build_loss_model(spec: LossSpec | None) -> LossModel | None:
    """Instantiate a declared loss model (``None`` passes through)."""
    if spec is None:
        return None
    return _LOSS_CLASSES[spec.model](**spec.params)


def build_queue(queue: "int | QueueSpec", sim: Simulator, clock, name: str, *,
                rate_bps: float) -> PacketQueue:
    """Instantiate one direction's declared queue.

    A plain ``int`` compiles exactly as before — a drop-tail queue with no
    RNG stream drawn — keeping legacy scenarios bit-identical.  A
    :class:`~repro.spec.scenario.QueueSpec` dispatches on its discipline;
    the randomised disciplines (``red``, ``dualpi2``) draw a named
    ``aqm:<queue name>`` stream from the simulator's seeded hierarchy, so
    their coin flips follow the experiment seed.  RED's unset thresholds
    default to capacity/12 and capacity/4, and its average-decay packet
    time to one MTU at the link rate.
    """
    if not isinstance(queue, QueueSpec):
        return DropTailQueue(queue, clock=clock, name=name)
    cap = queue.capacity_packets
    params = dict(queue.params)
    if queue.discipline == "droptail":
        return DropTailQueue(cap, capacity_bytes=params.get("capacity_bytes"),
                             clock=clock, name=name)
    if queue.discipline == "red":
        params.setdefault("min_threshold", max(1.0, cap / 12.0))
        params.setdefault("max_threshold", max(2.0, cap / 4.0))
        params.setdefault("mean_pkt_time", 8.0 * 1500 / rate_bps)
        return REDQueue(cap, rng=sim.rng(f"aqm:{name}"), clock=clock,
                        name=name, ecn=queue.ecn, **params)
    if queue.discipline == "codel":
        return CoDelQueue(capacity_packets=cap, ecn=queue.ecn, clock=clock,
                          name=name, **params)
    return DualPI2Queue(capacity_packets=cap, rng=sim.rng(f"aqm:{name}"),
                        ecn=queue.ecn, clock=clock, name=name, **params)


def compile_topology(
    sim: Simulator,
    spec: TopologySpec,
    allocator: AddressAllocator | None = None,
) -> tuple[Topology, dict[str, Node]]:
    """Instantiate a declared topology graph on ``sim``.

    Returns the built :class:`Topology` plus a name → node mapping.
    """
    allocator = allocator if allocator is not None else AddressAllocator()
    topology = Topology(sim)
    nodes: dict[str, Node] = {}
    for node_spec in spec.nodes:
        address = allocator.allocate(node_spec.name)
        node: Node
        if node_spec.role == "router":
            node = Router(node_spec.name, address)
        else:
            node = Host(sim, node_spec.name, address)
        topology.add_node(node)
        nodes[node_spec.name] = node
    for link in spec.links:
        topology.add_link(
            nodes[link.a], nodes[link.b], link.rate_bps, link.delay_s,
            queue_factory=lambda c, n, q=link.queue_ab_packets,
                r=link.rate_bps:
                build_queue(q, sim, c, n, rate_bps=r),
            queue_factory_ba=lambda c, n, q=link.queue_ba_packets,
                r=(link.rate_ba_bps if link.rate_ba_bps is not None
                   else link.rate_bps):
                build_queue(q, sim, c, n, rate_bps=r),
            loss_model=build_loss_model(link.loss_ab),
            loss_model_ba=build_loss_model(link.loss_ba),
            rate_ba_bps=link.rate_ba_bps,
            name=link.name,
        )
    topology.build_routes(weight=spec.routing_weight)
    return topology, nodes


def resolve_restricted_config(
    config: PathConfig,
    cc_kwargs: dict | None = None,
    rss_config: RestrictedSlowStartConfig | None = None,
) -> RestrictedSlowStartConfig:
    """The controller configuration a declared ``restricted`` flow gets.

    Gains derive from the path config's RTT (the controller scales with the
    feedback delay); ``cc_kwargs`` apply as
    :class:`RestrictedSlowStartConfig` field overrides (e.g.
    ``{"setpoint_fraction": 0.5}``).  Shared by the packet compiler and the
    fluid backends so both engines accept exactly the same declarations.
    """
    rss = (rss_config if rss_config is not None
           else RestrictedSlowStartConfig.for_path(config.rtt))
    if cc_kwargs:
        try:
            rss = rss.replace(**cc_kwargs)
        except TypeError:
            raise ExperimentError(
                f"cc_kwargs for a restricted flow are "
                f"RestrictedSlowStartConfig overrides; got {cc_kwargs!r}, "
                f"valid fields: "
                f"{sorted(f.name for f in fields(RestrictedSlowStartConfig))}"
            ) from None
    return rss


def scenario_cc_factory(
    cc: str,
    config: PathConfig,
    cc_kwargs: dict | None = None,
    rss_config: RestrictedSlowStartConfig | None = None,
) -> CCFactory | None:
    """Path-matched factory for algorithms needing per-path configuration.

    Flows declared as ``cc="restricted"`` resolve through
    :func:`resolve_restricted_config`; other algorithms return ``None`` and
    resolve through the CC registry, which receives ``cc_kwargs`` directly.
    """
    if cc == "restricted":
        rss = resolve_restricted_config(config, cc_kwargs, rss_config)
        return lambda ctx: RestrictedSlowStart(ctx, rss)
    return None


def attach_flow_spec(scenario: Scenario, flow: FlowSpec, index: int) -> None:
    """Attach one declared flow (index fixes its default name and port)."""
    factory = scenario_cc_factory(flow.cc, scenario.config, flow.cc_kwargs)
    scenario.add_bulk_flow_between(
        flow.src, flow.dst,
        cc=factory if factory is not None else flow.cc,
        total_bytes=flow.total_bytes,
        start_time=flow.start_time,
        stop_time=flow.stop_time,
        # both endpoints offer ECN so the handshake negotiates it
        options=scenario.config.tcp_options(ecn=True) if flow.ecn else None,
        cc_kwargs=flow.cc_kwargs or None,
        port=flow.port,
        name=f"flow{index}:{flow.cc}",
    )


def attach_cross_traffic_spec(scenario: Scenario, spec: CrossTrafficSpec,
                              index: int):
    """Attach one declared UDP cross-traffic source; returns the app."""
    src = scenario.topology.node(spec.src)
    dst = scenario.topology.node(spec.dst)
    rate = spec.rate_fraction * scenario.config.bottleneck_rate_bps
    common = dict(
        sim=scenario.sim,
        host=src,
        remote_addr=dst.address,
        remote_port=(spec.port if spec.port is not None
                     else CROSS_TRAFFIC_PORT_BASE + index),
        packet_bytes=spec.packet_bytes,
        start_time=spec.start_time,
        stop_time=spec.stop_time,
    )
    if spec.kind == "cbr":
        return CBRSource(rate_bps=rate, **common)
    if spec.kind == "poisson":
        return PoissonSource(rate_bps=rate, **common)
    return OnOffSource(peak_rate_bps=rate, **common)


def compile_scenario(
    sim: Simulator,
    spec: ScenarioSpec,
    *,
    attach_flows: bool = True,
) -> Scenario:
    """Instantiate a declared scenario: topology, flows and cross traffic.

    ``attach_flows=False`` builds only the topology (callers then attach
    their own workload via :meth:`Scenario.add_bulk_flow_between`); the
    scenario's sender/receiver lists still follow the declared flows, so
    index-based accessors (``sender_ifq(0)``, ...) stay meaningful.
    """
    topology, nodes = compile_topology(sim, spec.topology)

    senders: list[Host] = []
    receivers: list[Host] = []
    for flow in spec.flows:
        src, dst = nodes[flow.src], nodes[flow.dst]
        if src not in senders:
            senders.append(src)  # type: ignore[arg-type]
        if dst not in receivers:
            receivers.append(dst)  # type: ignore[arg-type]

    scenario = Scenario(
        sim=sim,
        config=spec.config,
        topology=topology,
        senders=senders,
        receivers=receivers,
        routers=[nodes[name] for name in spec.topology.router_names],
    )
    if attach_flows:
        attach_workload(scenario, spec)
    return scenario


def attach_workload(scenario: Scenario, spec: ScenarioSpec, *,
                    skip_first_flow: bool = False) -> None:
    """Attach a scenario's declared flows and cross traffic, in order.

    ``skip_first_flow`` is for callers that attach the first (primary) flow
    themselves with custom options — they must do so *before* calling this,
    so the default per-flow port assignment stays in declaration order.
    """
    for i, flow in enumerate(spec.flows):
        if skip_first_flow and i == 0:
            continue
        attach_flow_spec(scenario, flow, i)
    for i, xt in enumerate(spec.cross_traffic):
        scenario.cross_traffic.append(attach_cross_traffic_spec(scenario, xt, i))


def core_drops(topology: Topology) -> int:
    """Packets dropped on router→router (core) queues, both directions.

    The multi-bottleneck generalisation of the dumbbell's single
    ``bottleneck_interface().queue.stats.dropped`` counter.
    """
    total = 0
    for link in topology.links:
        if isinstance(link.node_a, Router) and isinstance(link.node_b, Router):
            total += link.iface_ab.queue.stats.dropped
            total += link.iface_ba.queue.stats.dropped
    return total


def core_marks(topology: Topology) -> int:
    """CE marks applied on router→router (core) queues, both directions.

    The ECN sibling of :func:`core_drops` — on an AQM bottleneck a healthy
    L4S flow shows marks here where a drop-tail baseline shows drops.
    """
    total = 0
    for link in topology.links:
        if isinstance(link.node_a, Router) and isinstance(link.node_b, Router):
            total += link.iface_ab.queue.stats.marked
            total += link.iface_ba.queue.stats.marked
    return total


def core_capacity_bps(topology: Topology) -> float:
    """Total forward capacity of the router→router (core) links.

    The normaliser for aggregate utilisation on multi-bottleneck graphs:
    every flow crosses at least one core link, so the sum of flow goodputs
    never exceeds this total and the reported utilisation stays in [0, 1].
    """
    return float(sum(
        link.rate_bps for link in topology.links
        if isinstance(link.node_a, Router) and isinstance(link.node_b, Router)))
