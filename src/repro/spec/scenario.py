"""Declarative scenario specifications: topology and workload as data.

The paper evaluates one shape — a single-flow dumbbell between Argonne and
Berkeley — and for a long time that shape was hardwired into the scenario
builders.  This module makes the scenario itself declarative: a
:class:`ScenarioSpec` is a frozen, JSON-round-trippable document composed of

* :class:`TopologySpec` — named nodes (hosts/routers) plus
  :class:`LinkSpec` edges declaring rate, delay, per-direction queue
  capacities and optional per-direction :class:`LossSpec` models;
* :class:`FlowSpec` — one bulk TCP transfer (src/dst node, algorithm,
  start time, transfer size, port);
* :class:`CrossTrafficSpec` — a UDP source (CBR/Poisson/on-off) between two
  named hosts;
* a :class:`~repro.workloads.scenarios.PathConfig` carrying the TCP/option
  parameters (MSS, receive window, ...) shared by every flow.

Specs follow the :mod:`repro.spec` conventions: strict unknown-field
rejection on ``from_dict``, a stable :meth:`~SpecBase.cache_key`, and
pickling for process fan-out.  :mod:`repro.workloads.compile` turns a
``ScenarioSpec`` into the live ``Topology``/``Scenario`` objects; the
factory functions here (:func:`dumbbell`, :func:`shared_path`,
:func:`parking_lot`, :func:`asymmetric_path`, :func:`lossy_link`) generate
the gallery of canonical shapes, with :func:`dumbbell` reproducing the
paper's testbed byte-for-byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple, NoReturn, Sequence

from ..errors import ExperimentError
from ..workloads.scenarios import DATA_PORT_BASE, PathConfig
from .specs import SpecBase, _fluid_algorithms

__all__ = [
    "NodeSpec",
    "LossSpec",
    "QueueSpec",
    "LinkSpec",
    "TopologySpec",
    "FlowSpec",
    "CrossTrafficSpec",
    "ScenarioSpec",
    "dumbbell",
    "shared_path",
    "parking_lot",
    "asymmetric_path",
    "lossy_link",
    "aqm_dumbbell",
    "l4s_dumbbell",
    "red_bottleneck",
    "from_bulk_flows",
    "SCENARIO_FACTORIES",
    "scenario_factory",
    "available_scenarios",
    "DumbbellShape",
    "dumbbell_shape",
    "fluid_unsupported_features",
    "fluid_multiflow_unsupported_features",
]

_ROLES = ("host", "router")

#: Loss-model kinds the spec layer can declare, mapped to their (required,
#: optional) parameter names (mirrors the :mod:`repro.net.lossmodels`
#: constructors).
LOSS_MODEL_PARAMS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "bernoulli": (("p",), ()),
    "gilbert_elliott": (("p_good_to_bad", "p_bad_to_good"),
                        ("loss_good", "loss_bad")),
    "deterministic": (("drop_indices",), ()),
}

_CROSS_TRAFFIC_KINDS = ("cbr", "poisson", "onoff")

#: Queue disciplines the spec layer can declare, mapped to their optional
#: parameter names (mirrors the :mod:`repro.net.queues` /
#: :mod:`repro.net.aqm` constructors; capacity and ECN capability are
#: first-class ``QueueSpec`` fields, not params).
QUEUE_DISCIPLINES: dict[str, tuple[str, ...]] = {
    "droptail": ("capacity_bytes",),
    "red": ("min_threshold", "max_threshold", "max_p", "weight",
            "mean_pkt_time"),
    "codel": ("target", "interval"),
    "dualpi2": ("target", "tupdate", "alpha", "beta", "coupling",
                "step_threshold", "ecn_classic"),
}


# ---------------------------------------------------------------------------
# topology building blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodeSpec:
    """One named node of the topology graph."""

    name: str
    role: str = "host"

    def __post_init__(self) -> None:
        if not self.name:
            raise ExperimentError("node names must be non-empty")
        if self.role not in _ROLES:
            raise ExperimentError(
                f"unknown node role {self.role!r} for {self.name!r}; "
                f"choose one of {_ROLES}")


@dataclass(frozen=True)
class LossSpec:
    """Declarative description of a link loss model."""

    model: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model not in LOSS_MODEL_PARAMS:
            raise ExperimentError(
                f"unknown loss model {self.model!r}; known models: "
                f"{sorted(LOSS_MODEL_PARAMS)}")
        required, optional = LOSS_MODEL_PARAMS[self.model]
        unknown = sorted(set(self.params) - set(required) - set(optional))
        if unknown:
            raise ExperimentError(
                f"unknown {self.model} loss parameter(s) {unknown}; "
                f"known parameters: {sorted(required + optional)}")
        missing = sorted(set(required) - set(self.params))
        if missing:
            raise ExperimentError(
                f"{self.model} loss model is missing required "
                f"parameter(s) {missing}")


@dataclass(frozen=True)
class QueueSpec:
    """Declarative description of one direction's queue discipline.

    A plain ``int`` in :class:`LinkSpec` still means "drop-tail with that
    many packets" (keeping every legacy spec document and cache key
    byte-identical); a ``QueueSpec`` additionally selects an AQM discipline
    (``red``/``codel``/``dualpi2``), whether it CE-marks ECN-capable
    packets instead of dropping, and discipline parameters (see
    :data:`QUEUE_DISCIPLINES`; unset parameters take the compile-time
    defaults derived from the link).
    """

    discipline: str = "droptail"
    capacity_packets: int = 100
    ecn: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.discipline not in QUEUE_DISCIPLINES:
            raise ExperimentError(
                f"unknown queue discipline {self.discipline!r}; known "
                f"disciplines: {sorted(QUEUE_DISCIPLINES)}")
        if self.capacity_packets <= 0:
            raise ExperimentError("queue capacity_packets must be positive")
        if self.ecn and self.discipline == "droptail":
            raise ExperimentError(
                "droptail queues cannot CE-mark; pick an AQM discipline "
                f"({sorted(set(QUEUE_DISCIPLINES) - {'droptail'})}) for ecn=True")
        known = QUEUE_DISCIPLINES[self.discipline]
        unknown = sorted(set(self.params) - set(known))
        if unknown:
            raise ExperimentError(
                f"unknown {self.discipline} queue parameter(s) {unknown}; "
                f"known parameters: {sorted(known)}")


def _queue_spec_of(value: "int | QueueSpec") -> QueueSpec:
    """Normalise a LinkSpec queue field to a :class:`QueueSpec`."""
    if isinstance(value, QueueSpec):
        return value
    return QueueSpec(capacity_packets=value)


@dataclass(frozen=True)
class LinkSpec:
    """One bidirectional edge of the topology graph.

    ``a``/``b`` name the endpoints; the *forward* direction is a→b.  Each
    direction gets its own queue — a plain ``int`` capacity (drop-tail) or
    a full :class:`QueueSpec` — and (optionally) its own loss model;
    ``rate_ba_bps`` declares an asymmetric reverse-direction line rate
    (``None`` mirrors the forward rate).
    """

    a: str
    b: str
    rate_bps: float
    delay_s: float
    rate_ba_bps: float | None = None
    queue_ab_packets: int | QueueSpec = 100
    queue_ba_packets: int | QueueSpec = 100
    loss_ab: LossSpec | None = None
    loss_ba: LossSpec | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        label = self.name or f"{self.a}--{self.b}"
        if self.a == self.b:
            raise ExperimentError(f"link {label!r} connects {self.a!r} to itself")
        if self.rate_bps <= 0:
            raise ExperimentError(f"link {label!r} rate must be positive")
        if self.rate_ba_bps is not None and self.rate_ba_bps <= 0:
            raise ExperimentError(f"link {label!r} reverse rate must be positive")
        if self.delay_s < 0:
            raise ExperimentError(f"link {label!r} delay must be >= 0")
        for queue in (self.queue_ab_packets, self.queue_ba_packets):
            # QueueSpec validates itself in its own __post_init__
            if not isinstance(queue, QueueSpec) and queue <= 0:
                raise ExperimentError(
                    f"link {label!r} queue capacities must be positive")

    @property
    def queue_ab(self) -> QueueSpec:
        """The a→b queue as a normalised :class:`QueueSpec`."""
        return _queue_spec_of(self.queue_ab_packets)

    @property
    def queue_ba(self) -> QueueSpec:
        """The b→a queue as a normalised :class:`QueueSpec`."""
        return _queue_spec_of(self.queue_ba_packets)


@dataclass(frozen=True)
class TopologySpec:
    """Named nodes plus the links connecting them."""

    nodes: tuple[NodeSpec, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    #: Routers forward along shortest paths: ``None`` by hop count,
    #: ``"delay"`` by summed propagation delay.  Ties go to the first path
    #: found in link declaration order (see :mod:`repro.net.topology`).
    routing_weight: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "links", tuple(self.links))
        if self.routing_weight not in (None, "delay"):
            raise ExperimentError(
                f"unknown routing weight {self.routing_weight!r}; "
                "use None (hop count) or 'delay'")
        seen: set[str] = set()
        for node in self.nodes:
            if node.name in seen:
                raise ExperimentError(f"duplicate node name {node.name!r}")
            seen.add(node.name)
        for link in self.links:
            for endpoint in (link.a, link.b):
                if endpoint not in seen:
                    raise ExperimentError(
                        f"link {link.name or f'{link.a}--{link.b}'!r} references "
                        f"undeclared node {endpoint!r}")

    # -- queries ---------------------------------------------------------
    def node(self, name: str) -> NodeSpec:
        for node in self.nodes:
            if node.name == name:
                return node
        raise ExperimentError(f"unknown node {name!r}")

    @property
    def host_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.role == "host")

    @property
    def router_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes if n.role == "router")


# ---------------------------------------------------------------------------
# workload building blocks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowSpec:
    """One bulk TCP transfer between two named hosts.

    ``duration`` limits how long the flow *offers* data: the sender stops
    writing at ``start_time + duration`` (the :class:`BulkSenderApp` stop
    hook), in-flight data is still delivered, and the flow counts as
    completed at the final ACK.  ``None`` sends for the whole run.

    ``ecn=True`` makes both endpoints offer RFC 3168 ECN on the handshake;
    data packets then carry the algorithm's ECT codepoint and AQM CE marks
    echo back as ECE.  Encoded documents omit the field when ``False`` so
    legacy specs and cache keys are unchanged.
    """

    src: str
    dst: str
    cc: str = "reno"
    start_time: float = 0.0
    duration: float | None = None
    total_bytes: int | None = None
    port: int | None = None
    cc_kwargs: dict = field(default_factory=dict)
    ecn: bool = False

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ExperimentError(f"flow cannot loop {self.src!r} back to itself")
        if self.start_time < 0:
            raise ExperimentError("flow start_time must be >= 0")
        if self.duration is not None and self.duration <= 0:
            raise ExperimentError("flow duration must be positive or None")
        if self.total_bytes is not None and self.total_bytes <= 0:
            raise ExperimentError("flow total_bytes must be positive or None")
        if self.port is not None and not (0 < self.port < 65536):
            raise ExperimentError(f"flow port {self.port!r} outside 1..65535")

    @property
    def stop_time(self) -> float | None:
        """Absolute stop time implied by ``duration`` (``None`` = never)."""
        if self.duration is None:
            return None
        return self.start_time + self.duration


@dataclass(frozen=True)
class CrossTrafficSpec:
    """A UDP cross-traffic source between two named hosts.

    ``rate_fraction`` is the offered load as a fraction of the scenario
    config's bottleneck rate (peak rate for the on/off source).  A source
    on a flow's own sender shares that host's IFQ with the flow (the
    host-congestion case of the paper's introduction); one on a host pair
    of its own competes only for the bottleneck.
    """

    src: str
    dst: str
    kind: str = "cbr"
    rate_fraction: float = 0.2
    packet_bytes: int = 1500
    start_time: float = 0.0
    stop_time: float | None = None
    port: int | None = None

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ExperimentError("cross traffic cannot loop back to its source")
        if self.kind not in _CROSS_TRAFFIC_KINDS:
            raise ExperimentError(
                f"unknown cross-traffic kind {self.kind!r}; "
                f"choose from {_CROSS_TRAFFIC_KINDS}")
        if not (0.0 < self.rate_fraction <= 1.0):
            raise ExperimentError("cross-traffic rate_fraction must be in (0, 1]")
        if self.packet_bytes <= 0:
            raise ExperimentError("cross-traffic packet_bytes must be positive")
        if self.start_time < 0:
            raise ExperimentError("cross-traffic start_time must be >= 0")


# ---------------------------------------------------------------------------
# ScenarioSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioSpec(SpecBase):
    """Topology plus workload, fully described by plain data.

    A scenario is the "where and what" of an experiment — the graph, the
    flows and the cross traffic; a :class:`~repro.spec.RunSpec` or
    :class:`~repro.spec.MultiFlowSpec` adds the "how" (duration, seed,
    backend).  Executing a bare ``ScenarioSpec`` through
    :func:`repro.spec.execute` wraps it in a default ``MultiFlowSpec``.

    ``config`` carries the TCP/option parameters (MSS, header size, receive
    window factor) shared by every flow; the factories also derive the
    topology's link rates and queue capacities from it, but a hand-written
    spec may declare any per-link values it likes.
    """

    kind = "scenario"

    name: str = "dumbbell"
    config: PathConfig = field(default_factory=PathConfig)
    topology: TopologySpec = None  # type: ignore[assignment]  # default derived from config
    flows: tuple[FlowSpec, ...] = None  # type: ignore[assignment]
    cross_traffic: tuple[CrossTrafficSpec, ...] = ()

    def __post_init__(self) -> None:
        # The canonical default is the paper's single-flow dumbbell on
        # whatever ``config`` was given.
        if self.topology is None:
            object.__setattr__(self, "topology", _dumbbell_topology(self.config, 1))
        if self.flows is None:
            object.__setattr__(self, "flows",
                               (FlowSpec(src="sender0", dst="receiver0"),))
        object.__setattr__(self, "flows", tuple(self.flows))
        object.__setattr__(self, "cross_traffic", tuple(self.cross_traffic))
        if not self.name:
            raise ExperimentError("scenario name must be non-empty")
        if not self.topology.nodes:
            raise ExperimentError("scenario topology declares no nodes")
        if not self.flows:
            raise ExperimentError("a scenario must declare at least one flow")
        hosts = set(self.topology.host_names)
        for flow in self.flows:
            for endpoint in (flow.src, flow.dst):
                if endpoint not in hosts:
                    raise ExperimentError(
                        f"flow endpoint {endpoint!r} is not a declared host "
                        f"(hosts: {sorted(hosts)})")
        # Effective ports: a flow without an explicit port gets
        # DATA_PORT_BASE + its index at compile time, so explicit ports
        # must not collide with those defaults either.
        effective_ports: dict[int, int] = {}
        for i, flow in enumerate(self.flows):
            port = flow.port if flow.port is not None else DATA_PORT_BASE + i
            if port in effective_ports:
                raise ExperimentError(
                    f"flow {i} port {port} collides with flow "
                    f"{effective_ports[port]}'s (flows without an explicit "
                    f"port default to {DATA_PORT_BASE} + index)")
            effective_ports[port] = i
        for xt in self.cross_traffic:
            for endpoint in (xt.src, xt.dst):
                if endpoint not in hosts:
                    raise ExperimentError(
                        f"cross-traffic endpoint {endpoint!r} is not a declared "
                        f"host (hosts: {sorted(hosts)})")

    # -- uniform overrides ----------------------------------------------
    @property
    def path_config(self) -> PathConfig:
        return self.config

    @property
    def backend(self) -> str:
        """Scenarios execute on the packet engine (canonical dumbbells may
        additionally run fluid through a ``RunSpec``)."""
        return "packet"

    def _no_override(self, what: str) -> "NoReturn":
        raise ExperimentError(
            f"a ScenarioSpec carries no {what}; wrap it in a RunSpec or "
            "MultiFlowSpec (or rebuild it through its factory) instead")

    def with_backend(self, backend: str) -> "ScenarioSpec":
        self._no_override("backend")

    def with_config(self, config: PathConfig) -> "ScenarioSpec":
        # The topology's link rates/queues were derived from the original
        # config; silently swapping the config would desynchronise them.
        self._no_override("overridable path config")

    def with_duration(self, duration: float) -> "ScenarioSpec":
        self._no_override("duration")

    def with_seed(self, seed: int) -> "ScenarioSpec":
        self._no_override("seed")

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict:
        # flow "ecn": false is omitted so pre-ECN documents — and their
        # cache keys, which address every stored result — are unchanged
        data = super().to_dict()
        for flow in data.get("flows") or ():
            if flow.get("ecn") is False:
                del flow["ecn"]
        return data


# ---------------------------------------------------------------------------
# factories — the scenario gallery
# ---------------------------------------------------------------------------

def _access_link(cfg: PathConfig, host: str, router: str, *, sender: bool,
                 name: str) -> LinkSpec:
    """A host↔router access link following the dumbbell's queue conventions.

    Sender side: the forward (host→router) queue is the host IFQ whose
    saturation produces send-stalls, the reverse queue carries ACKs.
    Receiver side: the forward (router→host) queue is a router egress
    buffer, the reverse queue is the receiver NIC queue.
    """
    if sender:
        return LinkSpec(
            a=host, b=router,
            rate_bps=cfg.sender_nic_rate_bps, delay_s=cfg.access_delay,
            queue_ab_packets=cfg.ifq_capacity_packets,
            queue_ba_packets=cfg.ack_path_buffer_packets,
            name=name,
        )
    return LinkSpec(
        a=router, b=host,
        rate_bps=cfg.sender_nic_rate_bps, delay_s=cfg.access_delay,
        queue_ab_packets=cfg.router_buffer_packets,
        queue_ba_packets=cfg.receiver_ifq_capacity_packets,
        name=name,
    )


def _dumbbell_topology(cfg: PathConfig, n_pairs: int, *,
                       bottleneck_loss: LossSpec | None = None,
                       reverse_rate_bps: float | None = None) -> TopologySpec:
    """The N-pair dumbbell graph, declared in the legacy builder's order."""
    nodes = [NodeSpec("r1", "router"), NodeSpec("r2", "router")]
    links = [LinkSpec(
        a="r1", b="r2",
        rate_bps=cfg.bottleneck_rate_bps, delay_s=cfg.bottleneck_delay,
        rate_ba_bps=reverse_rate_bps,
        queue_ab_packets=cfg.router_buffer_packets,
        queue_ba_packets=cfg.router_buffer_packets,
        loss_ab=bottleneck_loss,
        name="bottleneck",
    )]
    for i in range(n_pairs):
        nodes.append(NodeSpec(f"sender{i}"))
        nodes.append(NodeSpec(f"receiver{i}"))
        links.append(_access_link(cfg, f"sender{i}", "r1", sender=True,
                                  name=f"access{i}"))
        links.append(_access_link(cfg, f"receiver{i}", "r2", sender=False,
                                  name=f"egress{i}"))
    return TopologySpec(nodes=tuple(nodes), links=tuple(links))


def _cc_list(ccs: str | Sequence[str], n_flows: int) -> list[str]:
    if isinstance(ccs, str):
        return [ccs] * n_flows
    ccs = list(ccs)
    if len(ccs) != n_flows:
        raise ExperimentError(
            f"got {len(ccs)} algorithms for {n_flows} flows; give one name "
            "or exactly one per flow")
    return ccs


def dumbbell(config: PathConfig | None = None, n_flows: int = 1, *,
             ccs: str | Sequence[str] = "reno",
             start_times: Sequence[float] | None = None,
             name: str = "dumbbell") -> ScenarioSpec:
    """N flows, each on its own sender/receiver pair, sharing one bottleneck.

    ``dumbbell(cfg, 1)`` is the paper's ANL–LBNL testbed — the canonical
    scenario every spec defaults to.
    """
    if n_flows < 1:
        raise ExperimentError("n_flows must be >= 1")
    cfg = config if config is not None else PathConfig()
    algos = _cc_list(ccs, n_flows)
    starts = list(start_times) if start_times is not None else [0.0] * n_flows
    if len(starts) != n_flows:
        raise ExperimentError("start_times must give one value per flow")
    flows = tuple(
        FlowSpec(src=f"sender{i}", dst=f"receiver{i}", cc=algos[i],
                 start_time=starts[i])
        for i in range(n_flows))
    return ScenarioSpec(name=name, config=cfg,
                        topology=_dumbbell_topology(cfg, n_flows), flows=flows)


def shared_path(config: PathConfig | None = None, n_flows: int = 2, *,
                ccs: str | Sequence[str] = "reno",
                start_times: Sequence[float] | None = None) -> ScenarioSpec:
    """N flows on ONE sender/receiver pair: they share the sender's IFQ too.

    This is the contention the paper's introduction describes — several
    components of one host saturating the same soft interface queue.
    """
    if n_flows < 1:
        raise ExperimentError("n_flows must be >= 1")
    cfg = config if config is not None else PathConfig()
    algos = _cc_list(ccs, n_flows)
    starts = list(start_times) if start_times is not None else [0.0] * n_flows
    if len(starts) != n_flows:
        raise ExperimentError("start_times must give one value per flow")
    flows = tuple(
        FlowSpec(src="sender0", dst="receiver0", cc=algos[i],
                 start_time=starts[i])
        for i in range(n_flows))
    return ScenarioSpec(name="shared_path", config=cfg,
                        topology=_dumbbell_topology(cfg, 1), flows=flows)


def parking_lot(config: PathConfig | None = None, n_bottlenecks: int = 3, *,
                long_cc: str = "reno",
                cross_ccs: str | Sequence[str] = "reno") -> ScenarioSpec:
    """The classic multi-bottleneck parking lot.

    ``n_bottlenecks`` router-to-router links in a chain; one *long* flow
    (``src0`` → ``dst0``) crosses every bottleneck while per-hop *cross*
    flows (``src{i}`` → ``dst{i}``) each cross exactly one.  The total
    propagation delay of the long path matches ``config.rtt``.
    """
    if n_bottlenecks < 2:
        raise ExperimentError("a parking lot needs at least 2 bottlenecks")
    cfg = config if config is not None else PathConfig()
    crossers = _cc_list(cross_ccs, n_bottlenecks)
    hop_delay = cfg.bottleneck_delay / n_bottlenecks

    nodes = [NodeSpec(f"r{i}", "router") for i in range(n_bottlenecks + 1)]
    links = [
        LinkSpec(a=f"r{i}", b=f"r{i + 1}",
                 rate_bps=cfg.bottleneck_rate_bps, delay_s=hop_delay,
                 queue_ab_packets=cfg.router_buffer_packets,
                 queue_ba_packets=cfg.router_buffer_packets,
                 name=f"bottleneck{i}")
        for i in range(n_bottlenecks)
    ]
    # long flow's endpoints span the whole chain
    nodes += [NodeSpec("src0"), NodeSpec("dst0")]
    links.append(_access_link(cfg, "src0", "r0", sender=True, name="access0"))
    links.append(_access_link(cfg, "dst0", f"r{n_bottlenecks}", sender=False,
                              name="egress0"))
    flows = [FlowSpec(src="src0", dst="dst0", cc=long_cc)]
    # one cross flow per bottleneck, entering just before it and leaving
    # just after it
    for i in range(1, n_bottlenecks + 1):
        nodes += [NodeSpec(f"src{i}"), NodeSpec(f"dst{i}")]
        links.append(_access_link(cfg, f"src{i}", f"r{i - 1}", sender=True,
                                  name=f"access{i}"))
        links.append(_access_link(cfg, f"dst{i}", f"r{i}", sender=False,
                                  name=f"egress{i}"))
        flows.append(FlowSpec(src=f"src{i}", dst=f"dst{i}", cc=crossers[i - 1],
                              start_time=0.05 * i))
    return ScenarioSpec(name="parking_lot", config=cfg,
                        topology=TopologySpec(nodes=tuple(nodes),
                                              links=tuple(links)),
                        flows=tuple(flows))


def asymmetric_path(config: PathConfig | None = None, *,
                    reverse_rate_fraction: float = 0.1,
                    cc: str = "reno") -> ScenarioSpec:
    """A dumbbell whose reverse (ACK) bottleneck direction is slower.

    Models asymmetric access technology: the ACK stream shares a link with
    ``reverse_rate_fraction`` of the forward rate, so ACK compression and
    reverse-path queueing feed back into the sender's clocking.
    """
    if not (0.0 < reverse_rate_fraction <= 1.0):
        raise ExperimentError("reverse_rate_fraction must be in (0, 1]")
    cfg = config if config is not None else PathConfig()
    topo = _dumbbell_topology(
        cfg, 1, reverse_rate_bps=reverse_rate_fraction * cfg.bottleneck_rate_bps)
    return ScenarioSpec(name="asymmetric_path", config=cfg, topology=topo,
                        flows=(FlowSpec(src="sender0", dst="receiver0", cc=cc),))


def lossy_link(config: PathConfig | None = None, *, loss: float = 1e-3,
               model: str = "bernoulli", params: dict | None = None,
               n_flows: int = 1,
               ccs: str | Sequence[str] = "reno") -> ScenarioSpec:
    """A dumbbell whose bottleneck corrupts packets (non-congestion loss).

    ``model="bernoulli"`` drops each forward packet with probability
    ``loss``; pass ``model``/``params`` explicitly for bursty
    (``gilbert_elliott``) or scripted (``deterministic``) loss.
    """
    cfg = config if config is not None else PathConfig()
    if params is None:
        if model != "bernoulli":
            raise ExperimentError(
                f"loss model {model!r} needs explicit params=")
        params = {"p": loss}
    loss_spec = LossSpec(model=model, params=params)
    algos = _cc_list(ccs, n_flows)
    topo = _dumbbell_topology(cfg, n_flows, bottleneck_loss=loss_spec)
    flows = tuple(FlowSpec(src=f"sender{i}", dst=f"receiver{i}", cc=algos[i])
                  for i in range(n_flows))
    return ScenarioSpec(name="lossy_link", config=cfg, topology=topo,
                        flows=flows)


#: Receive-window cap (in bandwidth-delay products) for AQM scenarios.
_AQM_RWND_FACTOR = 1.25


def _aqm_config(config: PathConfig | None) -> PathConfig:
    """Config for the AQM gallery: congestion must hit the *bottleneck*.

    The paper's testbed has NIC rate == bottleneck rate, so its congestion
    forms at the sender IFQ and the router queue barely fills — an AQM
    there would have nothing to do.  Unless the caller pinned an access
    rate, raise it to 4x the bottleneck so the router queue is the
    contended resource.

    The receive window is also capped at 1.25x the BDP (the default is
    4x): the modelled 2.4-era NewReno has no SACK and repairs one loss per
    round trip, so an uncapped slow start that overshoots the router
    buffer by a full window loses hundreds of segments and spends tens of
    seconds in a single recovery episode — every cell would measure that
    crawl instead of the queue discipline under test.
    """
    cfg = config if config is not None else PathConfig()
    if cfg.access_rate_bps is None:
        cfg = replace(cfg, access_rate_bps=4.0 * cfg.bottleneck_rate_bps)
    if cfg.rwnd_factor > _AQM_RWND_FACTOR:
        cfg = replace(cfg, rwnd_factor=_AQM_RWND_FACTOR)
    return cfg


def _with_bottleneck_queue(topo: TopologySpec, queue: QueueSpec) -> TopologySpec:
    """The same topology with both bottleneck directions using ``queue``."""
    links = tuple(
        replace(link, queue_ab_packets=queue, queue_ba_packets=queue)
        if link.name == "bottleneck" else link
        for link in topo.links)
    return replace(topo, links=links)


def aqm_dumbbell(config: PathConfig | None = None, n_flows: int = 1, *,
                 discipline: str = "red",
                 queue_params: dict | None = None,
                 ecn: bool = False,
                 ccs: str | Sequence[str] = "reno",
                 start_times: Sequence[float] | None = None,
                 name: str | None = None) -> ScenarioSpec:
    """A dumbbell whose bottleneck runs an AQM discipline.

    The general factory behind :func:`l4s_dumbbell` and
    :func:`red_bottleneck` (and the E13 gallery sweep): both bottleneck
    directions get a :class:`QueueSpec` with the declared ``discipline``,
    and ``ecn=True`` additionally makes the queue CE-mark and every flow
    negotiate ECN.  ``discipline="droptail"`` gives the plain baseline.
    """
    cfg = _aqm_config(config)
    base = dumbbell(cfg, n_flows, ccs=ccs, start_times=start_times)
    if discipline == "droptail" and not ecn:
        topo, flows = base.topology, base.flows
    else:
        queue = QueueSpec(discipline=discipline,
                          capacity_packets=cfg.router_buffer_packets,
                          ecn=ecn, params=dict(queue_params or {}))
        topo = _with_bottleneck_queue(base.topology, queue)
        flows = tuple(replace(f, ecn=ecn) for f in base.flows)
    return ScenarioSpec(name=name or f"aqm_{discipline}", config=cfg,
                        topology=topo, flows=flows)


def l4s_dumbbell(config: PathConfig | None = None, n_flows: int = 1, *,
                 ccs: str | Sequence[str] = "prague",
                 start_times: Sequence[float] | None = None) -> ScenarioSpec:
    """An L4S dumbbell: DualPI2 marking bottleneck, ECN Prague flows.

    The headline AQM scenario — scalable marking keeps the standing queue
    near the DualPI2 target, so Prague sees a steady CE-mark signal and
    (near-)zero bottleneck drops where a drop-tail baseline drops bursts.
    """
    return aqm_dumbbell(config, n_flows, discipline="dualpi2", ecn=True,
                        ccs=ccs, start_times=start_times,
                        name="l4s_dumbbell")


def red_bottleneck(config: PathConfig | None = None, n_flows: int = 1, *,
                   ecn: bool = False,
                   ccs: str | Sequence[str] = "reno",
                   start_times: Sequence[float] | None = None) -> ScenarioSpec:
    """A dumbbell with a classic RED bottleneck (optionally ECN-marking)."""
    return aqm_dumbbell(config, n_flows, discipline="red", ecn=ecn,
                        ccs=ccs, start_times=start_times,
                        name="red_bottleneck")


def from_bulk_flows(specs: Sequence, config: PathConfig | None = None,
                    shared_paths: bool = False) -> ScenarioSpec:
    """A dumbbell scenario from a list of bulk flows.

    ``specs`` are :class:`~repro.workloads.bulk.BulkFlowSpec` objects;
    ``shared_paths=True`` maps every flow onto one sender/receiver pair
    (sharing the sending host's IFQ), otherwise flow ``i`` gets pair ``i``
    (or its explicit ``path_index``).  Each flow keeps its ``cc_kwargs``.
    This is how ``MultiFlowSpec(flows=...)`` runs on every engine.
    """
    if not specs:
        raise ExperimentError("at least one flow spec is required")
    cfg = config if config is not None else PathConfig()
    n_pairs = 1 if shared_paths else len(specs)
    flows = []
    for i, spec in enumerate(specs):
        if shared_paths:
            pair = 0
        else:
            pair = spec.path_index if spec.path_index is not None else i
        if not (0 <= pair < n_pairs):
            raise ExperimentError(
                f"flow {i} path_index {pair} out of range (0..{n_pairs - 1})")
        flows.append(FlowSpec(src=f"sender{pair}", dst=f"receiver{pair}",
                              cc=spec.cc, start_time=spec.start_time,
                              total_bytes=spec.total_bytes,
                              cc_kwargs=dict(spec.cc_kwargs)))
    topo = _dumbbell_topology(cfg, n_pairs)
    return ScenarioSpec(name="shared_path" if shared_paths else "dumbbell",
                        config=cfg, topology=topo, flows=tuple(flows))


#: The scenario gallery: name → zero-configuration factory (all accept
#: ``config=`` plus shape keywords; see each factory's docstring).
SCENARIO_FACTORIES: dict[str, Callable[..., ScenarioSpec]] = {
    "dumbbell": dumbbell,
    "shared_path": shared_path,
    "parking_lot": parking_lot,
    "asymmetric_path": asymmetric_path,
    "lossy_link": lossy_link,
    "aqm_dumbbell": aqm_dumbbell,
    "l4s_dumbbell": l4s_dumbbell,
    "red_bottleneck": red_bottleneck,
}


def available_scenarios() -> list[str]:
    """Names in the scenario gallery, sorted."""
    return sorted(SCENARIO_FACTORIES)


def scenario_factory(name: str) -> Callable[..., ScenarioSpec]:
    """Look up a gallery factory by name."""
    try:
        return SCENARIO_FACTORIES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown scenario {name!r}; known scenarios: "
            f"{available_scenarios()}") from None


# ---------------------------------------------------------------------------
# the canonical dumbbell — the shape the fluid engines model
# ---------------------------------------------------------------------------

class DumbbellShape(NamedTuple):
    """A scenario read as the canonical N-pair dumbbell (see :func:`dumbbell_shape`)."""

    #: ``sender<k>`` hosts the topology declares
    n_pairs: int
    #: each flow's pair ``k``; ``None`` unless the scenario is canonical
    pairs: tuple[int, ...] | None
    #: why the scenario is not canonical, one named feature each
    features: list[str]


def _is_pair_host(name: str, prefix: str) -> bool:
    """Whether ``name`` is ``<prefix>k`` for a pair index ``k``."""
    return name.startswith(prefix) and name[len(prefix):].isdigit()


def dumbbell_shape(spec: ScenarioSpec) -> DumbbellShape:
    """Read ``spec`` as the canonical N-pair dumbbell, N from its topology.

    N counts the topology's ``sender<k>`` hosts.  The scenario is canonical
    when it has no cross traffic, every flow runs ``sender<k>`` →
    ``receiver<k>``, and the topology equals ``_dumbbell_topology(config,
    N)`` — what :func:`dumbbell`, :func:`shared_path` and
    :func:`from_bulk_flows` generate, whichever pairs the flows use.  A
    canonical scenario gets each flow's pair; any other gets its features
    outside that shape, named one by one.  The generic "differs from the
    canonical N-pair dumbbell" (naming the first link that differs) is used
    only when no named feature explains the rejection, so a hand-written
    deviation is rejected too rather than run through the symmetric no-loss
    arithmetic.
    """
    topo = spec.topology
    n_pairs = sum(_is_pair_host(host, "sender") for host in topo.host_names)
    features: list[str] = []
    if spec.cross_traffic:
        features.append("cross traffic")
    n_routers = len(topo.router_names)
    if n_routers != 2:
        features.append(
            f"{n_routers} routers (only the 2-router dumbbell is modelled)")
    if any(link.loss_ab or link.loss_ba for link in topo.links):
        features.append("per-link loss models")
    disciplines = sorted({
        queue.discipline
        for link in topo.links
        for queue in (link.queue_ab_packets, link.queue_ba_packets)
        if isinstance(queue, QueueSpec)})
    if disciplines:
        features.append(
            "AQM queue disciplines (declarative QueueSpec queues: "
            + ", ".join(disciplines) + ")")
    if any(link.rate_ba_bps is not None for link in topo.links):
        features.append("asymmetric link rates")
    if topo.routing_weight is not None:
        features.append("delay-weighted routing")
    pairs = []
    for i, flow in enumerate(spec.flows):
        k = flow.src[len("sender"):]
        if not _is_pair_host(flow.src, "sender") or flow.dst != f"receiver{k}":
            features.append(
                f"flow {i} ({flow.src}->{flow.dst}) off the canonical "
                "sender<k>->receiver<k> pairs")
        else:
            pairs.append(int(k))
    if not features:
        canonical = _dumbbell_topology(spec.config, n_pairs)
        if topo != canonical:
            differs = "its nodes"
            for have, want in itertools.zip_longest(topo.links, canonical.links):
                if have != want:
                    link = have or want
                    differs = f"link {link.name or f'{link.a}--{link.b}'!r}"
                    break
            features.append(
                f"a topology that differs from the canonical {n_pairs}-pair "
                f"dumbbell for its config (first difference: {differs})")
    return DumbbellShape(n_pairs, None if features else tuple(pairs), features)


def _fluid_dumbbell_features(spec: ScenarioSpec) -> list[str]:
    """The canonical-dumbbell features plus ECN, which no fluid engine models."""
    features = dumbbell_shape(spec).features
    if any(flow.ecn for flow in spec.flows):
        features.append("ECN-enabled flows")
    return features


def fluid_unsupported_features(spec: ScenarioSpec) -> list[str]:
    """Which declared features the *single-flow* fluid model cannot represent.

    The single-flow fluid backend (``RunSpec(backend="fluid")``) models one
    flow on the canonical dumbbell (sender IFQ → one bottleneck → receiver)
    parameterised by the scenario's ``config``; the declared flow's
    ``start_time`` (delayed app launch) and ``duration`` stop are honoured,
    and its algorithm is the ``RunSpec``'s own ``cc``.  Returns an empty
    list when the scenario is fluid-expressible.  Multi-flow dumbbells are
    checked by :func:`fluid_multiflow_unsupported_features` instead.
    """
    features = _fluid_dumbbell_features(spec)
    if len(spec.flows) != 1:
        features.insert(0, f"{len(spec.flows)} flows (the single-flow model; "
                           "run it through MultiFlowSpec(backend='fluid'))")
    return features


def fluid_multiflow_unsupported_features(spec: ScenarioSpec) -> list[str]:
    """Which declared features the *N-flow* coupled fluid model cannot run.

    The multi-flow model covers every flow mix on the canonical N-pair
    dumbbell — including :func:`shared_path` (all flows on one pair, sharing
    the sender IFQ), idle pairs, staggered ``start_time`` values, per-flow
    ``duration`` stops and finite ``total_bytes`` — coupled through a
    proportional ACK-clock share of the bottleneck.  Everything else
    (multi-bottleneck graphs, loss models, asymmetric rates, cross traffic,
    non-canonical link parameters, algorithms without a fluid growth rule)
    is named here.
    """
    features = _fluid_dumbbell_features(spec)
    algorithms = _fluid_algorithms()
    for cc in sorted({flow.cc for flow in spec.flows} - set(algorithms)):
        features.append(
            f"algorithm {cc!r}, which has no growth rule (fluid growth "
            f"rules: {list(algorithms)})")
    return features
