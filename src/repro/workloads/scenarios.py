"""Canonical experiment scenarios.

The paper evaluates on a single bulk TCP flow over a 100 Mbit/s, 60 ms-RTT
path between Argonne and Lawrence Berkeley with a stock Linux sender
(``txqueuelen`` = 100 packets).  :func:`anl_lbnl_path` builds the simulated
equivalent; :func:`build_dumbbell` generalises it to N flows sharing one
bottleneck for the fairness and cross-traffic experiments.

Topology (per flow ``i``)::

    sender_i --(access link, IFQ)-- R1 ==(bottleneck)== R2 --(access)-- receiver_i

* the **sender access link** runs at the host NIC rate and its output queue
  is the IFQ whose saturation produces send-stalls;
* the **bottleneck link** carries the configured propagation delay so the
  two-way propagation RTT matches ``PathConfig.rtt``;
* ACK-path queues are generously sized so the reverse direction never
  interferes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from ..errors import ConfigurationError
from ..host.apps import BulkSenderApp, SinkApp
from ..host.host import Host
from ..net.interface import NetworkInterface
from ..net.lossmodels import LossModel
from ..net.router import Router
from ..net.topology import Topology
from ..sim.engine import Simulator
from ..tcp.cc.base import CCContext, CongestionControl
from ..tcp.cc.registry import cc_factory as registry_cc_factory
from ..tcp.options import TCPOptions
from ..units import (
    DEFAULT_HEADER_BYTES,
    DEFAULT_MSS,
    Mbps,
    bandwidth_delay_product_bytes,
)

__all__ = [
    "PathConfig",
    "Scenario",
    "build_dumbbell",
    "anl_lbnl_path",
    "DATA_PORT_BASE",
    "CROSS_TRAFFIC_PORT_BASE",
]

CCFactory = Callable[[CCContext], CongestionControl]

#: First TCP port used for bulk data flows (flow ``i`` uses ``DATA_PORT_BASE + i``).
DATA_PORT_BASE = 5001

#: First UDP port used for cross-traffic sinks.
CROSS_TRAFFIC_PORT_BASE = 9001


@dataclass(frozen=True)
class PathConfig:
    """Parameters of the (dumbbell) evaluation path.

    The defaults reproduce the paper's testbed: a 100 Mbit/s path with a
    60 ms round-trip time and a 100-packet interface queue at the sender.
    """

    bottleneck_rate_bps: float = Mbps(100)
    rtt: float = 0.060
    access_rate_bps: float | None = None
    access_delay: float = 0.0001
    ifq_capacity_packets: int = 100
    receiver_ifq_capacity_packets: int = 2000
    router_buffer_packets: int = 600
    ack_path_buffer_packets: int = 4000
    mss: int = DEFAULT_MSS
    header_bytes: int = DEFAULT_HEADER_BYTES
    rwnd_factor: float = 3.0

    def __post_init__(self) -> None:
        if self.bottleneck_rate_bps <= 0:
            raise ConfigurationError("bottleneck rate must be positive")
        if self.rtt <= 4 * self.access_delay:
            raise ConfigurationError("rtt must exceed the total access propagation delay")
        if self.ifq_capacity_packets <= 0:
            raise ConfigurationError("ifq_capacity_packets must be positive")
        if self.router_buffer_packets <= 0:
            raise ConfigurationError("router_buffer_packets must be positive")
        if self.rwnd_factor <= 0:
            raise ConfigurationError("rwnd_factor must be positive")

    # ------------------------------------------------------------------
    @property
    def sender_nic_rate_bps(self) -> float:
        """Sender NIC line rate (defaults to the bottleneck rate, as in the paper)."""
        return self.access_rate_bps if self.access_rate_bps is not None else self.bottleneck_rate_bps

    @property
    def segment_bytes(self) -> int:
        """Wire size of a full data segment."""
        return self.mss + self.header_bytes

    @property
    def one_way_delay(self) -> float:
        """One-way propagation delay of the whole path."""
        return self.rtt / 2.0

    @property
    def bottleneck_delay(self) -> float:
        """Propagation delay assigned to the bottleneck link."""
        return self.one_way_delay - 2.0 * self.access_delay

    @property
    def bdp_bytes(self) -> float:
        """Bandwidth-delay product of the path in bytes."""
        return bandwidth_delay_product_bytes(self.bottleneck_rate_bps, self.rtt)

    @property
    def bdp_packets(self) -> float:
        """Bandwidth-delay product in full-size segments."""
        return self.bdp_bytes / self.segment_bytes

    @property
    def rwnd_bytes(self) -> int:
        """Receiver window advertised by the sinks (``rwnd_factor`` × BDP)."""
        return max(int(self.rwnd_factor * self.bdp_bytes), 10 * self.mss)

    # ------------------------------------------------------------------
    def tcp_options(self, **overrides) -> TCPOptions:
        """Build :class:`TCPOptions` matched to this path."""
        base = dict(
            mss=self.mss,
            header_bytes=self.header_bytes,
            rwnd_bytes=self.rwnd_bytes,
        )
        base.update(overrides)
        return TCPOptions(**base)

    def replace(self, **changes) -> "PathConfig":
        """Return a copy with ``changes`` applied."""
        return replace(self, **changes)


@dataclass
class Scenario:
    """A built simulation scenario: simulator, topology and per-flow hosts."""

    sim: Simulator
    config: PathConfig
    topology: Topology
    senders: list[Host]
    receivers: list[Host]
    routers: list[Router]
    flows: list[tuple[BulkSenderApp, SinkApp]] = field(default_factory=list)
    #: Cross-traffic sources attached by the scenario compiler.
    cross_traffic: list = field(default_factory=list)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def n_paths(self) -> int:
        """Number of sender/receiver pairs."""
        return len(self.senders)

    def sender(self, index: int = 0) -> Host:
        return self.senders[index]

    def receiver(self, index: int = 0) -> Host:
        return self.receivers[index]

    def sender_ifq(self, index: int = 0) -> NetworkInterface:
        """The IFQ-bearing NIC of sender ``index``."""
        return self.senders[index].default_interface

    def bottleneck_interface(self) -> NetworkInterface:
        """The forward-direction bottleneck interface (R1 → R2)."""
        r1, r2 = self.routers[0], self.routers[1]
        return r1.interface_to(r2.address)

    # ------------------------------------------------------------------
    # workload attachment
    # ------------------------------------------------------------------
    def add_bulk_flow_between(
        self,
        src: Host | str,
        dst: Host | str,
        cc: str | CCFactory = "reno",
        total_bytes: int | None = None,
        start_time: float = 0.0,
        stop_time: float | None = None,
        options: TCPOptions | None = None,
        cc_kwargs: dict | None = None,
        port: int | None = None,
        name: str = "",
    ) -> tuple[BulkSenderApp, SinkApp]:
        """Attach a bulk TCP transfer between two named (or given) hosts.

        The scenario compiler and the packet engine place every flow
        through here: any two hosts of the topology can carry a flow, not
        just a dumbbell sender/receiver pair.  ``cc`` is either a registry
        name ("reno", "restricted", ...) or a factory callable;
        ``cc_kwargs`` are forwarded to registry factories.  ``stop_time``
        stops the sender offering new data at that simulation time (see
        :meth:`BulkSenderApp.stop`).  ``port`` defaults to
        ``DATA_PORT_BASE`` + the number of flows already attached.
        """
        src = self.topology.node(src) if isinstance(src, str) else src
        dst = self.topology.node(dst) if isinstance(dst, str) else dst
        for endpoint in (src, dst):
            if isinstance(endpoint, Router):
                raise ConfigurationError(
                    f"flow endpoint {endpoint.name!r} is a router; flows "
                    "terminate on hosts")
        factory: CCFactory
        if isinstance(cc, str):
            factory = registry_cc_factory(cc, **(cc_kwargs or {}))
        else:
            factory = cc
        opts = options if options is not None else self.config.tcp_options()
        # one port per flow (several flows may share a sender/receiver pair)
        if port is None:
            port = DATA_PORT_BASE + len(self.flows)
        sink = SinkApp(dst, port, options=opts)
        app = BulkSenderApp(
            self.sim,
            src,
            remote_addr=dst.address,
            remote_port=port,
            total_bytes=total_bytes,
            start_time=start_time,
            stop_time=stop_time,
            options=opts,
            cc_factory=factory,
            name=name or f"flow{src.name}->{dst.name}",
        )
        self.flows.append((app, sink))
        return app, sink

    def run(self, duration: float) -> float:
        """Run the scenario's simulator for ``duration`` seconds."""
        return self.sim.run(until=duration)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_dumbbell(
    sim: Simulator,
    config: PathConfig | None = None,
    n_flows: int = 1,
    bottleneck_loss: LossModel | None = None,
) -> Scenario:
    """Build an N-flow dumbbell around a single bottleneck link.

    A thin wrapper over the declarative pipeline: the shape comes from the
    :func:`repro.spec.scenario.dumbbell` spec factory and the live objects
    from :func:`repro.workloads.compile.compile_scenario`.  No flows are
    attached — callers add their own workload, as they always did.
    """
    if n_flows < 1:
        raise ConfigurationError("n_flows must be >= 1")
    cfg = config if config is not None else PathConfig()
    # Local imports: repro.spec imports PathConfig from this module, so the
    # declarative layer can only be pulled in lazily here.
    from ..spec.scenario import dumbbell
    from .compile import compile_scenario

    scenario = compile_scenario(sim, dumbbell(cfg, n_flows), attach_flows=False)
    if bottleneck_loss is not None:
        scenario.bottleneck_interface().loss_model = bottleneck_loss
    return scenario


def anl_lbnl_path(sim: Simulator, **overrides) -> Scenario:
    """The paper's testbed: one 100 Mbit/s, 60 ms-RTT path, 100-packet IFQ.

    ``overrides`` are applied to :class:`PathConfig` (e.g. ``rtt=0.02``).
    """
    cfg = PathConfig(**overrides) if overrides else PathConfig()
    return build_dumbbell(sim, cfg, n_flows=1)
