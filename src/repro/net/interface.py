"""Network interface: queue + serialising transmitter + propagation link.

This is the component at the heart of the paper.  A
:class:`NetworkInterface` models what Linux calls the *device queue*
(``txqueuelen`` packets deep, drained at line rate by the NIC) plus the
point-to-point link behind it (serialisation at ``rate_bps``, propagation
``delay_s``, optional loss model).

The sending host's interface queue (IFQ) is the "soft component" whose
saturation generates **send-stall** signals: when the TCP layer hands the
interface a packet and :meth:`send` returns ``False``, the stack records a
local-congestion event exactly as the 2.4.x Linux kernels did.

Interfaces also track utilisation (busy-time integral) and expose the
occupancy figures the restricted-slow-start controller consumes
(:attr:`qlen`, :attr:`capacity_packets`, :meth:`occupancy`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from ..errors import ConfigurationError, TopologyError
from ..sim.engine import Simulator
from .lossmodels import LossModel, NoLoss
from .packet import Packet
from .queues import PacketQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import Node

__all__ = ["NetworkInterface", "InterfaceStats"]


class InterfaceStats:
    """Counters maintained by a :class:`NetworkInterface`."""

    __slots__ = (
        "packets_sent",
        "bytes_sent",
        "packets_delivered",
        "bytes_delivered",
        "packets_lost",
        "enqueue_failures",
        "busy_time",
    )

    def __init__(self) -> None:
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_delivered = 0
        self.bytes_delivered = 0
        self.packets_lost = 0
        self.enqueue_failures = 0
        self.busy_time = 0.0

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class NetworkInterface:
    """A unidirectional output interface attached to a node.

    Parameters
    ----------
    sim:
        The simulator the interface schedules its transmissions on.
    node:
        Owning node; the interface registers itself with it.
    queue:
        Output queue (the IFQ for host NICs, the port buffer for routers).
    rate_bps:
        Line rate in bits per second.
    delay_s:
        One-way propagation delay to the peer node.
    name:
        Human-readable name used in traces and reports.
    loss_model:
        Optional :class:`~repro.net.lossmodels.LossModel` applied after
        serialisation (models corruption on the wire, not queue drops).
    """

    def __init__(
        self,
        sim: Simulator,
        node: "Node",
        queue: PacketQueue,
        rate_bps: float,
        delay_s: float,
        name: str = "",
        loss_model: LossModel | None = None,
    ) -> None:
        if rate_bps <= 0:
            raise ConfigurationError(f"interface rate must be positive, got {rate_bps!r}")
        if delay_s < 0:
            raise ConfigurationError(f"propagation delay must be >= 0, got {delay_s!r}")
        self.sim = sim
        self.node = node
        self.queue = queue
        self.rate_bps = float(rate_bps)
        self.delay_s = float(delay_s)
        self.name = name or f"{node.name}.if{len(node.interfaces)}"
        self.loss_model = loss_model if loss_model is not None else NoLoss()
        self.peer_node: Optional["Node"] = None
        self.peer_interface: Optional["NetworkInterface"] = None
        self.stats = InterfaceStats()
        self._busy = False
        self._busy_since = 0.0
        #: Observers called as ``fn(interface, packet)`` when an enqueue fails.
        self.stall_listeners: list[Callable[["NetworkInterface", Packet], None]] = []
        if sim.trace.enabled and queue.trace is None:
            # Bind the run's recorder so the queue emits ``queue``/``aqm``
            # records; left at None when tracing is off so the queue hot
            # path stays a single ``is not None`` check.
            queue.trace = sim.trace
        node.add_interface(self)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect(self, peer_node: "Node", peer_interface: "NetworkInterface | None" = None) -> None:
        """Point this interface's link at ``peer_node``.

        ``peer_interface`` is informational (used for reverse lookups when
        building bidirectional links); packets are delivered to the peer
        *node* via ``Node.receive``.
        """
        if self.peer_node is not None:
            raise TopologyError(f"interface {self.name!r} is already connected")
        self.peer_node = peer_node
        self.peer_interface = peer_interface

    # ------------------------------------------------------------------
    # loss model
    # ------------------------------------------------------------------
    @property
    def loss_model(self) -> LossModel:
        """Corruption model applied after serialisation.

        Assignable after wiring (scenario builders install a bottleneck
        loss model that way).  Assignment resolves everything the per-packet
        check needs: a :class:`NoLoss` link skips the check entirely, a
        lossy one keeps its ``loss:<name>`` random stream.
        """
        return self._loss_model

    @loss_model.setter
    def loss_model(self, model: LossModel) -> None:
        self._loss_model = model
        self._should_drop = None if type(model) is NoLoss else model.should_drop
        self._loss_rng = (None if self._should_drop is None
                          else self.sim.rng(f"loss:{self.name}"))

    # ------------------------------------------------------------------
    # occupancy / capacity accessors (consumed by the PID controller)
    # ------------------------------------------------------------------
    @property
    def qlen(self) -> int:
        """Packets currently waiting in the output queue."""
        return self.queue.qlen

    @property
    def capacity_packets(self) -> int | None:
        """Queue capacity in packets (``None`` when unbounded)."""
        return self.queue.capacity_packets

    def occupancy(self) -> float:
        """Queue occupancy as a fraction of its packet capacity."""
        return self.queue.occupancy_fraction()

    @property
    def is_busy(self) -> bool:
        """True while a packet is being serialised onto the wire."""
        return self._busy

    def utilization(self, now: float | None = None) -> float:
        """Fraction of time the transmitter has been busy since t=0."""
        now = self.sim.now if now is None else now
        busy = self.stats.busy_time
        if self._busy:
            busy += now - self._busy_since
        return busy / now if now > 0 else 0.0

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Hand a packet to the interface.

        Returns ``True`` if the packet was queued (or went straight to the
        transmitter), ``False`` if the queue rejected it.  A ``False`` return
        on a host NIC is precisely a *send-stall* in the paper's terminology;
        the TCP layer reacts according to its local-congestion policy.
        """
        if self.peer_node is None:
            raise TopologyError(f"interface {self.name!r} is not connected")
        queue = self.queue
        if not queue.enqueue(packet):
            self.stats.enqueue_failures += 1
            for listener in self.stall_listeners:
                listener(self, packet)
            return False
        if not self._busy:
            # start transmitting (an AQM may still drop the head: no packet)
            head = queue.dequeue()
            if head is not None:
                sim = self.sim
                self._busy = True
                self._busy_since = sim.now
                sim.post(head.size_bytes * 8.0 / self.rate_bps,
                         self._transmission_complete, head)
        return True

    # ------------------------------------------------------------------
    # internal transmitter state machine
    # ------------------------------------------------------------------
    def _transmission_complete(self, packet: Packet) -> None:
        sim = self.sim
        now = sim.now
        stats = self.stats
        stats.busy_time += now - self._busy_since
        self._busy = False
        stats.packets_sent += 1
        stats.bytes_sent += packet.size_bytes
        should_drop = self._should_drop
        if should_drop is not None and should_drop(packet, self._loss_rng):
            stats.packets_lost += 1
            sim.trace.record("link", "loss", time=now, iface=self.name, uid=packet.uid)
        else:
            packet.hops += 1
            sim.post(self.delay_s, self._deliver, packet)
        queue = self.queue
        if not queue.is_empty:
            # start the next transmission, as in send()
            head = queue.dequeue()
            if head is not None:
                self._busy = True
                self._busy_since = now
                sim.post(head.size_bytes * 8.0 / self.rate_bps,
                         self._transmission_complete, head)

    def _deliver(self, packet: Packet) -> None:
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += packet.size_bytes
        self.peer_node.receive(packet, self.peer_interface)  # type: ignore[union-attr,arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        peer = self.peer_node.name if self.peer_node else "unconnected"
        return f"<NetworkInterface {self.name} -> {peer} {self.rate_bps/1e6:.1f}Mbps>"
