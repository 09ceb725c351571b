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

Event model: one event per packet-hop.  The transmitter is a ``free_at``
time, the end of the serialisation on the wire.  When a packet starts
serialising at ``now`` its delivery to the peer is scheduled at once, at
``(now + size·8/rate) + delay_s``.  A completion event, at ``free_at``, is
scheduled only while packets wait in the queue behind the one on the wire:
it starts the next transmission.  A packet that finds the transmitter idle
passes through the queue (:meth:`~repro.net.queues.PacketQueue.pass_through`)
and, the queue being empty, starts at once.  The packet on the wire is
never in :attr:`qlen`.  The loss draw is taken when serialisation starts,
in per-interface FIFO order; the counters in :class:`InterfaceStats` count
a packet once its serialisation has completed (the interface settles them
lazily).
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
        Optional :class:`~repro.net.lossmodels.LossModel` applied to each
        serialised packet (models corruption on the wire, not queue drops).
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
        self._stats = InterfaceStats()
        #: End of the serialisation on the wire (the transmitter is idle
        #: from then on unless a completion event is armed).
        self._free_at = 0.0
        #: The last packet put on the wire, until its serialisation is
        #: counted in ``_stats``; its start time and loss verdict.
        self._on_wire: Packet | None = None
        self._wire_start = 0.0
        self._wire_lost = False
        self._wire_seq = 0
        #: True while a completion event is scheduled at ``_free_at``
        #: (packets wait in the queue behind the one on the wire).
        self._completion_armed = False
        self._clock = sim.clock
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
    def stats(self) -> InterfaceStats:
        """Counters, with every serialisation completed by now counted."""
        if self._on_wire is not None and self.sim.now >= self._free_at:
            self._settle()
        return self._stats

    @property
    def is_busy(self) -> bool:
        """True while a packet is being serialised onto the wire."""
        return self._on_wire is not None and self.sim.now < self._free_at

    def utilization(self, now: float | None = None) -> float:
        """Fraction of time the transmitter has been busy since t=0."""
        busy = self.stats.busy_time
        now = self.sim.now if now is None else now
        if self.is_busy:
            busy += now - self._wire_start
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
        now = self._clock()
        if self._completion_armed or now < self._free_at:
            # the transmitter is busy: the packet waits behind it
            if not queue.enqueue(packet):
                return self._reject(packet)
            if not self._completion_armed:
                self._completion_armed = True
                self.sim.post_at(self._free_at, self._complete, seq=self._wire_seq)
            return True
        head = queue.pass_through(packet)
        if head is False:
            return self._reject(packet)
        if head is not None:
            # (an AQM may still drop the head at dequeue: no packet)
            self._transmit(head, now)
        return True

    def _reject(self, packet: Packet) -> bool:
        self._stats.enqueue_failures += 1
        for listener in self.stall_listeners:
            listener(self, packet)
        return False

    # ------------------------------------------------------------------
    # internal transmitter
    # ------------------------------------------------------------------
    def _transmit(self, packet: Packet, now: float) -> None:
        """Put ``packet`` on the wire at ``now`` and schedule its delivery."""
        wire = self._on_wire
        if wire is not None:
            # _settle, inlined: the previous serialisation ended by now
            stats = self._stats
            stats.busy_time += self._free_at - self._wire_start
            stats.packets_sent += 1
            stats.bytes_sent += wire.size_bytes
            if self._wire_lost:
                stats.packets_lost += 1
        sim = self.sim
        free_at = now + packet.size_bytes * 8.0 / self.rate_bps
        self._free_at = free_at
        self._on_wire = packet
        self._wire_start = now
        # should a packet queue behind this one, its completion event runs
        # among same-time events as if scheduled now, at the start
        self._wire_seq = sim.reserve_seq()
        should_drop = self._should_drop
        if should_drop is not None and should_drop(packet, self._loss_rng):
            self._wire_lost = True
            # no delivery; an event at the end of serialisation still marks
            # the loss, so the loss record and the clock reach that time
            sim.post_at(free_at, self._lost, packet.uid)
        else:
            self._wire_lost = False
            packet.hops += 1
            sim.post_at(free_at + self.delay_s, self._deliver, packet)

    def _settle(self) -> None:
        """Count the serialisation of the packet on the wire as completed.

        :meth:`_transmit` inlines the same accounting; the two must change
        together.
        """
        packet = self._on_wire
        assert packet is not None
        self._on_wire = None
        stats = self._stats
        stats.busy_time += self._free_at - self._wire_start
        stats.packets_sent += 1
        stats.bytes_sent += packet.size_bytes
        if self._wire_lost:
            stats.packets_lost += 1

    def _complete(self) -> None:
        """Completion event: the wire is free and packets wait; start the next."""
        queue = self.queue
        head = queue.dequeue() if not queue.is_empty else None
        if head is not None:
            # this event runs at _free_at, the end of the last serialisation
            self._transmit(head, self._free_at)
            if not queue.is_empty:
                self.sim.post_at(self._free_at, self._complete, seq=self._wire_seq)
                return
        self._completion_armed = False

    def _lost(self, uid: int) -> None:
        self.sim.trace.record("link", "loss", time=self.sim.now, iface=self.name, uid=uid)

    def _deliver(self, packet: Packet) -> None:
        stats = self._stats
        stats.packets_delivered += 1
        stats.bytes_delivered += packet.size_bytes
        self.peer_node.receive(packet, self.peer_interface)  # type: ignore[union-attr,arg-type]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        peer = self.peer_node.name if self.peer_node else "unconnected"
        return f"<NetworkInterface {self.name} -> {peer} {self.rate_bps/1e6:.1f}Mbps>"
