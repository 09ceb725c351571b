"""End-host model.

A :class:`Host` is a :class:`~repro.net.node.Node` with

* one (or more) network interfaces — the first one is the *default* NIC whose
  output queue is the IFQ (``txqueuelen``) the paper's controller senses;
* a per-host :class:`~repro.tcp.stack.TCPStack`;
* a tiny UDP demultiplexer for cross-traffic sinks.

``Host.send_packet`` is the choke point every transport-layer transmission
goes through: it forwards the packet to the default interface and returns
whether the IFQ accepted it, which is exactly the success/failure signal the
Linux kernel gets back from ``dev_queue_xmit``.
"""

from __future__ import annotations

from typing import Callable

from ..errors import TopologyError
from ..net.address import Address
from ..net.interface import NetworkInterface
from ..net.node import Node
from ..net.packet import PROTO_TCP, Packet
from ..sim.engine import Simulator
from ..tcp.options import TCPOptions
from ..tcp.segment import TCPSegment
from ..tcp.stack import TCPStack

__all__ = ["Host"]


class Host(Node):
    """An end host running the simulated TCP/IP stack."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        address: Address,
        tcp_options: TCPOptions | None = None,
    ) -> None:
        super().__init__(name, address)
        self.sim = sim
        self.stack = TCPStack(sim, self, default_options=tcp_options)
        self.udp_bytes_received = 0
        self.udp_packets_received = 0
        #: Optional per-destination-port UDP receive callbacks
        #: (``port -> fn(packet)``); unknown ports are counted and dropped.
        self.udp_listeners: dict[int, Callable[[Packet], None]] = {}
        #: Packets that could not be sent because the host has no interface.
        self.unroutable_packets = 0

    # ------------------------------------------------------------------
    # interfaces
    # ------------------------------------------------------------------
    @property
    def default_interface(self) -> NetworkInterface:
        """The host's NIC (first attached interface)."""
        if not self.interfaces:
            raise TopologyError(f"host {self.name!r} has no attached interface")
        return self.interfaces[0]

    @property
    def ifq_qlen(self) -> int:
        """Current occupancy (packets) of the NIC interface queue."""
        return self.default_interface.qlen

    @property
    def ifq_capacity(self) -> int | None:
        """Capacity (packets) of the NIC interface queue."""
        return self.default_interface.capacity_packets

    def ifq_probe(self) -> tuple[int, int | None]:
        """``(occupancy, capacity)`` of the IFQ — the controller's sensor."""
        if not self.interfaces:
            return (0, None)
        iface = self.interfaces[0]
        return (iface.qlen, iface.capacity_packets)

    # ------------------------------------------------------------------
    # transmission / reception
    # ------------------------------------------------------------------
    def send_packet(self, packet: Packet) -> bool:
        """Transmit via the default NIC; False means the IFQ rejected it."""
        interfaces = self.interfaces
        if not interfaces:
            self.unroutable_packets += 1
            return False
        return interfaces[0].send(packet)

    def receive(self, packet: Packet, interface: NetworkInterface) -> None:
        """Demultiplex an arriving packet to TCP or the UDP sinks."""
        self.packets_received += 1
        self.bytes_received += packet.size_bytes
        if packet.protocol == PROTO_TCP and isinstance(packet, TCPSegment):
            self.stack.handle_segment(packet)
            return
        # UDP-like traffic (cross traffic sinks)
        self.udp_packets_received += 1
        self.udp_bytes_received += packet.size_bytes
        if packet.flow is not None:
            listener = self.udp_listeners.get(packet.flow.dst_port)
            if listener is not None:
                listener(packet)

    # ------------------------------------------------------------------
    def register_udp_listener(self, port: int, callback: Callable[[Packet], None]) -> None:
        """Register a callback for UDP packets addressed to ``port``."""
        self.udp_listeners[port] = callback

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Host {self.name} addr={self.address} ifaces={len(self.interfaces)}>"
