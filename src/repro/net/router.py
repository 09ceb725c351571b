"""Store-and-forward router.

Routers forward packets between interfaces according to a destination-based
routing table.  Each output interface has its own (finite) buffer, so the
bottleneck router in the dumbbell topology drops packets exactly where a
real router would.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import RoutingError
from .address import Address
from .node import Node
from .packet import Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .interface import NetworkInterface

__all__ = ["Router"]


class Router(Node):
    """A destination-routed store-and-forward router."""

    def __init__(self, name: str, address: Address) -> None:
        super().__init__(name, address)
        self.routing_table: dict[Address, "NetworkInterface"] = {}
        self.packets_forwarded = 0
        self.packets_dropped = 0
        self.no_route_drops = 0

    # ------------------------------------------------------------------
    def set_route(self, destination: Address, interface: "NetworkInterface") -> None:
        """Install (or replace) the route for ``destination``."""
        if interface.node is not self:
            raise RoutingError(
                f"cannot route via interface {interface.name!r}: it belongs to "
                f"{interface.node.name!r}, not {self.name!r}"
            )
        self.routing_table[destination] = interface

    def route_for(self, destination: Address) -> "NetworkInterface":
        """Look up the output interface for ``destination``."""
        try:
            return self.routing_table[destination]
        except KeyError:
            raise RoutingError(
                f"router {self.name!r} has no route for destination {destination}"
            ) from None

    # ------------------------------------------------------------------
    def receive(self, packet: Packet, interface: "NetworkInterface") -> None:
        """Forward an arriving packet toward its destination."""
        self.packets_received += 1
        self.bytes_received += packet.size_bytes
        dst = packet.dst
        if dst == self.address:
            # Routers are not traffic endpoints in this simulator; a packet
            # addressed to the router itself is silently consumed.
            return
        out_iface = self.routing_table.get(dst)
        if out_iface is None:
            self.no_route_drops += 1
            return
        if out_iface.send(packet):
            self.packets_forwarded += 1
        else:
            self.packets_dropped += 1

    def total_buffer_occupancy(self) -> int:
        """Packets queued across all output interfaces."""
        return sum(iface.qlen for iface in self.interfaces)
