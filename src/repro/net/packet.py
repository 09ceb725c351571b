"""Packet model.

A :class:`Packet` is the unit moved through queues, interfaces and links.
TCP segments (:class:`repro.tcp.segment.TCPSegment`) subclass it and add
sequence/acknowledgement fields; UDP-like cross traffic uses the base class
directly.

Packets are slotted and deliberately dumb: all protocol intelligence lives in
the endpoints, mirroring the structure of a real stack.
"""

from __future__ import annotations

import itertools

from .address import Address, FlowId

__all__ = [
    "Packet",
    "PROTO_TCP",
    "PROTO_UDP",
    "ECN_NOT_ECT",
    "ECN_ECT1",
    "ECN_ECT0",
    "ECN_CE",
    "ecn_capable",
]

#: Protocol tags carried by packets (mirrors the IP protocol field).
PROTO_TCP = "tcp"
PROTO_UDP = "udp"

#: ECN codepoints (two-bit IP header field, RFC 3168 values).
ECN_NOT_ECT = 0  #: not ECN-capable transport
ECN_ECT1 = 1  #: ECN-capable, ECT(1) — used by L4S/Prague senders (RFC 9331)
ECN_ECT0 = 2  #: ECN-capable, ECT(0) — classic ECN senders
ECN_CE = 3  #: congestion experienced (set by AQM instead of dropping)


def ecn_capable(packet: "Packet") -> bool:
    """True when an AQM may CE-mark ``packet`` instead of dropping it."""
    return packet.ecn in (ECN_ECT0, ECN_ECT1)

#: Source of packet uids; :class:`~repro.tcp.segment.TCPSegment`, which
#: inlines :meth:`Packet.__init__`, draws from it too.
_uid_counter = itertools.count(1)


class Packet:
    """A network packet.

    Parameters
    ----------
    size_bytes:
        Wire size of the packet, headers included.
    src, dst:
        Node addresses.
    flow:
        Optional :class:`~repro.net.address.FlowId` used for per-flow
        statistics and endpoint demultiplexing.
    protocol:
        Protocol tag, one of :data:`PROTO_TCP` / :data:`PROTO_UDP`.
    created_at:
        Simulation time at which the packet was created (used to measure
        one-way and queueing delays).
    ecn:
        ECN codepoint (:data:`ECN_NOT_ECT` default); senders set
        :data:`ECN_ECT0`/:data:`ECN_ECT1` on ECN-capable packets and AQMs
        rewrite those to :data:`ECN_CE` instead of dropping.
    """

    __slots__ = (
        "uid",
        "size_bytes",
        "src",
        "dst",
        "flow",
        "protocol",
        "created_at",
        "enqueued_at",
        "hops",
        "ecn",
    )

    def __init__(
        self,
        size_bytes: int,
        src: Address,
        dst: Address,
        flow: FlowId | None = None,
        protocol: str = PROTO_UDP,
        created_at: float = 0.0,
        ecn: int = ECN_NOT_ECT,
    ) -> None:
        self.uid = next(_uid_counter)
        self.size_bytes = int(size_bytes)
        self.src = src
        self.dst = dst
        self.flow = flow
        self.protocol = protocol
        self.created_at = created_at
        #: Time the packet last entered a queue (set by queues; used for
        #: per-hop queueing-delay statistics).
        self.enqueued_at = created_at
        #: Number of store-and-forward hops traversed so far.
        self.hops = 0
        #: ECN codepoint (mutable: AQMs rewrite ECT → CE in flight).
        self.ecn = ecn

    # ------------------------------------------------------------------
    @property
    def size_bits(self) -> float:
        """Wire size in bits."""
        return self.size_bytes * 8.0

    def age(self, now: float) -> float:
        """Seconds since the packet was created."""
        return now - self.created_at

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet #{self.uid} {self.protocol} {self.src}->{self.dst} "
            f"{self.size_bytes}B>"
        )
