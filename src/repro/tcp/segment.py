"""TCP segment model.

A :class:`TCPSegment` is a :class:`~repro.net.packet.Packet` carrying the
header fields the simulated stack actually uses: sequence/acknowledgement
numbers, SYN/FIN/ACK flags, a receiver-window advertisement and RFC 7323
style timestamps (used for RTT sampling without Karn ambiguity).
"""

from __future__ import annotations

from ..net.address import Address, FlowId
from ..net.packet import PROTO_TCP, Packet, _uid_counter
from ..units import DEFAULT_HEADER_BYTES

__all__ = ["TCPSegment"]


class TCPSegment(Packet):
    """A TCP segment (data, ACK, SYN or FIN)."""

    __slots__ = (
        "seq",
        "ack",
        "payload_bytes",
        "syn",
        "fin",
        "ack_flag",
        "rwnd",
        "ts_val",
        "ts_ecr",
        "retransmission",
        "ece",
        "cwr",
    )

    def __init__(
        self,
        src: Address,
        dst: Address,
        flow: FlowId,
        seq: int,
        ack: int,
        payload_bytes: int = 0,
        syn: bool = False,
        fin: bool = False,
        ack_flag: bool = True,
        rwnd: int = 0,
        ts_val: float = 0.0,
        ts_ecr: float = 0.0,
        header_bytes: int = DEFAULT_HEADER_BYTES,
        created_at: float = 0.0,
        retransmission: bool = False,
        ece: bool = False,
        cwr: bool = False,
        ecn: int = 0,
    ) -> None:
        # TCPConnection._make_segment passes every argument positionally:
        # keep this parameter order.
        # Packet.__init__'s assignments, inlined: one segment per send
        self.uid = next(_uid_counter)
        self.size_bytes = int(payload_bytes + header_bytes)
        self.src = src
        self.dst = dst
        self.flow = flow
        self.protocol = PROTO_TCP
        self.created_at = created_at
        self.enqueued_at = created_at
        self.hops = 0
        self.ecn = ecn
        #: First sequence number covered by this segment.
        self.seq = seq
        #: Cumulative acknowledgement number (next byte expected by sender of
        #: this segment).
        self.ack = ack
        #: Payload length in bytes (0 for pure ACKs and bare SYN/FIN).
        self.payload_bytes = payload_bytes
        self.syn = syn
        self.fin = fin
        self.ack_flag = ack_flag
        #: Receiver window advertisement in bytes.
        self.rwnd = rwnd
        #: Timestamp value (sender clock) and echo reply, RFC 7323 style.
        self.ts_val = ts_val
        self.ts_ecr = ts_ecr
        #: True when this segment is a retransmission (diagnostics only).
        self.retransmission = retransmission
        #: RFC 3168 ECN header flags.  ``ece`` echoes congestion back to the
        #: sender (also the ECN-setup flag on SYN/SYN-ACK); ``cwr`` tells
        #: the receiver the sender reacted, stopping the ECE echo.
        self.ece = ece
        self.cwr = cwr

    # ------------------------------------------------------------------
    @property
    def seq_space(self) -> int:
        """Sequence space consumed: payload plus one for SYN and one for FIN."""
        return self.payload_bytes + (1 if self.syn else 0) + (1 if self.fin else 0)

    @property
    def end_seq(self) -> int:
        """Sequence number one past the last byte covered by this segment."""
        return self.seq + self.seq_space

    @property
    def is_pure_ack(self) -> bool:
        """True for segments carrying neither payload nor SYN/FIN."""
        return self.payload_bytes == 0 and not self.syn and not self.fin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = "".join(
            f for f, present in (("S", self.syn), ("F", self.fin), (".", self.ack_flag)) if present
        )
        return (
            f"<TCPSegment {self.src}->{self.dst} seq={self.seq} ack={self.ack} "
            f"len={self.payload_bytes} [{flags}]>"
        )
