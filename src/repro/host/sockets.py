"""Socket-style façade over the simulated TCP stack.

The simulator has no real file descriptors; :class:`SimSocket` provides the
small, familiar surface applications and examples use — ``send`` bytes, get
``on_data`` callbacks, read counters — while delegating everything to the
underlying :class:`~repro.tcp.connection.TCPConnection`.
"""

from __future__ import annotations

from typing import Callable

from ..tcp.cc.base import CCContext, CongestionControl
from ..tcp.connection import TCPConnection
from ..tcp.options import TCPOptions
from .host import Host

__all__ = ["SimSocket", "listen"]

CCFactory = Callable[[CCContext], CongestionControl]


class SimSocket:
    """A thin wrapper around one :class:`TCPConnection`."""

    def __init__(self, connection: TCPConnection) -> None:
        self.connection = connection

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------
    def send(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data (opens the connection lazily)."""
        self.connection.app_write(nbytes)

    # ------------------------------------------------------------------
    # callbacks
    # ------------------------------------------------------------------
    @property
    def on_data(self) -> Callable[[int], None] | None:
        return self.connection.on_data

    @on_data.setter
    def on_data(self, callback: Callable[[int], None] | None) -> None:
        self.connection.on_data = callback

    @property
    def on_all_acked(self) -> Callable[[], None] | None:
        return self.connection.on_all_acked

    @on_all_acked.setter
    def on_all_acked(self, callback: Callable[[], None] | None) -> None:
        self.connection.on_all_acked = callback

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def bytes_acked(self) -> int:
        """Payload bytes cumulatively acknowledged by the peer."""
        return self.connection.stats.ThruBytesAcked

    @property
    def bytes_delivered(self) -> int:
        """Payload bytes this endpoint has received in order."""
        return self.connection.bytes_delivered

    @property
    def bytes_pending(self) -> int:
        """Application bytes queued but not yet transmitted."""
        return self.connection.app_pending_bytes

    @property
    def stats(self):
        """The connection's :class:`~repro.instrumentation.web100.Web100Stats`."""
        return self.connection.stats

    @property
    def cwnd_bytes(self) -> int:
        return self.connection.cwnd_bytes

    @property
    def is_established(self) -> bool:
        return self.connection.is_established

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimSocket {self.connection.name}>"


def listen(
    host: Host,
    port: int,
    options: TCPOptions | None = None,
    cc_factory: CCFactory | None = None,
    on_connection: Callable[[SimSocket], None] | None = None,
) -> None:
    """Listen on ``port``; ``on_connection`` receives a :class:`SimSocket`."""

    def _adapter(conn: TCPConnection) -> None:
        if on_connection is not None:
            on_connection(SimSocket(conn))

    host.stack.listen(port, options=options, cc_factory=cc_factory, on_connection=_adapter)
