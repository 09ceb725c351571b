"""Per-host TCP stack: connection creation and segment demultiplexing.

Every :class:`repro.host.host.Host` owns one :class:`TCPStack`.  The stack

* creates outbound connections (:meth:`connect`) with an ephemeral local
  port,
* registers listening ports (:meth:`listen`) and performs passive opens when
  a SYN arrives,
* demultiplexes incoming segments to the owning connection by the
  (local address, remote address, local port, remote port) 4-tuple.

ECN note: segments are delivered whole (header flags plus IP codepoint), so
the ECE/CWR echo loop lives entirely in :class:`TCPConnection`; a passive
open negotiates ECN from the listener's ``options.ecn`` against the
incoming ECN-setup SYN.
"""

from __future__ import annotations

import itertools
from typing import Callable

from ..errors import ConfigurationError
from ..net.address import Address, FlowId
from ..sim.engine import Simulator
from .cc.base import CCContext, CongestionControl
from .connection import TCPConnection
from .options import TCPOptions
from .segment import TCPSegment

__all__ = ["TCPStack"]

CCFactory = Callable[[CCContext], CongestionControl]


class _Listener:
    """Bookkeeping for one listening port."""

    __slots__ = ("port", "options", "cc_factory", "on_connection")

    def __init__(
        self,
        port: int,
        options: TCPOptions | None,
        cc_factory: CCFactory | None,
        on_connection: Callable[[TCPConnection], None] | None,
    ) -> None:
        self.port = port
        self.options = options
        self.cc_factory = cc_factory
        self.on_connection = on_connection


class TCPStack:
    """TCP connection manager of one host."""

    #: First ephemeral port handed out by :meth:`connect`.
    EPHEMERAL_BASE = 49152

    def __init__(self, sim: Simulator, host, default_options: TCPOptions | None = None) -> None:
        self.sim = sim
        self.host = host
        self.default_options = default_options if default_options is not None else TCPOptions()
        self.connections: dict[FlowId, TCPConnection] = {}
        #: The same connections keyed by the flow of the segments they
        #: receive (their own flow reversed), for per-segment demux.
        self._by_peer_flow: dict[FlowId, TCPConnection] = {}
        self.listeners: dict[int, _Listener] = {}
        self._ephemeral = itertools.count(self.EPHEMERAL_BASE)
        self.segments_received = 0
        self.segments_dropped_no_connection = 0

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def connect(
        self,
        remote_addr: Address,
        remote_port: int,
        local_port: int | None = None,
        options: TCPOptions | None = None,
        cc_factory: CCFactory | None = None,
        name: str = "",
    ) -> TCPConnection:
        """Create (but do not yet open) an outbound connection."""
        if local_port is None:
            local_port = next(self._ephemeral)
        conn = TCPConnection(
            self.sim,
            self.host,
            local_port=local_port,
            remote_addr=remote_addr,
            remote_port=remote_port,
            options=options if options is not None else self.default_options,
            cc_factory=cc_factory,
            name=name,
        )
        if conn.flow in self.connections:
            raise ConfigurationError(f"connection {conn.flow} already exists")
        self._register(conn)
        return conn

    def listen(
        self,
        port: int,
        options: TCPOptions | None = None,
        cc_factory: CCFactory | None = None,
        on_connection: Callable[[TCPConnection], None] | None = None,
    ) -> None:
        """Accept incoming connections on ``port``.

        ``on_connection(conn)`` is invoked for every passive open, letting
        server applications attach ``on_data`` callbacks.
        """
        if port in self.listeners:
            raise ConfigurationError(f"port {port} is already listening")
        self.listeners[port] = _Listener(port, options, cc_factory, on_connection)

    def _register(self, conn: TCPConnection) -> None:
        self.connections[conn.flow] = conn
        self._by_peer_flow[conn.flow.reversed()] = conn

    def connection_for(self, flow: FlowId) -> TCPConnection | None:
        """Look up a connection by its own flow identifier."""
        return self.connections.get(flow)

    # ------------------------------------------------------------------
    # demultiplexing
    # ------------------------------------------------------------------
    def handle_segment(self, seg: TCPSegment) -> None:
        """Deliver an incoming segment to its connection (or passive-open)."""
        self.segments_received += 1
        if seg.flow is None:
            self.segments_dropped_no_connection += 1
            self.sim.trace.record("sim", "demux_drop",
                                  host=getattr(self.host, "name", "?"),
                                  reason="no_flow")
            return
        conn = self._by_peer_flow.get(seg.flow)
        if conn is not None:
            conn.handle_segment(seg)
            return
        if seg.syn and not seg.ack_flag:
            listener = self.listeners.get(seg.flow.dst_port)
            if listener is not None:
                conn = TCPConnection(
                    self.sim,
                    self.host,
                    local_port=seg.flow.dst_port,
                    remote_addr=seg.src,
                    remote_port=seg.flow.src_port,
                    options=listener.options if listener.options is not None
                    else self.default_options,
                    cc_factory=listener.cc_factory,
                    name=f"tcp:accept:{seg.flow.reversed()}",
                )
                self._register(conn)
                if listener.on_connection is not None:
                    listener.on_connection(conn)
                conn.accept_syn(seg)
                return
        self.segments_dropped_no_connection += 1
        self.sim.trace.record("sim", "demux_drop",
                              host=getattr(self.host, "name", "?"),
                              reason="no_connection", flow=str(seg.flow))

    # ------------------------------------------------------------------
    def all_connections(self) -> list[TCPConnection]:
        """Connections created so far (both active and passive opens)."""
        return list(self.connections.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TCPStack host={getattr(self.host, 'name', '?')} "
            f"connections={len(self.connections)} listeners={sorted(self.listeners)}>"
        )
