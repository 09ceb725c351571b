"""Congestion-control plug-in interface.

The simulated TCP connection delegates all *window arithmetic* to a
:class:`CongestionControl` object while keeping the loss-recovery state
machine (dup-ACK counting, NewReno partial ACKs, RTO handling) in the
connection itself — the same split Linux uses between ``tcp_input.c`` and the
pluggable ``tcp_cong`` modules.  That split is what makes the paper's
contribution a drop-in: restricted slow-start
(:class:`repro.core.restricted_slow_start.RestrictedSlowStart`) only replaces
the slow-start growth rule and the reaction to local congestion.

The congestion window (:attr:`CongestionControl.cwnd`) and slow-start
threshold (:attr:`ssthresh`) are kept in **segments** (floats, so fractional
per-ACK increments accumulate exactly); the connection converts to bytes via
:attr:`cwnd_bytes`.

Hook call protocol (driven by :class:`repro.tcp.connection.TCPConnection`):

=============================  ==============================================
``on_ack``                     a new cumulative ACK arrived in OPEN/DISORDER
``on_enter_recovery``          third duplicate ACK — fast retransmit fired
``on_dupack_in_recovery``      further dup-ACKs while in RECOVERY (inflation)
``on_partial_ack``             partial ACK during RECOVERY (NewReno deflation)
``on_exit_recovery``           ACK covered ``recover`` — leave RECOVERY
``on_rto``                     retransmission timer expired
``on_local_congestion``        the host IFQ rejected a segment (send-stall)
                               *and* the policy says to react
``on_clamp_to_flight``         milder stall policy: clamp, don't reduce
``on_ecn_feedback``            every new ACK on an ECN connection, with the
                               ECE flag state (per-ACK mark bookkeeping)
``on_ecn_echo``                the connection reacts to ECE, at most once
                               per RTT (the CWR episode gates re-entry)
=============================  ==============================================
"""

from __future__ import annotations

import math
from typing import Callable

from ...errors import ConfigurationError
from ...net.packet import ECN_ECT0
from ...sim.engine import Simulator
from ..options import TCPOptions

__all__ = ["CCContext", "CongestionControl"]


class CCContext:
    """What a congestion-control module is allowed to see.

    Parameters
    ----------
    sim:
        Simulator (for the clock and named RNG streams).
    options:
        The endpoint's :class:`~repro.tcp.options.TCPOptions`.
    ifq_probe:
        Optional callable returning ``(qlen, capacity)`` of the sending
        host's interface queue; ``capacity`` is ``None`` when unbounded.
        This is the sensor the paper's controller reads.
    """

    def __init__(
        self,
        sim: Simulator,
        options: TCPOptions,
        ifq_probe: Callable[[], tuple[int, int | None]] | None = None,
    ) -> None:
        self.sim = sim
        self.options = options
        self.ifq_probe = ifq_probe

    @property
    def mss(self) -> int:
        """Sender maximum segment size in bytes."""
        return self.options.mss

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    def ifq_state(self) -> tuple[int, int | None]:
        """Current ``(occupancy, capacity)`` of the host IFQ."""
        if self.ifq_probe is None:
            return (0, None)
        return self.ifq_probe()


class CongestionControl:
    """Base class implementing standard Reno-style multiplicative decrease.

    Subclasses normally override only :meth:`on_ack` (growth rule); the
    decrease rules below match RFC 5681 / Linux NewReno and are shared by
    every variant in this repository unless explicitly overridden.
    """

    #: Registry name; subclasses must override.
    name = "base"

    #: ECN codepoint stamped on outgoing data when ECN is negotiated.
    #: Classic ccs use ECT(0); L4S-style ccs override with ECT(1)
    #: (:data:`repro.net.packet.ECN_ECT1`) so DualPI2 routes them to the
    #: low-latency queue.
    ect_codepoint: int = ECN_ECT0

    def __init__(self, ctx: CCContext) -> None:
        self.ctx = ctx
        opts = ctx.options
        #: Sender maximum segment size in bytes (fixed for the connection;
        #: a plain attribute because every ACK reads it).
        self.mss: int = opts.mss
        self.cwnd: float = float(opts.initial_cwnd_segments)
        if opts.initial_ssthresh_segments is None:
            self.ssthresh: float = math.inf
        else:
            self.ssthresh = float(opts.initial_ssthresh_segments)
        #: Minimum congestion window (segments) after any reduction.
        self.min_cwnd: float = 1.0
        #: Loss-window used after an RTO (RFC 5681: 1 segment).
        self.loss_cwnd: float = 1.0
        #: Number of multiplicative decreases applied (diagnostics).
        self.reductions = 0

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def cwnd_bytes(self) -> int:
        """Congestion window in bytes."""
        return int(self.cwnd * self.mss)

    @property
    def ssthresh_bytes(self) -> float:
        """Slow-start threshold in bytes (may be ``inf``)."""
        return self.ssthresh * self.mss

    @property
    def in_slow_start(self) -> bool:
        """True while the window is below the slow-start threshold."""
        return self.cwnd < self.ssthresh

    def _flight_segments(self, in_flight_bytes: int) -> float:
        return in_flight_bytes / self.mss

    # ------------------------------------------------------------------
    # growth (subclass responsibility)
    # ------------------------------------------------------------------
    def on_ack(self, acked_bytes: int, rtt_sample: float | None, in_flight_bytes: int) -> None:
        """A new cumulative ACK arrived outside recovery.  Subclasses override."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # standard decrease rules (shared by variants)
    # ------------------------------------------------------------------
    def ssthresh_after_loss(self, in_flight_bytes: int) -> float:
        """RFC 5681 ssthresh after a loss event: half the flight size."""
        return max(self._flight_segments(in_flight_bytes) / 2.0, 2.0)

    def on_enter_recovery(self, in_flight_bytes: int) -> None:
        """Fast retransmit fired (3rd dup-ACK)."""
        self.ssthresh = self.ssthresh_after_loss(in_flight_bytes)
        self.cwnd = self.ssthresh + 3.0
        self.reductions += 1

    def on_dupack_in_recovery(self) -> None:
        """Window inflation for every further dup-ACK while recovering."""
        self.cwnd += 1.0

    def on_partial_ack(self, acked_bytes: int) -> None:
        """NewReno window deflation on a partial ACK."""
        deflate = acked_bytes / self.mss
        self.cwnd = max(self.cwnd - deflate + 1.0, self.min_cwnd)

    def on_exit_recovery(self) -> None:
        """Recovery finished; deflate the window back to ssthresh."""
        self.cwnd = max(min(self.cwnd, self.ssthresh), self.min_cwnd)

    def on_rto(self, in_flight_bytes: int) -> None:
        """Retransmission timeout: collapse to the loss window."""
        self.ssthresh = self.ssthresh_after_loss(in_flight_bytes)
        self.cwnd = self.loss_cwnd
        self.reductions += 1

    # ------------------------------------------------------------------
    # ECN reactions
    # ------------------------------------------------------------------
    def on_ecn_feedback(self, acked_bytes: int, ece: bool,
                        rtt_sample: float | None) -> None:
        """Per-ACK ECN bookkeeping (called for every new ACK when ECN is on).

        The base class ignores it; DCTCP/Prague-style ccs use it to track
        the marked fraction of acknowledged bytes.
        """

    def on_ecn_echo(self, in_flight_bytes: int) -> None:
        """React to an ECE echo (classic RFC 3168 reaction, once per RTT).

        The connection gates this with its CWR episode machinery so a burst
        of marked segments produces a single reduction per round trip.  The
        classic reaction halves the window like a loss, but — marks being
        delivered, not lost — nothing is retransmitted.
        """
        self.ssthresh = self.ssthresh_after_loss(in_flight_bytes)
        self.cwnd = max(self.ssthresh, self.min_cwnd)
        self.reductions += 1

    # ------------------------------------------------------------------
    # local congestion (send-stall) reactions
    # ------------------------------------------------------------------
    def on_local_congestion(self, qlen: int, capacity: int | None, in_flight_bytes: int) -> None:
        """Stock reaction to a send-stall: treat it like network congestion.

        This is the Linux 2.4 behaviour the paper criticises — the window is
        reduced multiplicatively and the connection leaves slow-start.
        """
        self.ssthresh = self.ssthresh_after_loss(in_flight_bytes)
        self.cwnd = max(self.ssthresh, self.min_cwnd)
        self.reductions += 1

    def on_clamp_to_flight(self, in_flight_bytes: int) -> None:
        """Milder stall policy: clamp cwnd to the data currently in flight."""
        self.cwnd = max(min(self.cwnd, self._flight_segments(in_flight_bytes) + 1.0),
                        self.min_cwnd)

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def after_idle(self, idle_time: float, rto: float) -> None:
        """Congestion-window validation after an idle period (RFC 2861 light)."""
        if idle_time > rto and self.cwnd > self.ssthresh:
            self.cwnd = max(self.cwnd / 2.0, float(self.ctx.options.initial_cwnd_segments))

    def validate(self) -> None:
        """Sanity-check invariants; called by tests and debug builds."""
        if self.cwnd < self.min_cwnd - 1e-9:
            raise ConfigurationError(f"cwnd {self.cwnd} fell below the minimum window")
        if self.ssthresh < 2.0 - 1e-9:
            raise ConfigurationError(f"ssthresh {self.ssthresh} fell below 2 segments")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ss = "inf" if math.isinf(self.ssthresh) else f"{self.ssthresh:.1f}"
        return f"<{type(self).__name__} cwnd={self.cwnd:.2f} ssthresh={ss}>"
