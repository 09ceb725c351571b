"""Simulated TCP connection endpoint.

:class:`TCPConnection` implements one endpoint of a TCP connection at
segment granularity:

* a reduced three-way handshake (SYN / SYN-ACK / ACK);
* cumulative acknowledgements with delayed ACKs on the receive side;
* RFC 6298 RTO estimation with timestamp-based RTT samples;
* NewReno loss recovery (fast retransmit on the third duplicate ACK,
  partial-ACK retransmission, RTO slow-start restart) driven by a Linux-style
  congestion state machine (OPEN / DISORDER / CWR / RECOVERY / LOSS);
* pluggable congestion control (:mod:`repro.tcp.cc`), which owns the window
  arithmetic;
* **send-stall handling**: when the host's interface queue rejects a segment
  the connection records a Web100 ``SendStall`` event and reacts according to
  the configured :class:`~repro.tcp.state.LocalCongestionPolicy` — by default
  exactly like the stock Linux 2.4 stack the paper measured (treat it as
  congestion: multiplicative decrease, leave slow-start).

The class is transport-only: applications interact through
:meth:`app_write` / the ``on_data`` and ``on_all_acked`` callbacks, and
higher layers (sockets, workloads) wrap it.
"""

from __future__ import annotations

from typing import Callable

from ..errors import TCPStateError
from ..instrumentation.web100 import Web100Stats
from ..net.address import Address, FlowId
from ..net.packet import ECN_CE, ECN_NOT_ECT
from ..sim.engine import Simulator
from ..sim.timers import Timer
from .cc.base import CCContext, CongestionControl
from .cc.reno import RenoCC
from .options import TCPOptions
from .rto import RTOEstimator
from .segment import TCPSegment
from .state import CongState, ConnState, LocalCongestionPolicy

__all__ = ["TCPConnection"]


class TCPConnection:
    """One endpoint of a simulated TCP connection.

    Parameters
    ----------
    sim:
        The simulator.
    host:
        The owning host; must provide ``address``, ``send_packet(packet)``
        and ``ifq_probe()`` (duck-typed to avoid a package cycle).
    local_port, remote_addr, remote_port:
        Connection 4-tuple (the local address is the host's).
    options:
        Endpoint configuration; defaults to :class:`~repro.tcp.options.TCPOptions`.
    cc_factory:
        Callable ``factory(ctx) -> CongestionControl``; defaults to Reno.
    name:
        Label used in traces.
    """

    def __init__(
        self,
        sim: Simulator,
        host,
        local_port: int,
        remote_addr: Address,
        remote_port: int,
        options: TCPOptions | None = None,
        cc_factory: Callable[[CCContext], CongestionControl] | None = None,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.host = host
        self.options = options if options is not None else TCPOptions()
        self.local_addr: Address = host.address
        self.remote_addr = remote_addr
        self.flow = FlowId(self.local_addr, remote_addr, local_port, remote_port)
        self.name = name or f"tcp:{self.flow}"

        # --- control blocks -------------------------------------------------
        self.state = ConnState.CLOSED
        self.cong_state = CongState.OPEN
        ctx = CCContext(sim, self.options, ifq_probe=getattr(host, "ifq_probe", None))
        factory = cc_factory if cc_factory is not None else RenoCC
        self.cc: CongestionControl = factory(ctx)
        self.rto_estimator = RTOEstimator(
            initial_rto=self.options.initial_rto,
            min_rto=self.options.min_rto,
            max_rto=self.options.max_rto,
        )
        self.stats = Web100Stats(CurMSS=self.options.mss, StartTimeSec=sim.now)
        self.stats.observe_cwnd(self.cc.cwnd_bytes)
        self.stats.observe_ssthresh(self.cc.ssthresh_bytes)

        # --- timers ----------------------------------------------------------
        self.rto_timer = Timer(sim, self._on_rto_expired, name=f"{self.name}.rto")
        self.delack_timer = Timer(sim, self._on_delack_timeout, name=f"{self.name}.delack")
        self.stall_retry_timer = Timer(sim, self._on_stall_retry, name=f"{self.name}.stall")

        # --- send state -------------------------------------------------------
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 0
        self.app_pending_bytes = 0
        self._app_bytes_written = 0
        #: retransmission queue: seq -> [payload_len, retransmitted, sent_time]
        self.rtx_queue: dict[int, list] = {}
        self.dupacks = 0
        self.recover = 0
        self.cwr_high_seq = 0
        self.peer_rwnd = self.options.rwnd_bytes
        self.last_send_time = 0.0

        # --- ECN state --------------------------------------------------------
        #: True once both endpoints offered ECN on the handshake.
        self.ecn_enabled = False
        #: Receiver side: a CE mark was seen; echo ECE until CWR arrives.
        self._ecn_echo_pending = False
        #: Sender side: set CWR on the next outgoing data segment.
        self._cwr_pending = False
        #: Diagnostics: CE-marked data segments received, ECE-flagged ACKs
        #: seen, and once-per-RTT ECN window reductions taken.
        self.ce_received = 0
        self.ece_received = 0
        self.ecn_responses = 0

        # --- receive state ----------------------------------------------------
        self.irs = 0
        self.rcv_nxt = 0
        self.ooo_segments: dict[int, int] = {}
        self.delack_pending = 0
        self.ts_recent = 0.0
        self.bytes_delivered = 0

        # --- application callbacks --------------------------------------------
        self.on_data: Callable[[int], None] | None = None
        self.on_established: Callable[[], None] | None = None
        self.on_all_acked: Callable[[], None] | None = None

    # ==================================================================
    # public properties
    # ==================================================================
    @property
    def bytes_in_flight(self) -> int:
        """Bytes sent but not yet cumulatively acknowledged."""
        return self.snd_nxt - self.snd_una

    @property
    def cwnd_bytes(self) -> int:
        """Current congestion window in bytes."""
        return self.cc.cwnd_bytes

    @property
    def cwnd_segments(self) -> float:
        """Current congestion window in segments."""
        return self.cc.cwnd

    @property
    def is_established(self) -> bool:
        return self.state == ConnState.ESTABLISHED

    @property
    def send_stalls(self) -> int:
        """Number of local send-stall events recorded so far."""
        return self.stats.SendStall

    # ==================================================================
    # application interface
    # ==================================================================
    def open(self) -> None:
        """Actively open the connection (send SYN)."""
        if self.state != ConnState.CLOSED:
            raise TCPStateError(f"cannot open connection in state {self.state}")
        self._set_state(ConnState.SYN_SENT)
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 1  # the SYN consumes one sequence number
        self._transmit_segment(self._make_segment(seq=self.iss, payload=0, syn=True,
                                                  ack_flag=False))
        self.rto_timer.restart(self.rto_estimator.rto)

    def app_write(self, nbytes: int) -> None:
        """Queue ``nbytes`` of application data for transmission.

        Opens the connection automatically on first write if it is still
        closed (convenience for bulk-transfer workloads).
        """
        if nbytes <= 0:
            return
        self.app_pending_bytes += int(nbytes)
        self._app_bytes_written += int(nbytes)
        if self.state == ConnState.CLOSED:
            self.open()
        elif self.state == ConnState.ESTABLISHED:
            self._try_send()

    # ==================================================================
    # passive open (driven by the stack)
    # ==================================================================
    def accept_syn(self, seg: TCPSegment) -> None:
        """Handle an incoming SYN for a listening port (passive open)."""
        if self.state != ConnState.CLOSED:
            raise TCPStateError(f"cannot accept SYN in state {self.state}")
        # RFC 3168 negotiation: the ECN-setup SYN carries ECE+CWR; agree
        # (SYN-ACK with ECE) only when this endpoint offers ECN too.
        self.ecn_enabled = self.options.ecn and seg.ece and seg.cwr
        self.irs = seg.seq
        self.rcv_nxt = seg.seq + 1
        self.ts_recent = seg.ts_val
        if seg.rwnd > 0:
            self.peer_rwnd = seg.rwnd
        self.iss = 0
        self.snd_una = 0
        self.snd_nxt = 1  # our SYN-ACK consumes one sequence number
        self._set_state(ConnState.SYN_RCVD)
        self._transmit_segment(self._make_segment(seq=self.iss, payload=0, syn=True,
                                                  ack_flag=True))
        self.rto_timer.restart(self.rto_estimator.rto)

    # ==================================================================
    # segment reception (driven by the stack)
    # ==================================================================
    def handle_segment(self, seg: TCPSegment) -> None:
        """Process a segment addressed to this connection."""
        if seg.rwnd > 0:
            self.peer_rwnd = seg.rwnd

        if self.state == ConnState.SYN_SENT:
            if seg.syn and seg.ack_flag and seg.ack == self.snd_nxt:
                self._complete_active_handshake(seg)
            return

        if self.state == ConnState.SYN_RCVD:
            if seg.syn and not seg.ack_flag:
                # duplicate SYN: our SYN-ACK was probably lost; resend it
                self._transmit_segment(self._make_segment(seq=self.iss, payload=0,
                                                          syn=True, ack_flag=True))
                return
            if seg.ack_flag and seg.ack >= self.snd_nxt:
                self.snd_una = seg.ack
                self.rto_timer.stop()
                self._set_state(ConnState.ESTABLISHED)
                if self.on_established is not None:
                    self.on_established()
                # fall through: the completing ACK may carry data

        if self.state not in (ConnState.ESTABLISHED, ConnState.CLOSING):
            return

        if seg.payload_bytes == 0 and not seg.syn and not seg.fin:  # is_pure_ack
            self.stats.AckPktsIn += 1
        if seg.ack_flag:
            self._process_ack(seg)
        if seg.payload_bytes > 0 or seg.fin:
            self._process_data(seg)

    # ------------------------------------------------------------------
    def _complete_active_handshake(self, seg: TCPSegment) -> None:
        # an ECN-setup SYN-ACK has ECE set and CWR clear; anything else
        # (including a plain SYN-ACK from a non-ECN peer) leaves ECN off
        self.ecn_enabled = self.options.ecn and seg.ece and not seg.cwr
        self.snd_una = seg.ack
        self.irs = seg.seq
        self.rcv_nxt = seg.seq + 1
        self.ts_recent = seg.ts_val
        if seg.rwnd > 0:
            self.peer_rwnd = seg.rwnd
        if self.options.timestamps and seg.ts_ecr > 0:
            sample = max(self.sim.now - seg.ts_ecr, 0.0)
            rto = self.rto_estimator.update(sample)
            self.stats.observe_rtt(sample, self.rto_estimator.srtt or sample, rto)
        self.rto_timer.stop()
        self._set_state(ConnState.ESTABLISHED)
        self._send_ack()
        if self.on_established is not None:
            self.on_established()
        self._try_send()

    # ==================================================================
    # ACK processing / loss recovery
    # ==================================================================
    def _process_ack(self, seg: TCPSegment) -> None:
        ack = seg.ack
        now = self.sim.now
        if ack > self.snd_nxt:
            return  # acknowledges data we never sent; ignore
        if self.ecn_enabled and seg.ece:
            self.ece_received += 1
            self._react_to_ecn_echo()
        if ack > self.snd_una:
            self._process_new_ack(seg, ack, now)
        elif ack == self.snd_una and self.snd_nxt > self.snd_una and seg.is_pure_ack:
            self._process_duplicate_ack()

    def _process_new_ack(self, seg: TCPSegment, ack: int, now: float) -> None:
        in_flight_before = self.snd_nxt - self.snd_una
        acked = ack - self.snd_una
        self.snd_una = ack
        self._purge_rtx_queue(ack)
        self.stats.ThruBytesAcked += acked

        rtt_sample: float | None = None
        if self.options.timestamps and seg.ts_ecr > 0:
            rtt_sample = max(now - seg.ts_ecr, 0.0)
            rto = self.rto_estimator.update(rtt_sample)
            self.stats.observe_rtt(rtt_sample, self.rto_estimator.srtt or rtt_sample, rto)

        if self.ecn_enabled:
            self.cc.on_ecn_feedback(acked, seg.ece, rtt_sample)

        if self.cong_state == CongState.RECOVERY:
            if ack >= self.recover:
                self.cc.on_exit_recovery()
                self._set_cong_state(CongState.OPEN)
                self.dupacks = 0
            else:
                # NewReno partial ACK: the next hole is lost too
                self.cc.on_partial_ack(acked)
                self._retransmit_first_unacked()
        elif self.cong_state == CongState.LOSS:
            if ack >= self.recover:
                self._set_cong_state(CongState.OPEN)
            self._grow_window(acked, rtt_sample, in_flight_before)
            self.dupacks = 0
        elif self.cong_state == CongState.CWR:
            if ack >= self.cwr_high_seq:
                self._set_cong_state(CongState.OPEN)
            # the window is frozen while completing the CWR episode
            self.dupacks = 0
        else:
            if self.cong_state == CongState.DISORDER:
                self._set_cong_state(CongState.OPEN)
            self._grow_window(acked, rtt_sample, in_flight_before)
            self.dupacks = 0

        self.stats.observe_cwnd(self.cc.cwnd_bytes)
        self.stats.observe_ssthresh(self.cc.ssthresh_bytes)
        self.stats.RwinRcvd = seg.rwnd

        if self.snd_una < self.snd_nxt:
            self.rto_timer.restart(self.rto_estimator.rto)
        else:
            self.rto_timer.stop()

        self._try_send()

        if (
            self.snd_una == self.snd_nxt
            and self.app_pending_bytes == 0
            and self._app_bytes_written > 0
            and self.on_all_acked is not None
        ):
            callback = self.on_all_acked
            self.on_all_acked = None
            callback()

    def _process_duplicate_ack(self) -> None:
        self.dupacks += 1
        self.stats.DupAcksIn += 1
        if self.cong_state == CongState.RECOVERY:
            self.cc.on_dupack_in_recovery()
            self._try_send()
            return
        if self.cong_state in (CongState.OPEN, CongState.DISORDER, CongState.CWR):
            if self.dupacks >= self.options.dupack_threshold:
                self._enter_recovery()
            elif self.cong_state == CongState.OPEN:
                self._set_cong_state(CongState.DISORDER)

    def _grow_window(self, acked: int, rtt_sample: float | None, in_flight: int) -> None:
        if self.cc.in_slow_start:
            self.stats.SlowStart += 1
        else:
            self.stats.CongAvoid += 1
        self.cc.on_ack(acked, rtt_sample, in_flight)

    def _react_to_ecn_echo(self) -> None:
        """Window reduction for an ECE echo, at most once per round trip.

        Reuses the CWR episode machinery: after reducing, ``cwr_high_seq``
        pins the episode end and further ECE-flagged ACKs are ignored until
        the reduced window's data is acknowledged (RFC 3168 §6.1.2).
        Ongoing loss recovery takes precedence — a drop is a stronger
        signal than a mark.
        """
        if self.cong_state not in (CongState.OPEN, CongState.DISORDER):
            return
        if self.snd_nxt <= self.snd_una:
            return  # nothing in flight to reduce for
        now = self.sim.now
        self.cc.on_ecn_echo(self.bytes_in_flight)
        self.sim.trace.record("ecn", "echo", time=now, conn=self.name,
                              cwnd=self.cc.cwnd_bytes,
                              in_flight=self.bytes_in_flight)
        self.cwr_high_seq = self.snd_nxt
        self._set_cong_state(CongState.CWR)
        self._cwr_pending = True
        self.ecn_responses += 1
        self.stats.record_signal("CongestionSignals", now)
        self.stats.observe_cwnd(self.cc.cwnd_bytes)
        self.stats.observe_ssthresh(self.cc.ssthresh_bytes)

    def _enter_recovery(self) -> None:
        now = self.sim.now
        self.recover = self.snd_nxt
        self.cc.on_enter_recovery(self.bytes_in_flight)
        self._set_cong_state(CongState.RECOVERY)
        self.stats.record_signal("CongestionSignals", now)
        self.stats.record_signal("FastRetran", now)
        self.stats.observe_cwnd(self.cc.cwnd_bytes)
        self.stats.observe_ssthresh(self.cc.ssthresh_bytes)
        self._retransmit_first_unacked()

    # ==================================================================
    # retransmission timer
    # ==================================================================
    def _on_rto_expired(self) -> None:
        now = self.sim.now
        if self.state == ConnState.SYN_SENT:
            self._transmit_segment(self._make_segment(seq=self.iss, payload=0, syn=True,
                                                      ack_flag=False, retransmission=True))
            self.rto_estimator.backoff()
            self.rto_timer.restart(self.rto_estimator.rto)
            return
        if self.state == ConnState.SYN_RCVD:
            self._transmit_segment(self._make_segment(seq=self.iss, payload=0, syn=True,
                                                      ack_flag=True, retransmission=True))
            self.rto_estimator.backoff()
            self.rto_timer.restart(self.rto_estimator.rto)
            return
        if self.snd_una >= self.snd_nxt:
            return  # nothing outstanding
        self.sim.trace.record("rto", "fire", time=now, conn=self.name,
                              rto=self.rto_estimator.rto,
                              in_flight=self.bytes_in_flight)
        self.stats.record_signal("Timeouts", now)
        self.stats.record_signal("CongestionSignals", now)
        self.recover = self.snd_nxt
        self.cc.on_rto(self.bytes_in_flight)
        self._set_cong_state(CongState.LOSS)
        self.dupacks = 0
        self.stats.observe_cwnd(self.cc.cwnd_bytes)
        self.stats.observe_ssthresh(self.cc.ssthresh_bytes)
        self._retransmit_first_unacked()
        self.rto_estimator.backoff()
        self.rto_timer.restart(self.rto_estimator.rto)

    # ==================================================================
    # sending
    # ==================================================================
    def _try_send(self) -> None:
        if self.state != ConnState.ESTABLISHED:
            return
        opts = self.options
        now = self.sim.now
        if (
            self.snd_una == self.snd_nxt
            and self.last_send_time > 0.0
            and now - self.last_send_time > self.rto_estimator.rto
        ):
            self.cc.after_idle(now - self.last_send_time, self.rto_estimator.rto)
        sent = 0
        # a send that succeeds leaves the window alone; one that stalls
        # ends the loop, so the window is read once
        window = min(self.cc.cwnd_bytes, self.peer_rwnd)
        while self.app_pending_bytes > 0:
            if opts.max_burst_segments is not None and sent >= opts.max_burst_segments:
                break
            available = window - (self.snd_nxt - self.snd_una)
            payload = min(opts.mss, self.app_pending_bytes)
            if available < payload:
                break
            seg = self._make_segment(seq=self.snd_nxt, payload=payload)
            if not self._transmit_segment(seg):
                break
            self.rtx_queue[self.snd_nxt] = [payload, False, now]
            self.snd_nxt += payload
            self.app_pending_bytes -= payload
            sent += 1
            if not self.rto_timer.is_running:
                self.rto_timer.start(self.rto_estimator.rto)

    def _retransmit_first_unacked(self) -> None:
        info = self.rtx_queue.get(self.snd_una)
        seq0 = self.snd_una
        if info is None:
            for seq, entry in self.rtx_queue.items():
                if seq + entry[0] > self.snd_una:
                    info, seq0 = entry, seq
                    break
            else:
                return
        seg = self._make_segment(seq=seq0, payload=info[0], retransmission=True)
        if self._transmit_segment(seg):
            info[1] = True
            info[2] = self.sim.now
            if not self.rto_timer.is_running:
                self.rto_timer.start(self.rto_estimator.rto)

    def _transmit_segment(self, seg: TCPSegment) -> bool:
        ok = self.host.send_packet(seg)
        now = self.sim.now
        if not ok:
            self.stats.record_signal("SendStall", now)
            self._handle_send_stall(seg)
            return False
        self.stats.PktsOut += 1
        if seg.payload_bytes > 0:
            self.stats.DataPktsOut += 1
            self.stats.DataBytesOut += seg.payload_bytes
            if seg.retransmission:
                self.stats.PktsRetrans += 1
                self.stats.BytesRetrans += seg.payload_bytes
        self.last_send_time = now
        return True

    def _handle_send_stall(self, seg: TCPSegment) -> None:
        """React to the IFQ rejecting a segment (local congestion)."""
        policy = self.options.local_congestion_policy
        qlen, capacity = self.host.ifq_probe() if hasattr(self.host, "ifq_probe") else (0, None)
        self.sim.trace.record("tcp", "send_stall", conn=self.name, qlen=qlen,
                              cwnd=self.cc.cwnd)
        if seg.payload_bytes > 0 and self.cong_state in (CongState.OPEN, CongState.DISORDER):
            if policy == LocalCongestionPolicy.TREAT_AS_CONGESTION:
                self.cc.on_local_congestion(qlen, capacity, self.bytes_in_flight)
                self.cwr_high_seq = self.snd_nxt
                self._set_cong_state(CongState.CWR)
                self.stats.OtherReductions += 1
            elif policy == LocalCongestionPolicy.CLAMP_ONLY:
                self.cc.on_clamp_to_flight(self.bytes_in_flight)
                self.stats.OtherReductions += 1
            # LocalCongestionPolicy.IGNORE: no window reaction
            self.stats.observe_cwnd(self.cc.cwnd_bytes)
            self.stats.observe_ssthresh(self.cc.ssthresh_bytes)
        if not self.stall_retry_timer.is_running:
            self.stall_retry_timer.start(self.options.stall_retry_interval)

    def _on_stall_retry(self) -> None:
        self._try_send()

    def _purge_rtx_queue(self, ack: int) -> None:
        # the queue is in sequence order: drop the fully acknowledged prefix
        rtx = self.rtx_queue
        acked = []
        for seq, entry in rtx.items():
            if seq + entry[0] > ack:
                break
            acked.append(seq)
        for seq in acked:
            del rtx[seq]

    # ==================================================================
    # receiving data / generating ACKs
    # ==================================================================
    def _process_data(self, seg: TCPSegment) -> None:
        opts = self.options
        if self.ecn_enabled:
            if seg.cwr:
                # the sender reacted; stop echoing (a CE mark on this very
                # segment re-latches below)
                self._ecn_echo_pending = False
            if seg.ecn == ECN_CE:
                self.ce_received += 1
                self._ecn_echo_pending = True
        if seg.seq == self.rcv_nxt:
            if self.delack_pending == 0:
                # echo the timestamp of the earliest segment the next ACK covers
                self.ts_recent = seg.ts_val
            # seg.seq_space, inlined
            self.rcv_nxt += seg.payload_bytes + (1 if seg.syn else 0) + (1 if seg.fin else 0)
            self.stats.DataPktsIn += 1
            self.stats.DataBytesIn += seg.payload_bytes
            delivered = seg.payload_bytes
            while self.rcv_nxt in self.ooo_segments:
                length = self.ooo_segments.pop(self.rcv_nxt)
                self.rcv_nxt += length
                delivered += length
            self.bytes_delivered += delivered
            if self.on_data is not None and delivered > 0:
                self.on_data(delivered)
            self.delack_pending += 1
            if (
                not opts.delayed_ack
                or self.delack_pending >= opts.delack_segments
                or self.ooo_segments
                # DCTCP-style immediate feedback: don't sit on an ECE echo
                or (self.ecn_enabled and self._ecn_echo_pending)
            ):
                self._send_ack()
            elif not self.delack_timer.is_running:
                self.delack_timer.start(opts.delack_timeout)
        elif seg.seq > self.rcv_nxt:
            # out-of-order: remember it and send an immediate duplicate ACK
            self.ooo_segments.setdefault(seg.seq, seg.payload_bytes)
            self.stats.DataPktsIn += 1
            self._send_ack()
        else:
            # duplicate of already-received data: re-ACK
            self._send_ack()

    def _on_delack_timeout(self) -> None:
        if self.delack_pending > 0:
            self._send_ack()

    def _send_ack(self) -> None:
        self.delack_timer.stop()
        self.delack_pending = 0
        ack_seg = self._make_segment(seq=self.snd_nxt, payload=0)
        if self._transmit_segment(ack_seg):
            self.stats.AckPktsOut += 1

    # ==================================================================
    # helpers
    # ==================================================================
    def _make_segment(
        self,
        seq: int,
        payload: int,
        syn: bool = False,
        ack_flag: bool = True,
        retransmission: bool = False,
    ) -> TCPSegment:
        now = self.sim.now
        opts = self.options
        ece = cwr = False
        ecn_codepoint = ECN_NOT_ECT
        if syn:
            if not ack_flag:
                # ECN-setup SYN: ECE+CWR both set (RFC 3168 §6.1.1)
                ece = cwr = opts.ecn
            else:
                # ECN-setup SYN-ACK: ECE set, CWR clear
                ece = self.ecn_enabled
        elif self.ecn_enabled:
            if ack_flag and self._ecn_echo_pending:
                ece = True
            if payload > 0:
                # retransmissions must not be ECT (RFC 3168 §6.1.5)
                if not retransmission:
                    ecn_codepoint = self.cc.ect_codepoint
                if self._cwr_pending:
                    cwr = True
                    self._cwr_pending = False
        # positional, in TCPSegment's parameter order: calling a class with
        # keywords builds a dict, which costs more than the segment's fields
        return TCPSegment(
            self.local_addr,                                             # src
            self.remote_addr,                                            # dst
            self.flow,                                                   # flow
            seq,                                                         # seq
            self.rcv_nxt if ack_flag else 0,                             # ack
            payload,                                                     # payload_bytes
            syn,                                                         # syn
            False,                                                       # fin
            ack_flag,                                                    # ack_flag
            opts.rwnd_bytes,                                             # rwnd
            now if opts.timestamps else 0.0,                             # ts_val
            self.ts_recent if (ack_flag and opts.timestamps) else 0.0,   # ts_ecr
            opts.header_bytes,                                           # header_bytes
            now,                                                         # created_at
            retransmission,                                              # retransmission
            ece,                                                         # ece
            cwr,                                                         # cwr
            ecn_codepoint,                                               # ecn
        )

    def _set_state(self, new_state: ConnState) -> None:
        self.sim.trace.record("tcp", "conn_state", conn=self.name,
                              old=self.state.value, new=new_state.value)
        self.state = new_state

    def _set_cong_state(self, new_state: CongState) -> None:
        if new_state is self.cong_state:
            return
        self.sim.trace.record("tcp", "cong_state", conn=self.name,
                              old=self.cong_state.value, new=new_state.value)
        # same transition on the typed "cc" channel, with window context
        self.sim.trace.record("cc", "state", conn=self.name,
                              old=self.cong_state.value, new=new_state.value,
                              cwnd=self.cc.cwnd_bytes,
                              ssthresh=self.cc.ssthresh_bytes)
        self.cong_state = new_state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TCPConnection {self.name} {self.state.value}/{self.cong_state.value} "
            f"cwnd={self.cc.cwnd:.1f} una={self.snd_una} nxt={self.snd_nxt}>"
        )
