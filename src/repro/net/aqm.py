"""Modern AQM queue disciplines: CoDel (RFC 8289) and DualPI2 (RFC 9332).

Both build on :class:`~repro.net.queues.PacketQueue` and both can *mark*
ECN-capable packets (rewrite ECT → CE) instead of dropping them, which is
what lets an L4S-style sender (Prague/DCTCP fractional backoff) keep the
bottleneck queue short with (near-)zero loss.

* :class:`CoDelQueue` — Controlled Delay: admission is plain tail-drop; the
  control law acts at *dequeue* time on the packet's sojourn time.  While
  the sojourn time stays above ``target`` for longer than ``interval`` the
  queue enters a dropping state and drops (or marks) head packets at a rate
  that increases with the square root of the drop count.
* :class:`DualPI2Queue` — the coupled dual-queue AQM of L4S.  A PI
  controller servos a base probability ``p'`` on queueing delay; classic
  traffic is dropped (or marked) with probability ``p'²`` while L4S traffic
  (ECT(1)) is marked with the coupled probability ``k·p'`` plus an
  immediate step mark above a shallow delay threshold.  The L4S queue gets
  strict priority at dequeue.

Accounting invariants (shared with the classic disciplines and pinned by
tests): tail rejections count as drops at enqueue; CoDel's head drops are
counted as drops *after* the packet was counted enqueued and dequeued (so
``enqueued == dequeued + qlen``, and ``dequeued - head_drops`` packets
reached the wire); a marked packet is never also counted as dropped.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Callable, Deque, Optional

import numpy as np

from ..errors import ConfigurationError
from .packet import ECN_CE, ECN_ECT1, Packet
from .queues import PacketQueue

__all__ = ["CoDelQueue", "DualPI2Queue"]


class CoDelQueue(PacketQueue):
    """Controlled-Delay AQM (RFC 8289), with optional ECN marking.

    Parameters
    ----------
    capacity_packets, capacity_bytes:
        Physical limits; arrivals beyond them tail-drop exactly like
        :class:`DropTailQueue`.
    target:
        Acceptable standing queue delay (seconds; RFC default 5 ms).
    interval:
        Sliding window in which the sojourn time must exceed ``target``
        before the queue starts dropping (seconds; RFC default 100 ms).
    ecn:
        When True, the control law CE-marks ECN-capable packets instead of
        dropping them (non-ECN packets are still dropped).
    """

    def __init__(
        self,
        capacity_packets: Optional[int] = None,
        capacity_bytes: Optional[int] = None,
        target: float = 0.005,
        interval: float = 0.100,
        ecn: bool = False,
        clock: Callable[[], float] | None = None,
        name: str = "codel",
    ) -> None:
        if target <= 0.0:
            raise ConfigurationError("CoDel target must be > 0")
        if interval <= 0.0:
            raise ConfigurationError("CoDel interval must be > 0")
        super().__init__(capacity_packets, capacity_bytes, clock, name)
        self.target = float(target)
        self.interval = float(interval)
        self.ecn = bool(ecn)
        #: Head drops made by the control law (subset of ``stats.dropped``).
        self.head_drops = 0
        self._maxpacket = 0
        self._first_above_time = 0.0
        self._drop_next = 0.0
        self._count = 0
        self._lastcount = 0
        self._dropping = False

    # ------------------------------------------------------------------
    def _admit(self, packet: Packet) -> bool:
        if packet.size_bytes > self._maxpacket:
            self._maxpacket = packet.size_bytes
        return self._within_capacity(packet)

    def _control_law(self, t: float) -> float:
        return t + self.interval / math.sqrt(self._count)

    def _pop_head(self, now: float) -> tuple[Packet | None, bool]:
        """RFC 8289 ``dodequeue``: pop the head, judge its sojourn time."""
        if not self._queue:
            self._first_above_time = 0.0
            return None, False
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        self._count_dequeue(packet)
        sojourn = now - packet.enqueued_at
        if sojourn < self.target or self._bytes <= self._maxpacket:
            # went below target (or queue is down to one packet's worth):
            # stay out of the dropping state for at least interval
            self._first_above_time = 0.0
            return packet, False
        # repro: allow[REP003] 0.0 is an exact "not armed" sentinel, only ever assigned verbatim
        if self._first_above_time == 0.0:
            self._first_above_time = now + self.interval
            return packet, False
        return packet, now >= self._first_above_time

    def _head_drop(self, packet: Packet) -> None:
        # packet was already counted dequeued by _pop_head; the drop is
        # accounted on top so enqueued == dequeued + qlen holds and
        # head_drops lets tests separate the two drop causes
        self.head_drops += 1
        self._count_drop(packet)

    def _set_dropping(self, now: float, value: bool) -> None:
        """Switch the control-law state, tracing actual transitions."""
        if value != self._dropping and self.trace is not None:
            self.trace.record("aqm", "codel_state", time=now,
                              queue=self.name, dropping=value,
                              count=self._count)
        self._dropping = value

    def dequeue(self) -> Packet | None:
        now = self._clock()
        self.stats.observe(now, self.qlen)
        packet, ok_to_drop = self._pop_head(now)
        if packet is None:
            self._set_dropping(now, False)
            return None
        if self._dropping:
            if not ok_to_drop:
                self._set_dropping(now, False)
            else:
                while self._dropping and now >= self._drop_next:
                    self._count += 1
                    if self.ecn and self._mark(packet):
                        # marking substitutes for the drop: deliver this
                        # packet and advance the schedule
                        self._drop_next = self._control_law(self._drop_next)
                        break
                    self._head_drop(packet)
                    packet, ok_to_drop = self._pop_head(now)
                    if packet is None:
                        self._set_dropping(now, False)
                        return None
                    if not ok_to_drop:
                        self._set_dropping(now, False)
                    else:
                        self._drop_next = self._control_law(self._drop_next)
        elif ok_to_drop:
            marked = self.ecn and self._mark(packet)
            if not marked:
                self._head_drop(packet)
                packet, _ = self._pop_head(now)
            self._set_dropping(now, True)
            # start the next dropping episode faster if the last one was
            # recent and heavy (RFC 8289 count reuse)
            delta = self._count - self._lastcount
            if delta > 1 and now - self._drop_next < 16.0 * self.interval:
                self._count = delta
            else:
                self._count = 1
            self._drop_next = self._control_law(now)
            self._lastcount = self._count
        return packet


class DualPI2Queue(PacketQueue):
    """Coupled dual-queue PI2 AQM for L4S (RFC 9332).

    Traffic is split by ECN codepoint: ECT(1)/CE packets go to the L4S
    queue (strict priority at dequeue), everything else to the classic
    queue.  A PI controller updated every ``tupdate`` servos the base
    probability ``p'`` on the instantaneous queueing delay; classic packets
    are dropped — or CE-marked when ``ecn_classic`` — with probability
    ``p'²`` at admission, L4S packets are CE-marked at dequeue with the
    coupled probability ``min(1, coupling · p')`` or immediately once their
    sojourn time exceeds ``step_threshold``.

    Parameters
    ----------
    capacity_packets, capacity_bytes:
        Shared physical limits across both internal queues.
    rng:
        Required seeded ``numpy.random.Generator`` for the probabilistic
        drop/mark decisions (a ``sim.rng(...)`` stream when compiled).
        Keyword-only with no default, so the signature — not a runtime
        raise — enforces the seeded-rng contract.
    target:
        Classic-queue delay target for the PI controller (seconds).
    tupdate:
        PI update period (seconds).
    alpha, beta:
        Integral and proportional PI gains (per second of delay error).
    coupling:
        Coupling factor ``k`` between classic and L4S probabilities.
    step_threshold:
        L4S sojourn time above which packets are marked unconditionally
        (seconds); gives sub-RTT feedback during slow start.
    ecn:
        When False the L4S path is disabled and every packet is treated as
        classic (plain PI2 behaviour).
    ecn_classic:
        When True, classic ECT(0) packets are marked rather than dropped.
    """

    def __init__(
        self,
        capacity_packets: Optional[int] = None,
        capacity_bytes: Optional[int] = None,
        *,
        rng: np.random.Generator,
        target: float = 0.015,
        tupdate: float = 0.016,
        alpha: float = 0.16,
        beta: float = 3.2,
        coupling: float = 2.0,
        step_threshold: float = 0.001,
        ecn: bool = True,
        ecn_classic: bool = False,
        clock: Callable[[], float] | None = None,
        name: str = "dualpi2",
    ) -> None:
        if target <= 0.0 or tupdate <= 0.0:
            raise ConfigurationError("DualPI2 target and tupdate must be > 0")
        if alpha < 0.0 or beta < 0.0:
            raise ConfigurationError("DualPI2 gains must be >= 0")
        if coupling <= 0.0:
            raise ConfigurationError("DualPI2 coupling must be > 0")
        if step_threshold < 0.0:
            raise ConfigurationError("DualPI2 step_threshold must be >= 0")
        super().__init__(capacity_packets, capacity_bytes, clock, name)
        self.rng = rng
        self.target = float(target)
        self.tupdate = float(tupdate)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.coupling = float(coupling)
        self.step_threshold = float(step_threshold)
        self.ecn = bool(ecn)
        self.ecn_classic = bool(ecn_classic)
        #: L4S CE marks / classic CE marks / classic probabilistic drops.
        self.l4s_marks = 0
        self.classic_marks = 0
        self.classic_drops = 0
        self._lq: Deque[Packet] = deque()
        self._p = 0.0  # base probability p'
        self._prev_qdelay = 0.0
        self._t_update: float | None = None

    # ------------------------------------------------------------------
    # occupancy spans both internal queues
    # ------------------------------------------------------------------
    @property
    def qlen(self) -> int:
        return len(self._queue) + len(self._lq)

    @property
    def is_empty(self) -> bool:
        return not self._queue and not self._lq

    @property
    def base_probability(self) -> float:
        """Current PI base probability ``p'`` (diagnostics)."""
        return self._p

    def peek(self) -> Packet | None:
        if self._lq:
            return self._lq[0]
        return self._queue[0] if self._queue else None

    def clear(self) -> None:
        self._queue.clear()
        self._lq.clear()
        self._bytes = 0

    # ------------------------------------------------------------------
    # PI controller
    # ------------------------------------------------------------------
    def _qdelay(self, now: float) -> float:
        """Instantaneous queueing delay: sojourn time of the oldest head."""
        delay = 0.0
        if self._queue:
            delay = now - self._queue[0].enqueued_at
        if self._lq:
            delay = max(delay, now - self._lq[0].enqueued_at)
        return delay

    def _maybe_update(self, now: float) -> None:
        if self._t_update is None:
            self._t_update = now + self.tupdate
            return
        while now >= self._t_update:
            qdelay = self._qdelay(self._t_update)
            self._p += (self.alpha * (qdelay - self.target) * self.tupdate
                        + self.beta * (qdelay - self._prev_qdelay))
            self._p = min(max(self._p, 0.0), 1.0)
            self._prev_qdelay = qdelay
            if self.trace is not None:
                self.trace.record("aqm", "pi_update", time=self._t_update,
                                  queue=self.name, p=self._p, qdelay=qdelay)
            self._t_update += self.tupdate

    def _is_l4s(self, packet: Packet) -> bool:
        return self.ecn and packet.ecn in (ECN_ECT1, ECN_CE)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        now = self._clock()
        self.stats.observe(now, self.qlen)
        self._maybe_update(now)
        if not self._within_capacity(packet):
            self._count_drop(packet)
            return False
        if self._is_l4s(packet):
            packet.enqueued_at = now
            self._lq.append(packet)
        else:
            p_classic = self._p * self._p
            if p_classic > 0.0 and self.rng.random() < p_classic:
                if self.ecn_classic and self._mark(packet):
                    self.classic_marks += 1
                else:
                    self.classic_drops += 1
                    self._count_drop(packet)
                    return False
            packet.enqueued_at = now
            self._queue.append(packet)
        self._bytes += packet.size_bytes
        self._count_enqueue(packet)
        return True

    def dequeue(self) -> Packet | None:
        if self.is_empty:
            return None
        now = self._clock()
        self.stats.observe(now, self.qlen)
        self._maybe_update(now)
        if self._lq:
            packet = self._lq.popleft()
            self._bytes -= packet.size_bytes
            self._count_dequeue(packet)
            if packet.ecn != ECN_CE:
                sojourn = now - packet.enqueued_at
                p_l4s = min(1.0, self.coupling * self._p)
                if sojourn > self.step_threshold or (
                        p_l4s > 0.0 and self.rng.random() < p_l4s):
                    if self._mark(packet):
                        self.l4s_marks += 1
            return packet
        packet = self._queue.popleft()
        self._bytes -= packet.size_bytes
        self._count_dequeue(packet)
        return packet
