"""Packet queues.

Queues are the "soft components" the paper is about: the sending host's
network interface queue (``txqueuelen``) and router buffers.  Every queue
tracks the occupancy statistics the experiments need (drops, peak and
time-averaged occupancy) without requiring an external tracer.

Three disciplines are provided here:

* :class:`DropTailQueue` — finite FIFO, drop arriving packet when full
  (Linux ``pfifo``; what both the IFQ and the routers in the paper use).
* :class:`REDQueue` — Random Early Detection, used in ablations to show the
  proposed controller does not depend on drop-tail behaviour.
* :class:`InfiniteQueue` — unbounded FIFO for ideal-buffer baselines.

Modern AQM disciplines (CoDel, DualPI2) live in :mod:`repro.net.aqm` and
build on the same :class:`PacketQueue` base.  Queues that support ECN mark
ECN-capable packets (rewrite ECT → CE via :meth:`PacketQueue._mark`)
instead of dropping them; marks are counted separately from drops in
:class:`QueueStats` and never double-counted.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Literal, Optional

import numpy as np

from ..errors import ConfigurationError
from .packet import ECN_CE, Packet, ecn_capable

__all__ = ["QueueStats", "PacketQueue", "DropTailQueue", "REDQueue", "InfiniteQueue"]


class QueueStats:
    """Occupancy and drop statistics maintained by every queue."""

    __slots__ = (
        "enqueued",
        "dequeued",
        "dropped",
        "marked",
        "bytes_enqueued",
        "bytes_dequeued",
        "bytes_dropped",
        "bytes_marked",
        "peak_packets",
        "peak_bytes",
        "_occupancy_integral",
        "_last_change",
    )

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.marked = 0
        self.bytes_enqueued = 0
        self.bytes_dequeued = 0
        self.bytes_dropped = 0
        self.bytes_marked = 0
        self.peak_packets = 0
        self.peak_bytes = 0
        self._occupancy_integral = 0.0
        self._last_change = 0.0

    def observe(self, now: float, qlen: int) -> None:
        """Accumulate the occupancy integral up to ``now``."""
        dt = now - self._last_change
        if dt > 0:
            self._occupancy_integral += qlen * dt
            self._last_change = now

    def mean_occupancy(self, now: float, qlen: int) -> float:
        """Time-averaged occupancy in packets from t=0 to ``now``."""
        if now <= 0:
            return float(qlen)
        return (self._occupancy_integral + qlen * (now - self._last_change)) / now

    def as_dict(self, now: float | None = None, qlen: int = 0) -> dict:
        out = {
            "enqueued": self.enqueued,
            "dequeued": self.dequeued,
            "dropped": self.dropped,
            "marked": self.marked,
            "bytes_enqueued": self.bytes_enqueued,
            "bytes_dequeued": self.bytes_dequeued,
            "bytes_dropped": self.bytes_dropped,
            "bytes_marked": self.bytes_marked,
            "peak_packets": self.peak_packets,
            "peak_bytes": self.peak_bytes,
        }
        if now is not None:
            out["mean_occupancy"] = self.mean_occupancy(now, qlen)
        return out


class PacketQueue:
    """Base FIFO packet queue.

    Subclasses implement :meth:`_admit` to decide whether an arriving packet
    is accepted.  The base class handles FIFO order, byte accounting and
    statistics.  Its :meth:`enqueue` / :meth:`dequeue` read occupancy through
    :attr:`qlen` (and callers use :attr:`is_empty`), never ``_queue``
    directly, so a subclass that holds packets elsewhere (DualPI2's L4S
    queue) overrides those two properties and stays consistent.

    Parameters
    ----------
    capacity_packets:
        Maximum number of queued packets (``None`` = unbounded).
    capacity_bytes:
        Maximum number of queued bytes (``None`` = unbounded).  Both limits
        may be given; a packet must satisfy both to be admitted.
    clock:
        A callable returning the current simulation time; usually the
        simulator's bound :meth:`~repro.sim.engine.Simulator.clock`.
        Queues use it for statistics and sojourn times, so a constant zero
        clock is acceptable in unit tests of drop-tail behaviour.
    """

    def __init__(
        self,
        capacity_packets: Optional[int] = None,
        capacity_bytes: Optional[int] = None,
        clock: Callable[[], float] | None = None,
        name: str = "queue",
    ) -> None:
        if capacity_packets is not None and capacity_packets < 0:
            raise ConfigurationError("capacity_packets must be >= 0 or None")
        if capacity_bytes is not None and capacity_bytes < 0:
            raise ConfigurationError("capacity_bytes must be >= 0 or None")
        self.capacity_packets = capacity_packets
        self.capacity_bytes = capacity_bytes
        self.name = name
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._queue: Deque[Packet] = deque()
        self._bytes = 0
        self.stats = QueueStats()
        #: Optional observers invoked as ``fn(queue, packet)`` on each drop.
        self.drop_listeners: list[Callable[["PacketQueue", Packet], None]] = []
        #: Trace sink for ``queue`` category records.  ``None`` (the
        #: default) keeps the hot path at a single ``is not None`` check;
        #: :class:`repro.net.interface.NetworkInterface` binds the
        #: simulator's recorder here only when tracing is enabled.
        self.trace = None

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.qlen

    @property
    def qlen(self) -> int:
        """Number of packets currently queued."""
        return len(self._queue)

    @property
    def bytes_queued(self) -> int:
        """Number of bytes currently queued."""
        return self._bytes

    @property
    def is_empty(self) -> bool:
        return not self._queue

    @property
    def is_full(self) -> bool:
        """True when one more full-size packet would certainly be rejected.

        A queue is full when either limit is exhausted: the packet count has
        reached ``capacity_packets``, or the queued bytes have reached
        ``capacity_bytes`` (so any further packet, whatever its size, fails
        the byte check in :meth:`_within_capacity`).
        """
        if self.capacity_packets is not None and self.qlen >= self.capacity_packets:
            return True
        if self.capacity_bytes is not None and self._bytes >= self.capacity_bytes:
            return True
        return False

    def occupancy_fraction(self) -> float:
        """Occupancy as a fraction of the packet capacity (0 when unbounded)."""
        if not self.capacity_packets:
            return 0.0
        return self.qlen / self.capacity_packets

    # ------------------------------------------------------------------
    # admission policy (subclass hook)
    # ------------------------------------------------------------------
    def _admit(self, packet: Packet) -> bool:
        """Return True when ``packet`` may be enqueued."""
        raise NotImplementedError

    def _within_capacity(self, packet: Packet) -> bool:
        if self.capacity_packets is not None and self.qlen + 1 > self.capacity_packets:
            return False
        if self.capacity_bytes is not None and self._bytes + packet.size_bytes > self.capacity_bytes:
            return False
        return True

    def _count_drop(self, packet: Packet) -> None:
        """Account one dropped packet and notify drop listeners."""
        self.stats.dropped += 1
        self.stats.bytes_dropped += packet.size_bytes
        if self.trace is not None:
            self.trace.record("queue", "drop", time=self._clock(),
                              queue=self.name, uid=packet.uid,
                              size=packet.size_bytes, qlen=self.qlen)
        for listener in self.drop_listeners:
            listener(self, packet)

    def _count_enqueue(self, packet: Packet) -> None:
        """Account one admitted packet (call after it is physically queued).

        For subclasses that override :meth:`enqueue`; the base method
        inlines the same accounting, so the two must change together.
        """
        self.stats.enqueued += 1
        self.stats.bytes_enqueued += packet.size_bytes
        if self.qlen > self.stats.peak_packets:
            self.stats.peak_packets = self.qlen
        if self._bytes > self.stats.peak_bytes:
            self.stats.peak_bytes = self._bytes
        if self.trace is not None:
            self.trace.record("queue", "enqueue", time=self._clock(),
                              queue=self.name, uid=packet.uid,
                              size=packet.size_bytes, qlen=self.qlen)

    def _count_dequeue(self, packet: Packet) -> None:
        """Account one dequeued packet (call after it physically left).

        For subclasses that override :meth:`dequeue` (see
        :meth:`_count_enqueue`).
        """
        self.stats.dequeued += 1
        self.stats.bytes_dequeued += packet.size_bytes
        if self.trace is not None:
            self.trace.record("queue", "dequeue", time=self._clock(),
                              queue=self.name, uid=packet.uid, qlen=self.qlen)

    def _mark(self, packet: Packet) -> bool:
        """CE-mark ``packet`` if it is ECN-capable; returns True on mark.

        Marking replaces a drop: a marked packet keeps flowing and is never
        also counted in the drop statistics.
        """
        if not ecn_capable(packet):
            return False
        packet.ecn = ECN_CE
        self.stats.marked += 1
        self.stats.bytes_marked += packet.size_bytes
        if self.trace is not None:
            self.trace.record("queue", "mark", time=self._clock(),
                              queue=self.name, uid=packet.uid, qlen=self.qlen)
        return True

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def enqueue(self, packet: Packet) -> bool:
        """Try to enqueue ``packet``; returns False (and counts a drop) on failure."""
        # QueueStats.observe and _count_enqueue, inlined: this runs once per
        # packet-hop.  Occupancy is read through ``qlen`` so subclasses that
        # keep packets outside ``_queue`` stay correct.
        now = self._clock()
        stats = self.stats
        dt = now - stats._last_change
        if dt > 0:
            stats._occupancy_integral += self.qlen * dt
            stats._last_change = now
        if not self._admit(packet):
            self._count_drop(packet)
            return False
        packet.enqueued_at = now
        self._queue.append(packet)
        size = packet.size_bytes
        self._bytes += size
        stats.enqueued += 1
        stats.bytes_enqueued += size
        qlen = self.qlen
        if qlen > stats.peak_packets:
            stats.peak_packets = qlen
        if self._bytes > stats.peak_bytes:
            stats.peak_bytes = self._bytes
        if self.trace is not None:
            self.trace.record("queue", "enqueue", time=now,
                              queue=self.name, uid=packet.uid,
                              size=size, qlen=qlen)
        return True

    def dequeue(self) -> Packet | None:
        """Remove and return the head-of-line packet (or None when empty)."""
        queue = self._queue
        if not queue:
            return None
        # QueueStats.observe and _count_dequeue, inlined (see enqueue)
        now = self._clock()
        stats = self.stats
        dt = now - stats._last_change
        if dt > 0:
            stats._occupancy_integral += self.qlen * dt
            stats._last_change = now
        packet = queue.popleft()
        size = packet.size_bytes
        self._bytes -= size
        stats.dequeued += 1
        stats.bytes_dequeued += size
        if self.trace is not None:
            self.trace.record("queue", "dequeue", time=now,
                              queue=self.name, uid=packet.uid, qlen=self.qlen)
        return packet

    def pass_through(self, packet: Packet) -> Packet | None | Literal[False]:
        """Admit ``packet`` and dequeue the head at once.

        What an idle interface does with an arriving packet: :meth:`enqueue`
        then :meth:`dequeue`, so an AQM takes every decision it takes on
        that path.  The queue is almost always empty then, and the packet
        passes straight through.  Returns ``False`` when the queue rejected
        the packet, else what :meth:`dequeue` returned (``None`` when an AQM
        dropped the head).
        """
        if not self.enqueue(packet):
            return False
        return self.dequeue()

    def peek(self) -> Packet | None:
        """Head-of-line packet without removing it."""
        return self._queue[0] if self._queue else None

    def clear(self) -> None:
        """Drop everything currently queued (not counted as drops)."""
        self._queue.clear()
        self._bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = self.capacity_packets if self.capacity_packets is not None else "inf"
        return f"<{type(self).__name__} {self.name} {self.qlen}/{cap}>"


class DropTailQueue(PacketQueue):
    """Finite FIFO that drops arriving packets when full (Linux ``pfifo``)."""

    def __init__(
        self,
        capacity_packets: int,
        capacity_bytes: Optional[int] = None,
        clock: Callable[[], float] | None = None,
        name: str = "droptail",
    ) -> None:
        if capacity_packets is None or capacity_packets <= 0:
            raise ConfigurationError("DropTailQueue needs a positive packet capacity")
        super().__init__(capacity_packets, capacity_bytes, clock, name)

    def _admit(self, packet: Packet) -> bool:
        # _within_capacity, inlined; drop-tail keeps every packet in
        # ``_queue`` and does not override ``qlen``, so it may count there
        if len(self._queue) + 1 > self.capacity_packets:  # type: ignore[operator]
            return False
        capacity_bytes = self.capacity_bytes
        return capacity_bytes is None or self._bytes + packet.size_bytes <= capacity_bytes

    def pass_through(self, packet: Packet) -> Packet | None | Literal[False]:
        """:meth:`PacketQueue.pass_through` without the deque round trip.

        On the empty queue the counters, peaks and occupancy integral move
        exactly as ``enqueue`` then ``dequeue`` would move them.  A
        non-empty queue, or tracing (which emits the ``queue`` records),
        takes the general path.
        """
        if self._queue or self.trace is not None:
            return super().pass_through(packet)
        now = self._clock()
        stats = self.stats
        if now > stats._last_change:
            # the empty queue adds nothing to the integral up to now
            stats._last_change = now
        size = packet.size_bytes
        capacity_bytes = self.capacity_bytes
        if capacity_bytes is not None and self._bytes + size > capacity_bytes:
            # _admit on the empty queue: the packet limit is at least one
            self._count_drop(packet)
            return False
        packet.enqueued_at = now
        stats.enqueued += 1
        stats.bytes_enqueued += size
        stats.dequeued += 1
        stats.bytes_dequeued += size
        if stats.peak_packets < 1:
            stats.peak_packets = 1
        if self._bytes + size > stats.peak_bytes:
            stats.peak_bytes = self._bytes + size
        return packet


class InfiniteQueue(PacketQueue):
    """Unbounded FIFO (ideal buffer baseline)."""

    def __init__(self, clock: Callable[[], float] | None = None, name: str = "infinite") -> None:
        super().__init__(None, None, clock, name)

    def _admit(self, packet: Packet) -> bool:
        return True


class REDQueue(PacketQueue):
    """Random Early Detection queue (Floyd & Jacobson 1993, "gentle" variant).

    Used in ablation experiments; the IFQ in the paper is drop-tail, but RED
    routers let us check that restricted slow-start does not rely on
    drop-tail bottlenecks.

    Parameters
    ----------
    min_threshold, max_threshold:
        Average-queue thresholds (packets) between which the drop
        probability ramps from 0 to ``max_p``; above ``max_threshold`` the
        gentle variant ramps from ``max_p`` to 1 at ``2 * max_threshold``.
    weight:
        EWMA weight for the average queue size.
    rng:
        ``numpy.random.Generator`` used for the drop coin flips.  Required
        (keyword-only, no default — the signature, not a runtime raise,
        enforces the contract): compiled queues receive a named stream from
        the run's seeded :mod:`repro.sim.randomness` hierarchy (e.g.
        ``sim.rng("aqm:...")``) so drop decisions follow the experiment
        seed.
    ecn:
        When True, early "drops" on ECN-capable packets become CE marks
        (RFC 3168): the packet is admitted and counted in
        ``stats.marked``/``early_marks`` instead.  Forced drops (physical
        overflow) and the region above ``max_threshold`` still drop.
    mean_pkt_time:
        Typical transmission time of one packet on the outgoing link
        (seconds).  Used for the Floyd & Jacobson idle-period correction:
        after the queue has sat empty for ``m = idle / mean_pkt_time``
        packet times, the average decays by ``(1 - weight) ** m`` as if
        ``m`` small packets had arrived at an empty queue.
    """

    def __init__(
        self,
        capacity_packets: int,
        min_threshold: float,
        max_threshold: float,
        max_p: float = 0.1,
        weight: float = 0.002,
        *,
        rng: np.random.Generator,
        clock: Callable[[], float] | None = None,
        name: str = "red",
        ecn: bool = False,
        mean_pkt_time: float = 0.001,
    ) -> None:
        if not (0 < min_threshold < max_threshold <= capacity_packets):
            raise ConfigurationError(
                "RED thresholds must satisfy 0 < min < max <= capacity"
            )
        if not (0.0 < max_p <= 1.0):
            raise ConfigurationError("max_p must be in (0, 1]")
        if not (0.0 < weight <= 1.0):
            raise ConfigurationError("weight must be in (0, 1]")
        if mean_pkt_time <= 0.0:
            raise ConfigurationError("mean_pkt_time must be > 0")
        super().__init__(capacity_packets, None, clock, name)
        self.min_threshold = float(min_threshold)
        self.max_threshold = float(max_threshold)
        self.max_p = float(max_p)
        self.weight = float(weight)
        self.rng = rng
        self.ecn = bool(ecn)
        self.mean_pkt_time = float(mean_pkt_time)
        self.avg = 0.0
        self.early_drops = 0
        self.early_marks = 0
        self.forced_drops = 0
        self._idle_since: float | None = None

    def dequeue(self) -> Packet | None:
        packet = super().dequeue()
        if packet is not None and not self._queue:
            # queue just went idle: remember when, so the next arrival can
            # apply the Floyd & Jacobson idle-period decay to the average
            self._idle_since = self._clock()
        return packet

    def _admit(self, packet: Packet) -> bool:
        if self._idle_since is not None:
            idle = self._clock() - self._idle_since
            if idle > 0:
                m = idle / self.mean_pkt_time
                self.avg *= (1.0 - self.weight) ** m
            self._idle_since = None
        # update the EWMA of the queue size on each arrival
        self.avg = (1.0 - self.weight) * self.avg + self.weight * len(self._queue)
        if not self._within_capacity(packet):
            self.forced_drops += 1
            return False
        if self.avg < self.min_threshold:
            return True
        if self.avg < self.max_threshold:
            p = self.max_p * (self.avg - self.min_threshold) / (
                self.max_threshold - self.min_threshold
            )
        elif self.avg < 2.0 * self.max_threshold:
            # "gentle" RED region
            p = self.max_p + (1.0 - self.max_p) * (self.avg - self.max_threshold) / (
                self.max_threshold
            )
        else:
            p = 1.0
        if self.rng.random() < p:
            # RFC 3168: mark instead of drop in the early region only
            if self.ecn and self.avg < self.max_threshold and self._mark(packet):
                self.early_marks += 1
                return True
            self.early_drops += 1
            return False
        return True
