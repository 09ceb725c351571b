"""Per-RTT fluid (difference-equation) model of a single bulk TCP flow.

The packet-level engine processes every segment, ACK and queue operation as
a discrete event — millions of events for one 25 s run on the paper's path.
For parameter sweeps (the dominant cost of the IFQ/RTT/bandwidth ablations)
that fidelity is wasted: the quantities the experiments report (goodput,
send-stall counts, IFQ peaks) are governed by per-round-trip window
arithmetic.  This module integrates exactly that arithmetic directly, one
round trip at a time, so a 25 s run costs thousands of arithmetic steps
instead of millions of events.

Model
-----
Let ``W`` be the congestion window (segments), ``pipe`` the path
bandwidth-delay product (segments) and ``cap`` the sender IFQ capacity
(packets).  Because the sender NIC runs at the bottleneck rate (the paper's
testbed), the interface queue is where both the slow-start burst *and* the
standing queue live.  Per round trip:

* **goodput** — ``A = min(W, pipe)`` segments are acknowledged;
* **growth**  — the congestion-control rule grants ``ΔW`` additional
  segments over the round (``ΔW = A`` in standard slow-start, ``A/W`` in
  congestion avoidance, the PID output for restricted slow-start, ``A/K``
  for RFC 3742 limited slow-start);
* **IFQ occupancy** — every granted segment is injected above the ACK
  clock, so the within-round occupancy peak is the carried occupancy plus
  the cumulative growth; at the end of the round the spare NIC capacity
  ``max(pipe - W, 0)`` drains the burst back down to the standing queue
  ``clamp(W - pipe, 0, cap)``;
* **send-stall** — the occupancy crossing ``cap`` is a send-stall; under the
  stock policy (``TREAT_AS_CONGESTION``) the window collapses to half the
  flight size and growth freezes for one round (the CWR episode), exactly
  mirroring :meth:`repro.tcp.cc.base.CongestionControl.on_local_congestion`;
* **network loss** — a standing queue beyond the IFQ plus the router buffer
  overflows the bottleneck; the model reacts like one fast-retransmit
  (halve, freeze one round).

Growth is applied in sub-round chunks so that the restricted-slow-start
controller — the packet engine's :class:`repro.control.pid.PIDController`
recurrence, fed the modelled occupancy fraction — samples the occupancy ramp
at a resolution comparable to the packet-level ACK clock.

The model is deterministic by construction (pure arithmetic, no random
streams): ``seed`` is carried through to results for interface parity with
the packet backend but does not influence the dynamics.

Cost
----
The chunk loop is the cost of every fluid sweep and campaign.  A round
runs at most ``_MAX_CHUNKS`` (256) chunks.  :class:`RestrictedFluid` runs the
PID recurrence on its own state instead of calling
:meth:`~repro.control.pid.PIDController.update`, with the anti-windup
branch and bounds resolved when the rule is built; a differential test
(``tests/fluid/test_restricted_recurrence.py``) pins
:meth:`RestrictedFluid.increment` to the controller bit for bit.

:class:`FluidFlowModel`'s loop keeps the window, ``ssthresh``, the queue and
the highest chunk queue in locals and writes them back to the model when it
ends; the step count and the IFQ peak are settled once per round.  When the
rule is exactly a :class:`RestrictedFluid` (the paper's algorithm, most of
the chunks of a campaign), a restricted chunk makes no call: the loop runs
the rule's recurrence on locals, loading its constants and its integral and
previous occupancy once per round (``tests/fluid/test_restricted_inline.py``
pins it to ``increment`` bit for bit).  Every other rule, subclasses
included, is called once per chunk below ``ssthresh``.  Mid-loop only a
stall reduction reads or writes model or rule state, so the window, the
queue and the controller state are written back before one and the window,
``ssthresh`` and the controller state reloaded after it.
:class:`FluidMultiFlowModel`'s round keeps the same
discipline per flow: the allocator's shares, the IFQ queues and peaks and
the per-IFQ drains live in per-round lists, the growth of each chunk runs
inline, and a flow's window is written back to it as it grows, so a stall
reduction sees it.  Both rely on the :meth:`FluidGrowthRule.increment`
contract: a rule sees the model only through its arguments.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from ..core.config import RestrictedSlowStartConfig
from ..errors import ConfigurationError, ControlError, ExperimentError
from ..metrics import FlowRecord, PopulationSummary, SummaryAccumulator
from ..obs.trace import active_trace_bus
from ..tcp.options import TCPOptions
from ..tcp.state import LocalCongestionPolicy
from ..workloads.scenarios import PathConfig

__all__ = [
    "FluidGrowthRule",
    "RenoFluid",
    "LimitedSlowStartFluid",
    "RestrictedFluid",
    "FluidRunResult",
    "FluidFlowModel",
    "fluid_growth_rule",
    "FLUID_ALGORITHMS",
]

#: Tolerance below the IFQ capacity at which an occupancy crossing counts as
#: a stall (the packet queue rejects the segment that would exceed ``cap``).
_STALL_EPS = 1e-9

#: Noise margin on the sustained-queue rejection boundary: the regulated
#: equilibrium asymptotes to the set point from below, so a small margin
#: keeps floating-point creep from reading as a boundary crossing while a
#: genuine crossing (whole packets) still registers decisively.
_SUSTAIN_MARGIN = 0.25

#: Hard bound on sub-round growth chunks per round (keeps the restricted
#: controller's cost bounded on huge windows).
_MAX_CHUNKS = 256

#: Lower bound on sub-round chunks (even coarse rules sample a few times).
_MIN_CHUNKS = 4


# ---------------------------------------------------------------------------
# growth rules
# ---------------------------------------------------------------------------

class FluidGrowthRule:
    """Window-growth rule evaluated on acknowledged-segment chunks.

    Subclasses implement :meth:`increment`, returning the window increment
    (segments, may be negative for trimming controllers) granted for a chunk
    of ``acked`` acknowledged segments while the congestion window is below
    ``ssthresh``.  Congestion-avoidance growth above ``ssthresh`` is shared
    Reno arithmetic handled by the model itself.
    """

    #: Registry name of the packet-level algorithm this rule mirrors.
    name = "base"

    def increment(self, acked: float, cwnd: float, occupancy_fraction: float,
                  capacity: int, dt: float) -> float:
        """Window increment granted for one chunk of ``acked`` segments.

        A rule receives everything it needs as arguments and must never
        read or write the model's state: the models keep that state in
        locals for the whole chunk loop, so a rule reading it would see
        stale values and a rule writing it would be overwritten.
        """
        raise NotImplementedError

    def grain(self, capacity: int) -> float:
        """Preferred acknowledged-segment chunk size for occupancy sampling.

        Rules that do not sense the queue can integrate a whole round in a
        few coarse chunks (stall crossings are resolved exactly either way);
        queue-sensing rules override this to sample finely.

        The grain is a property of the rule's *configuration*, not of its
        running state: :class:`FluidMultiFlowModel` and
        :class:`~repro.fluid.vector.FluidPopulationModel` read it once per
        flow when the model is built and never again.
        """
        return math.inf

    def sustained_queue_ceiling(self, capacity: int) -> float | None:
        """Level a queue-sensing rule pins the sustained occupancy at.

        ``None`` means unregulated growth (the queue creeps until it hits
        the rejection boundary).  The restricted controller's hard guard
        pins the sustained queue at the set point, which decides — as a
        property of the *configuration* — whether delayed-ACK bursts on top
        of the regulated queue can ever overrun the capacity.
        :class:`FluidMultiFlowModel` reads it once per flow when the model
        is built.
        """
        return None

    def on_reduction(self) -> None:
        """A window reduction happened (stall, loss or timeout).

        It must do nothing for a rule whose :meth:`increment` has not run
        since the rule was built or since its last ``on_reduction``:
        :class:`~repro.fluid.vector.FluidPopulationModel` skips the call
        for such rules.  :class:`RestrictedFluid` qualifies, because its
        reset restores exactly the state it was built with.
        """


class RenoFluid(FluidGrowthRule):
    """Standard slow-start: one segment per acknowledged segment."""

    name = "reno"

    def increment(self, acked: float, cwnd: float, occupancy_fraction: float,
                  capacity: int, dt: float) -> float:
        return acked


class LimitedSlowStartFluid(FluidGrowthRule):
    """RFC 3742: growth throttled to ``max_ssthresh / 2`` per round."""

    name = "limited_slow_start"

    def __init__(self, max_ssthresh_segments: float = 100.0) -> None:
        if max_ssthresh_segments <= 0:
            raise ConfigurationError("max_ssthresh_segments must be positive")
        self.max_ssthresh = float(max_ssthresh_segments)

    def increment(self, acked: float, cwnd: float, occupancy_fraction: float,
                  capacity: int, dt: float) -> float:
        if cwnd <= self.max_ssthresh:
            return acked
        k = max(int(cwnd / (0.5 * self.max_ssthresh)), 1)
        return acked / k


class RestrictedFluid(FluidGrowthRule):
    """The paper's PID-restricted slow-start on the fluid occupancy.

    The rule runs the recurrence of the packet-level algorithm's
    :class:`~repro.control.pid.PIDController` itself, fed the fluid
    occupancy fraction, so gains tuned for one backend are directly
    meaningful in the other.  Its state (the integral and the previous,
    optionally filtered, occupancy) lives on the rule, and the recurrence is
    specialised at construction to the controller every
    :class:`RestrictedSlowStartConfig` builds: both output bounds set and
    back-calculation anti-windup with the tracking time ``kp / ki``.  Every
    operation is the controller's, in the controller's order, so the output
    equals ``PIDController.update``'s bit for bit
    (``tests/fluid/test_restricted_recurrence.py``).

    :meth:`FluidFlowModel._run_round` runs a copy of :meth:`increment`
    inline for a rule of exactly this class; a change to one must be made
    to the other (``tests/fluid/test_restricted_inline.py`` compares them).
    """

    name = "restricted"

    def __init__(self, config: RestrictedSlowStartConfig | None = None,
                 ack_quantum: float = 2.0) -> None:
        self.config = config if config is not None else RestrictedSlowStartConfig()
        #: Segments acknowledged per delayed ACK: the packet-level controller
        #: cannot react on a finer granularity, so neither should the model —
        #: this is what lets the fluid backend reproduce the stalls the real
        #: controller suffers when the set-point headroom shrinks below one
        #: ACK's worth of growth (tiny IFQs).
        self.ack_quantum = float(ack_quantum)
        # the config is frozen: resolve the recurrence's constants once
        config = self.config
        gains = config.resolved_gains()
        self._kp = gains.kp
        self._ki = gains.ki
        self._kd = gains.kd
        self._tau = float(config.derivative_filter_tau)
        self._out_min = config.min_increment_per_ack
        self._out_max = config.max_increment_per_ack
        #: back-calculation tracking time Tt = kp / ki, ``None`` when the
        #: integral takes no correction (ki = 0, or Tt zero or infinite)
        tt = gains.kp / gains.ki if gains.ki > 0.0 else 0.0
        self._tt = tt if tt > 0 and tt != math.inf else None
        self._setpoint = float(config.setpoint_fraction)
        self._guard = config.hard_setpoint_guard
        self._integral = 0.0
        #: previous (filtered) occupancy; ``None`` until the first update
        self._last: float | None = None

    def grain(self, capacity: int) -> float:
        # Sample the occupancy ramp at roughly the resolution of the set
        # point's headroom so the guard and the derivative term engage
        # before a saturated controller can push the queue from below the
        # set point past the capacity in a single chunk.
        headroom = max((1.0 - self.config.setpoint_fraction) * capacity, 1.0)
        return max(headroom / 2.0, 1.0)

    def increment(self, acked: float, cwnd: float, occupancy_fraction: float,
                  capacity: int, dt: float) -> float:
        if dt <= 0:
            raise ControlError(f"dt must be positive, got {dt!r}")
        pv = occupancy_fraction
        error = self._setpoint - pv
        p_term = self._kp * error

        # derivative on the measurement, optionally filtered
        last = self._last
        if last is None:
            filtered = pv
            d_term = 0.0
        else:
            tau = self._tau
            if tau > 0:
                filtered = last + dt / (tau + dt) * (pv - last)
            else:
                filtered = pv
            kd = self._kd
            # repro: allow[REP003] kd is a configured gain, not a computed value; 0.0 disables the term as in PIDController
            d_term = 0.0 if kd == 0.0 else -kd * (filtered - last) / dt
        self._last = filtered

        # integral with back-calculation anti-windup
        integral = self._integral + self._ki * error * dt
        unsaturated = p_term + integral + d_term
        out_max = self._out_max
        out_min = self._out_min
        if out_min <= unsaturated <= out_max:
            # linear region: the correction is zero and the output is
            # ``unsaturated`` (the integral is never -0.0, so adding the
            # zero correction would not change a bit)
            output = unsaturated
        else:
            saturated = out_max if unsaturated > out_max else out_min
            tt = self._tt
            if tt is not None:
                integral += (saturated - unsaturated) * dt / tt
            output = p_term + integral + d_term
            if output > out_max:
                output = out_max
            elif output < out_min:
                output = out_min
        self._integral = integral

        guard = self._guard
        if guard and pv >= self._setpoint and output > 0.0:
            output = 0.0
        delta = output * acked
        if guard and delta > 0.0 and capacity > 0:
            # The packet-level controller re-evaluates every delayed ACK, so
            # it can overshoot the set-point boundary by at most one ACK's
            # grant before the guard engages.  Bound the coarser fluid chunk
            # the same way, or a saturated controller could leap from below
            # the set point straight past it in a single chunk.
            headroom = (self._setpoint - pv) * capacity
            if headroom < 0.0:
                headroom = 0.0
            bound = headroom + output * self.ack_quantum
            if bound < delta:
                delta = bound
        return delta

    def sustained_queue_ceiling(self, capacity: int) -> float | None:
        if not self.config.hard_setpoint_guard:
            return None
        return self.config.setpoint_fraction * capacity

    def on_reduction(self) -> None:
        if self.config.reset_integral_on_congestion:
            self._integral = 0.0
            self._last = None


#: Fluid growth rules by packet-registry algorithm name.  ``newreno`` maps
#: onto the Reno rule: the two differ only in loss recovery, which the fluid
#: abstraction collapses into a single halve-and-freeze reaction.
FLUID_ALGORITHMS = {
    "reno": RenoFluid,
    "newreno": RenoFluid,
    "limited_slow_start": LimitedSlowStartFluid,
    "restricted": RestrictedFluid,
}


def fluid_growth_rule(cc: str, config: PathConfig,
                      cc_kwargs: dict | None = None,
                      rss_config: RestrictedSlowStartConfig | None = None) -> FluidGrowthRule:
    """Build the fluid growth rule mirroring packet algorithm ``cc``."""
    try:
        rule_cls = FLUID_ALGORITHMS[cc]
    except KeyError:
        raise ExperimentError(
            f"the fluid backend does not model {cc!r}; "
            f"supported: {sorted(FLUID_ALGORITHMS)} (use backend='packet')"
        ) from None
    if rule_cls is RestrictedFluid:
        rss = rss_config if rss_config is not None else RestrictedSlowStartConfig.for_path(config.rtt)
        quantum = float(config.tcp_options().delack_segments)
        return RestrictedFluid(rss, ack_quantum=quantum)
    return rule_cls(**(cc_kwargs or {}))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass
class FluidRunResult:
    """Raw series and counters produced by :meth:`FluidFlowModel.run`."""

    config: PathConfig
    algorithm: str
    duration: float
    seed: int
    times: np.ndarray
    cwnd_segments: np.ndarray
    ifq_occupancy: np.ndarray
    acked_bytes: np.ndarray
    bytes_acked: int
    goodput_bps: float
    ifq_peak: float
    send_stalls: int
    stall_times: list[float] = field(default_factory=list)
    congestion_signals: int = 0
    fast_retransmits: int = 0
    other_reductions: int = 0
    pkts_retrans: int = 0
    final_cwnd: float = 0.0
    final_ssthresh: float = math.inf
    max_cwnd: float = 0.0
    completion_time: float | None = None
    steps: int = 0


# ---------------------------------------------------------------------------
# the model
# ---------------------------------------------------------------------------

class FluidFlowModel:
    """Difference-equation integrator for one bulk flow on a dumbbell path.

    Parameters
    ----------
    config:
        Path parameters (same :class:`PathConfig` the packet backend uses).
    rule:
        Slow-start growth rule (see :func:`fluid_growth_rule`).
    options:
        Endpoint options; defaults to ``config.tcp_options()`` exactly like
        the packet scenario builder.
    seed:
        Recorded in the result for interface parity; the fluid model is
        deterministic and does not consume random numbers.
    start_time:
        Simulation time at which the sender application starts (the fluid
        counterpart of the :class:`~repro.host.apps.BulkSenderApp` start
        hook behind ``FlowSpec.start_time``): the handshake round trip
        begins here and data flows one RTT later.  Goodput is measured over
        the *active* part of the transfer — since ``start_time``, exactly
        like the packet application's accounting.
    stop_time:
        Simulation time at which the sender stops offering new data (the
        fluid counterpart of the :class:`~repro.host.apps.BulkSenderApp`
        stop hook behind ``FlowSpec.duration``); the transfer counts as
        completed at that instant.  ``None`` sends for the whole run.
    """

    def __init__(
        self,
        config: PathConfig,
        rule: FluidGrowthRule,
        options: TCPOptions | None = None,
        seed: int = 1,
        total_bytes: int | None = None,
        start_time: float = 0.0,
        stop_time: float | None = None,
    ) -> None:
        self.config = config
        self.rule = rule
        self.options = options if options is not None else config.tcp_options()
        self.seed = int(seed)
        self.total_bytes = total_bytes
        if start_time < 0:
            raise ExperimentError("start_time must be >= 0")
        self.start_time = float(start_time)
        if stop_time is not None and stop_time <= start_time:
            raise ExperimentError("stop_time must be after start_time or None")
        self.stop_time = stop_time

        self.pipe = config.bdp_packets
        self.capacity = int(config.ifq_capacity_packets)
        self.router_buffer = int(config.router_buffer_packets)
        self.rwnd_segments = self.options.rwnd_bytes / self.options.mss
        self.mss = self.options.mss
        #: Transient queue excursion above the fluid occupancy caused by
        #: delayed-ACK re-clocking bursts: each ACK releases
        #: ``delack_segments`` back-to-back segments, momentarily parking
        #: ``delack_segments - 1`` extra packets in the IFQ.  A standing
        #: queue within this margin of the capacity stalls in the packet
        #: engine even when the controller grants no growth at all.
        self.ack_jitter = max(float(self.options.delack_segments) - 1.0, 0.0)

        # --- dynamic state ------------------------------------------------
        self.cwnd = float(self.options.initial_cwnd_segments)
        if self.options.initial_ssthresh_segments is None:
            self.ssthresh = math.inf
        else:
            self.ssthresh = float(self.options.initial_ssthresh_segments)
        self.queue = 0.0
        self.bytes_acked = 0
        self.freeze_rounds = 0
        self.steps = 0

        # --- counters -----------------------------------------------------
        self.send_stalls = 0
        self.stall_times: list[float] = []
        self.congestion_signals = 0
        self.fast_retransmits = 0
        self.other_reductions = 0
        self.pkts_retrans = 0
        self.ifq_peak = 0.0
        self.max_cwnd = self.cwnd
        self.completion_time: float | None = None

    # ------------------------------------------------------------------
    @property
    def window(self) -> float:
        """Effective send window (segments)."""
        return min(self.cwnd, self.rwnd_segments)

    def _flight_segments(self) -> float:
        """Data in flight when the IFQ saturates (pipe plus queued excess)."""
        return min(self.window, self.pipe + min(self.queue, float(self.capacity)))

    def _standing_queue(self) -> float:
        """Steady-state IFQ occupancy implied by the current window."""
        return min(max(self.window - self.pipe, 0.0), float(self.capacity))

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def _reduce_on_stall(self, now: float) -> None:
        """Stock reaction to a send-stall (``on_local_congestion`` + CWR)."""
        self.send_stalls += 1
        self.stall_times.append(now)
        policy = self.options.local_congestion_policy
        if policy == LocalCongestionPolicy.TREAT_AS_CONGESTION:
            flight = self._flight_segments()
            self.ssthresh = max(flight / 2.0, 2.0)
            self.cwnd = max(self.ssthresh, 1.0)
            self.other_reductions += 1
            self.freeze_rounds = 1
            self.rule.on_reduction()
        elif policy == LocalCongestionPolicy.CLAMP_ONLY:
            self.cwnd = max(min(self.cwnd, self._flight_segments() + 1.0), 1.0)
            self.other_reductions += 1
            self.rule.on_reduction()
        # LocalCongestionPolicy.IGNORE: no window reaction; the queue simply
        # saturates and the surplus growth is discarded.

    def _reduce_on_loss(self) -> None:
        """Bottleneck overflow: one fast-retransmit episode (halve, freeze)."""
        self.congestion_signals += 1
        self.fast_retransmits += 1
        self.pkts_retrans += 1
        flight = self._flight_segments()
        self.ssthresh = max(flight / 2.0, 2.0)
        self.cwnd = max(self.ssthresh, 1.0)
        self.freeze_rounds = 1
        self.rule.on_reduction()

    # ------------------------------------------------------------------
    # one round
    # ------------------------------------------------------------------
    def _run_round(self, now: float, rtt: float, fraction: float = 1.0) -> float:
        """Advance one (possibly partial) round trip; returns acked segments."""
        window = self.window
        span = rtt * fraction
        full_round = min(window, self.pipe) * fraction
        acked_segments = full_round
        if self.total_bytes is not None:
            remaining = max(self.total_bytes - self.bytes_acked, 0) / self.mss
            acked_segments = min(acked_segments, remaining)
        if acked_segments <= 0.0:
            return 0.0

        stalled = False
        frozen = self.freeze_rounds > 0
        if frozen:
            # CWR / recovery episode: the window is frozen for this round
            self.freeze_rounds -= 1
        else:
            grain = self.rule.grain(self.capacity)
            if math.isfinite(grain) and grain > 0:
                chunks = int(math.ceil(acked_segments / grain))
            else:
                chunks = _MIN_CHUNKS
            chunks = min(max(chunks, _MIN_CHUNKS), _MAX_CHUNKS)
            chunk = acked_segments / chunks
            dt = span / chunks

            # loop invariants and the state the chunks advance, in locals
            # (see Cost in the module docstring)
            rule = self.rule
            increment = rule.increment
            capacity = self.capacity
            cap = float(capacity)
            stall_level = capacity - _STALL_EPS
            floor = max(1.0, float(self.options.initial_cwnd_segments))
            ignore_stalls = (self.options.local_congestion_policy
                             == LocalCongestionPolicy.IGNORE)
            cwnd = self.cwnd
            ssthresh = self.ssthresh
            queue = self.queue
            queue_peak = 0.0
            max_cwnd = self.max_cwnd

            # RestrictedFluid.increment's recurrence, run below on these
            # locals (a subclass may override it, so only the exact type
            # qualifies; a non-positive dt takes the call, which raises).
            # Each hoisted operation is one Python evaluates first in its
            # expression, so every result is bit-identical to the call.
            inline = type(rule) is RestrictedFluid and dt > 0
            if inline:
                kp = rule._kp
                ki = rule._ki
                kd = rule._kd
                neg_kd = -kd
                filter_gain = dt / (rule._tau + dt) if rule._tau > 0 else None
                out_min = rule._out_min
                out_max = rule._out_max
                tt = rule._tt
                setpoint = rule._setpoint
                guard = rule._guard
                bound_chunk = guard and capacity > 0
                quantum = rule.ack_quantum
                integral = rule._integral
                last = rule._last
            for i in range(chunks):
                # One chunk of window growth.  ``injected`` is the net packets
                # sent above the ACK clock (the IFQ burst contribution;
                # negative when a trimming controller lets the queue drain).
                before = cwnd
                if cwnd < ssthresh:
                    pv = queue / capacity if capacity else 0.0
                    if inline:
                        error = setpoint - pv
                        p_term = kp * error
                        if last is None:
                            filtered = pv
                            d_term = 0.0
                        else:
                            if filter_gain is None:
                                filtered = pv
                            else:
                                filtered = last + filter_gain * (pv - last)
                            # repro: allow[REP003] kd is a configured gain, not a computed value; 0.0 disables the term as in PIDController
                            d_term = 0.0 if kd == 0.0 else neg_kd * (filtered - last) / dt
                        last = filtered
                        integral = integral + ki * error * dt
                        unsaturated = p_term + integral + d_term
                        if out_min <= unsaturated <= out_max:
                            output = unsaturated
                        else:
                            saturated = out_max if unsaturated > out_max else out_min
                            if tt is not None:
                                integral += (saturated - unsaturated) * dt / tt
                            output = p_term + integral + d_term
                            if output > out_max:
                                output = out_max
                            elif output < out_min:
                                output = out_min
                        if guard and pv >= setpoint and output > 0.0:
                            output = 0.0
                        delta = output * chunk
                        if bound_chunk and delta > 0.0:
                            headroom = (setpoint - pv) * capacity
                            if headroom < 0.0:
                                headroom = 0.0
                            bound = headroom + output * quantum
                            if bound < delta:
                                delta = bound
                    else:
                        delta = increment(chunk, cwnd, pv, capacity, dt)
                    if delta < 0.0:
                        # trimming controller: pull the window back (restricted
                        # slow-start holding the standing queue at the set
                        # point); the withheld injection lets the queue drain
                        # by the same amount
                        cwnd += delta
                        if cwnd < floor:
                            cwnd = floor
                        injected = cwnd - before
                    else:
                        cwnd += delta
                        if cwnd > ssthresh:
                            # finish slow-start exactly at ssthresh, remainder
                            # grows linearly (the RenoCC crossover rule)
                            cwnd = ssthresh + (cwnd - ssthresh) / max(ssthresh, 1.0)
                        if cwnd > max_cwnd:
                            max_cwnd = cwnd
                        injected = cwnd - before
                        if injected < 0.0:
                            injected = 0.0
                else:
                    # congestion avoidance: ~one segment per round trip
                    cwnd += chunk / (1.0 if cwnd < 1.0 else cwnd)
                    if cwnd > max_cwnd:
                        max_cwnd = cwnd
                    injected = cwnd - before
                    if injected < 0.0:
                        injected = 0.0

                queue += injected
                if queue < 0.0:
                    queue = 0.0
                if queue > queue_peak:
                    queue_peak = queue
                # A growth burst overrunning the whole queue is an enqueue
                # rejection.  (A persistent near-full queue is the second
                # rejection mode; it is checked on the end-of-round sustained
                # level below, so transient grant spikes the trim immediately
                # pulls back do not count.)
                if queue > stall_level:
                    if queue > cap:
                        queue = cap
                    self.cwnd = cwnd
                    self.queue = queue
                    if inline:
                        rule._integral = integral
                        rule._last = last
                    self._reduce_on_stall(now + dt * (i + 1))
                    # reload: the IGNORE policy keeps looping
                    cwnd = self.cwnd
                    ssthresh = self.ssthresh
                    if inline:
                        integral = rule._integral
                        last = rule._last
                    stalled = True
                    if not ignore_stalls:
                        break
            if stalled and ignore_stalls and queue > cap:
                # surplus growth was discarded at the full queue
                queue = cap
            if inline:
                rule._integral = integral
                rule._last = last
            self.cwnd = cwnd
            self.queue = queue
            # The chunk peak is the highest chunk queue plus the delayed-ACK
            # jitter, capped at the IFQ: both steps are monotone, so applying
            # them once to the maximum equals applying them to every chunk.
            peak = queue_peak + self.ack_jitter
            if peak > cap:
                peak = cap
            if peak > self.ifq_peak:
                self.ifq_peak = peak
            self.max_cwnd = max_cwnd
            self.steps += i + 1  # chunks run: a stall can end the loop early

        # End of round: excess occupancy relaxes toward the standing level
        # the window implies.  With the NIC at the bottleneck rate the fluid
        # queue obeys  q̇ = (C/pipe)·((W − q) − pipe),  i.e. exponential
        # relaxation toward ``W − pipe`` with a one-round-trip time
        # constant: bursts drain fully while the pipe has slack and a
        # standing queue persists once the window exceeds the pipe.  The
        # relaxation only ever *drains*: occupancy rises exclusively through
        # granted injections above the ACK clock (a window in excess of
        # ``pipe + q`` parks in ACK-path slack, not in the IFQ — observed on
        # the packet engine, where the guard pins the queue at the set point
        # while cwnd keeps creeping).
        target = self.window - self.pipe
        if self.queue > target:
            self.queue = max(target + (self.queue - target) * math.exp(-fraction), 0.0)
        self.queue = min(self.queue, float(self.capacity))
        self.ifq_peak = max(self.ifq_peak, self.queue)

        # Second rejection mode: a *sustained* queue so close to the
        # capacity that routine delayed-ACK re-clocking bursts
        # (``delack_segments`` back-to-back packets) strictly overrun it.
        # Measured on the packet engine: a standing queue of
        # ``setpoint·cap`` stalls when ``setpoint·cap + delack > cap``
        # (e.g. 9+2 > 10) and does not when it lands exactly on the
        # capacity (18+2 = 20).  For a guard-pinned controller the
        # sustained level is the rule's *ceiling* — the fluid trajectory's
        # sub-packet overshoot of that ceiling carries no information, so
        # the rejection decision uses the ceiling itself.
        if not stalled and not frozen:
            sustained = min(self.queue, max(self.window - self.pipe, 0.0))
            delack = float(self.options.delack_segments)
            boundary = self.capacity - delack
            ceiling = (self.rule.sustained_queue_ceiling(self.capacity)
                       if self.cwnd < self.ssthresh else None)
            if ceiling is not None:
                rejects = (ceiling > boundary + _STALL_EPS
                           and sustained >= ceiling - _SUSTAIN_MARGIN)
            else:
                rejects = sustained > boundary + _SUSTAIN_MARGIN
            if rejects:
                self._reduce_on_stall(now + span)

        # bottleneck overflow: standing data beyond IFQ + router buffer
        overflow = max(self.window - self.pipe, 0.0) - self.capacity - self.router_buffer
        if overflow > 0.0 and self.freeze_rounds == 0:
            self._reduce_on_loss()

        self.bytes_acked += int(round(acked_segments * self.mss))
        if (self.total_bytes is not None and self.completion_time is None
                and self.bytes_acked >= self.total_bytes):
            # the transfer finished partway through this round
            used = acked_segments / full_round if full_round > 0 else 1.0
            self.completion_time = now + span * min(used, 1.0)
        return acked_segments

    # ------------------------------------------------------------------
    def run(self, duration: float,
            run_past_duration_until_complete: bool = False) -> FluidRunResult:
        """Integrate the model for ``duration`` simulated seconds."""
        if duration <= 0:
            raise ExperimentError("duration must be positive")
        rtt = self.config.rtt
        horizon = duration
        if run_past_duration_until_complete and self.total_bytes is not None:
            horizon = duration * 10.0

        start = self.start_time
        times = [min(start, horizon)]
        cwnds = [self.cwnd]
        queues = [0.0]
        acked = [0.0]

        # the app starts at start_time; the three-way handshake costs one
        # further round trip before data flows
        data_horizon = horizon
        if self.stop_time is not None:
            data_horizon = min(horizon, self.stop_time)
        trace = active_trace_bus()
        now = min(start + rtt, data_horizon)
        while now < data_horizon - 1e-12:
            span = min(rtt, data_horizon - now)
            self._run_round(now, rtt, fraction=span / rtt)
            now += span
            times.append(now)
            cwnds.append(self.cwnd)
            queues.append(self.queue)
            acked.append(float(self.bytes_acked))
            if trace is not None:
                trace.record("fluid", "round", time=now, engine="scalar",
                             cwnd=self.cwnd, queue=self.queue,
                             acked_bytes=self.bytes_acked)
            if self.total_bytes is not None and self.completion_time is not None:
                break
        if (self.stop_time is not None and self.completion_time is None
                and self.stop_time < horizon):
            # the sender stopped offering data: the transfer is over here
            self.completion_time = self.stop_time

        # Goodput follows the packet backend's accounting: completed finite
        # transfers are measured up to the completion time, everything else
        # over the full integration horizon — in both cases since the app's
        # start_time (the active part of the transfer).
        elapsed = max(now, min(duration, horizon))
        end = self.completion_time if self.completion_time is not None else elapsed
        goodput_window = max(end - start, 0.0)
        goodput = self.bytes_acked * 8.0 / goodput_window if goodput_window > 0 else 0.0
        return FluidRunResult(
            config=self.config,
            algorithm=self.rule.name,
            duration=elapsed,
            seed=self.seed,
            times=np.asarray(times, dtype=float),
            cwnd_segments=np.asarray(cwnds, dtype=float),
            ifq_occupancy=np.asarray(queues, dtype=float),
            acked_bytes=np.asarray(acked, dtype=float),
            bytes_acked=self.bytes_acked,
            goodput_bps=goodput,
            ifq_peak=self.ifq_peak,
            send_stalls=self.send_stalls,
            stall_times=list(self.stall_times),
            congestion_signals=self.congestion_signals,
            fast_retransmits=self.fast_retransmits,
            other_reductions=self.other_reductions,
            pkts_retrans=self.pkts_retrans,
            final_cwnd=self.cwnd,
            final_ssthresh=self.ssthresh,
            max_cwnd=self.max_cwnd,
            completion_time=self.completion_time,
            steps=self.steps,
        )


# ---------------------------------------------------------------------------
# N-flow coupled model (fairness fast path)
# ---------------------------------------------------------------------------

#: Relative slack below which the bottleneck counts as saturated (the ACK
#: clock of every flow is then paced by its bottleneck share, not its own
#: line-rate burst).
_SATURATION_EPS = 1e-9


@dataclass(frozen=True)
class FluidFlowInput:
    """One flow of the multi-flow model (see :class:`FluidMultiFlowModel`).

    ``ifq`` indexes the sender interface queue the flow injects into: flows
    on distinct dumbbell pairs get distinct indices, flows sharing a sender
    (the ``shared_path`` scenario) share one — and therefore contend for the
    same queue headroom, exactly like the packet engine's shared host.

    ``quantize_start`` marks population-churn arrivals: the vectorized
    engine activates them at the first round boundary at or after their
    ``start_time`` instead of cutting a dedicated integration round —
    sub-RTT arrival phase is below the per-RTT model's resolution, and one
    cut per arrival would make a 5k-arrival run cost thousands of extra
    rounds.  Declared (non-churn) flows keep exact cuts, preserving parity
    with :class:`FluidMultiFlowModel`.
    """

    name: str
    cc: str
    rule: FluidGrowthRule
    ifq: int = 0
    start_time: float = 0.0
    stop_time: float | None = None
    total_bytes: int | None = None
    quantize_start: bool = False

    def __post_init__(self) -> None:
        if self.start_time < 0:
            raise ExperimentError("flow start_time must be >= 0")
        if self.stop_time is not None and self.stop_time <= self.start_time:
            raise ExperimentError("flow stop_time must be after start_time")
        if self.total_bytes is not None and self.total_bytes <= 0:
            raise ExperimentError("flow total_bytes must be positive or None")


@dataclass
class FluidFlowOutcome:
    """Per-flow counters produced by :meth:`FluidMultiFlowModel.run`."""

    name: str
    algorithm: str
    start_time: float
    duration: float
    bytes_acked: int
    goodput_bps: float
    send_stalls: int
    stall_times: list[float]
    congestion_signals: int
    fast_retransmits: int
    other_reductions: int
    pkts_retrans: int
    final_cwnd: float
    final_ssthresh: float
    max_cwnd: float
    completion_time: float | None


@dataclass
class FluidMultiFlowResult:
    """Everything :meth:`FluidMultiFlowModel.run` measures."""

    config: PathConfig
    duration: float
    seed: int
    flows: list[FluidFlowOutcome]
    bottleneck_loss_events: int
    total_send_stalls: int
    ifq_peaks: dict[int, float]
    steps: int
    #: Canonical per-flow records (declaration order).  Under streamed
    #: churn (vector engine) only declared flows appear here — churned
    #: flows are folded into ``summary`` at departure time instead.
    records: list[FlowRecord] = field(default_factory=list)
    #: Population statistics over *all* flows, streamed or not.
    summary: PopulationSummary | None = None


class _FlowState:
    """Dynamic state of one flow inside the coupled model.

    The window arithmetic (slow-start/CA crossover, trimming controllers,
    stall and loss reactions) mirrors :class:`FluidFlowModel` flow-for-flow;
    what differs is *who feeds it*: acknowledged segments arrive as the
    bottleneck allocator's share instead of ``min(W, pipe)``.  The growth
    itself runs inline in :meth:`FluidMultiFlowModel._run_round`.
    """

    def __init__(self, spec: FluidFlowInput, options: TCPOptions, rtt: float,
                 capacity: int) -> None:
        self.spec = spec
        self.rule = spec.rule
        self.options = options
        #: data flows one handshake round trip after the app starts
        self.data_start = spec.start_time + rtt
        self.rwnd_segments = options.rwnd_bytes / options.mss
        # The rule's grain and sustained-queue ceiling are properties of its
        # configuration (see FluidGrowthRule), so they are read once here.
        # ``grain`` is ``None`` for rules that do not ask for fine chunks.
        grain = self.rule.grain(capacity)
        self.grain = grain if math.isfinite(grain) and grain > 0 else None
        self.ceiling = self.rule.sustained_queue_ceiling(capacity)
        self.cwnd = float(options.initial_cwnd_segments)
        if options.initial_ssthresh_segments is None:
            self.ssthresh = math.inf
        else:
            self.ssthresh = float(options.initial_ssthresh_segments)
        self.bytes_acked = 0
        self.freeze_until = -math.inf
        self.done = False
        self.completion_time: float | None = None

        self.send_stalls = 0
        self.stall_times: list[float] = []
        self.congestion_signals = 0
        self.fast_retransmits = 0
        self.other_reductions = 0
        self.pkts_retrans = 0
        self.max_cwnd = self.cwnd

    # -- queries ---------------------------------------------------------
    @property
    def window(self) -> float:
        return min(self.cwnd, self.rwnd_segments)

    # -- reductions --------------------------------------------------------
    def _flight(self, ifq_queue: float, capacity: int, pipe: float) -> float:
        return min(self.window, pipe + min(ifq_queue, float(capacity)))

    def reduce_on_stall(self, now: float, rtt: float, ifq_queue: float,
                        capacity: int, pipe: float) -> None:
        self.send_stalls += 1
        self.stall_times.append(now)
        policy = self.options.local_congestion_policy
        if policy == LocalCongestionPolicy.TREAT_AS_CONGESTION:
            flight = self._flight(ifq_queue, capacity, pipe)
            self.ssthresh = max(flight / 2.0, 2.0)
            self.cwnd = max(self.ssthresh, 1.0)
            self.other_reductions += 1
            self.freeze_until = now + rtt
            self.rule.on_reduction()
        elif policy == LocalCongestionPolicy.CLAMP_ONLY:
            self.cwnd = max(min(self.cwnd, self._flight(ifq_queue, capacity, pipe) + 1.0), 1.0)
            self.other_reductions += 1
            self.rule.on_reduction()
        # IGNORE: no window reaction

    def reduce_on_loss(self, now: float, rtt: float, ifq_queue: float,
                       capacity: int, pipe: float) -> None:
        self.congestion_signals += 1
        self.fast_retransmits += 1
        self.pkts_retrans += 1
        flight = self._flight(ifq_queue, capacity, pipe)
        self.ssthresh = max(flight / 2.0, 2.0)
        self.cwnd = max(self.ssthresh, 1.0)
        self.freeze_until = now + rtt
        self.rule.on_reduction()


class _SenderIFQ:
    """One sender interface queue, possibly shared by several flows; every
    queue has the path's IFQ capacity."""

    def __init__(self) -> None:
        self.queue = 0.0
        self.peak = 0.0


class FluidMultiFlowModel:
    """Coupled per-RTT model of N bulk flows sharing one dumbbell bottleneck.

    Couplings (all per round trip, mirroring the packet dumbbell):

    * **bottleneck allocator** — while the summed windows exceed the path
      pipe, each flow's ACK clock returns a *proportional share*
      ``pipe · W_i / ΣW``; below saturation every window is acked in full.
    * **sender IFQs** — growth is injected above the ACK clock into the
      flow's sender queue.  A flow alone on the bottleneck has no NIC slack
      (the single-flow regime: bursts accumulate, the standing queue lives
      in the IFQ); a flow holding a *share* drains its bursts with the NIC
      slack ``pipe − share·pipe``, so its standing queue migrates to the
      router — which is why multi-flow mixes stall far less than solo runs.
      Flows sharing one sender (``shared_path``) share one queue and its
      headroom.
    * **router buffer** — standing data beyond the pipe and the IFQ
      standing queues occupies the shared bottleneck buffer; overflowing it
      is a synchronized loss episode: every active, unfrozen flow halves
      (drop-tail hits all arrival processes in one burst), which preserves
      window ratios and lets additive increase converge the mix toward
      fairness — the classic coupled-fluid argument.

    Staggered ``start_time`` values, per-flow ``stop_time`` and finite
    ``total_bytes`` are honoured by cutting rounds at those boundaries.
    The model is deterministic; ``seed`` is carried for interface parity.
    """

    def __init__(
        self,
        config: PathConfig,
        flows: Sequence[FluidFlowInput],
        options: TCPOptions | None = None,
        seed: int = 1,
    ) -> None:
        if not flows:
            raise ExperimentError("at least one flow is required")
        self.config = config
        self.options = options if options is not None else config.tcp_options()
        self.seed = int(seed)
        self.pipe = config.bdp_packets
        self.capacity = int(config.ifq_capacity_packets)
        self.router_buffer = int(config.router_buffer_packets)
        self.mss = self.options.mss
        self.ack_jitter = max(float(self.options.delack_segments) - 1.0, 0.0)
        rtt = config.rtt
        self.flows = [_FlowState(spec, self.options, rtt, self.capacity)
                      for spec in flows]
        self.ifqs: dict[int, _SenderIFQ] = {
            spec.ifq: _SenderIFQ() for spec in flows}
        self.bottleneck_loss_events = 0
        self.steps = 0

    # ------------------------------------------------------------------
    def _boundaries(self, horizon: float) -> list[float]:
        cuts = set()
        for st in self.flows:
            if 0.0 < st.data_start < horizon:
                cuts.add(st.data_start)
            stop = st.spec.stop_time
            if stop is not None and stop < horizon:
                cuts.add(stop)
        return sorted(cuts)

    def _run_round(self, now: float, rtt: float, fraction: float) -> None:
        # Round state lives in locals and per-round lists indexed like
        # ``active`` (see Cost in the module docstring).  Float operations
        # keep their operand order: the fluid goldens and the scalar/vector
        # parity suite pin the results bit for bit.
        span = rtt * fraction
        started = now + 1e-12
        active = []
        for st in self.flows:
            # a stop at (or before) this instant means no further data
            # rounds — in particular a stop_time inside the handshake round
            # moves nothing
            if st.done or st.data_start > started:
                continue
            stop = st.spec.stop_time
            if stop is None or now < stop - 1e-12:
                active.append(st)
        if not active:
            return
        pipe = self.pipe
        mss = self.mss
        capacity = self.capacity
        cap = float(capacity)
        windows = [min(st.cwnd, st.rwnd_segments) for st in active]
        total = sum(windows)
        saturated = total > pipe * (1.0 + _SATURATION_EPS)

        # --- bottleneck allocator: acked segments per flow this span ----
        full = []
        acked = []
        for st, window in zip(active, windows):
            if saturated and total > 0:
                share = pipe * fraction * window / total
            else:
                share = window * fraction
            full.append(share)
            total_bytes = st.spec.total_bytes
            if total_bytes is not None:
                remaining = max(total_bytes - st.bytes_acked, 0) / mss
                if remaining < share:
                    share = remaining
            acked.append(share)

        # --- per-IFQ bookkeeping -----------------------------------------
        # IFQs in order of their first active flow; ``slot`` indexes them
        groups: dict[int, list[int]] = {}
        for j, st in enumerate(active):
            groups.setdefault(st.spec.ifq, []).append(j)
        ifqs = [self.ifqs[key] for key in groups]
        members = list(groups.values())
        slot = {key: k for k, key in enumerate(groups)}
        queues = [ifq.queue for ifq in ifqs]
        peaks = [ifq.peak for ifq in ifqs]
        # ACK-clock rate through each sender NIC (segments per RTT) and the
        # slack left for draining growth bursts.  Below saturation the
        # bursts are clocked at line rate (no within-round slack at all);
        # the end-of-round relaxation drains them instead.
        clock = [sum([acked[j] for j in group]) / fraction for group in members]

        # --- growth, chunked so queue-sensing rules sample the ramp ------
        substeps = _MIN_CHUNKS
        for st, share in zip(active, acked):
            grain = st.grain
            if grain is not None and share > 0:
                n = int(math.ceil(share / grain))
                if n > substeps:
                    substeps = n
        if substeps > _MAX_CHUNKS:
            substeps = _MAX_CHUNKS
        dt = span / substeps
        drains = [(max(pipe - rate, 0.0) if saturated else 0.0) * fraction / substeps
                  for rate in clock]
        # the flows that grow: (flow, IFQ slot, acked segments per chunk)
        growers = [(st, slot[st.spec.ifq], share / substeps)
                   for st, share in zip(active, acked) if share > 0.0]

        round_frozen = [now < st.freeze_until - 1e-12 for st in active]
        stalled: set[int] = set()
        stall_level = capacity - _STALL_EPS
        jitter = self.ack_jitter
        floor = max(1.0, float(self.options.initial_cwnd_segments))
        steps = self.steps
        for s in range(substeps):
            t_sub = now + dt * (s + 1)
            t_prev = t_sub - dt
            touched = []
            grown = []
            for st, k, chunk in growers:
                if t_prev < st.freeze_until - 1e-12:
                    continue
                steps += 1
                q = queues[k]
                cwnd = before = st.cwnd
                ssthresh = st.ssthresh
                # One chunk of window growth.  ``injected`` is the net
                # packets sent above the ACK clock (negative when a trimming
                # controller lets the queue drain).
                if cwnd < ssthresh:
                    delta = st.rule.increment(chunk, cwnd,
                                              q / capacity if capacity else 0.0,
                                              capacity, dt)
                    if delta < 0.0:
                        cwnd += delta
                        if cwnd < floor:
                            cwnd = floor
                        st.cwnd = cwnd
                        injected = cwnd - before
                    else:
                        cwnd += delta
                        if cwnd > ssthresh:
                            # finish slow-start exactly at ssthresh, the
                            # remainder grows linearly
                            cwnd = ssthresh + (cwnd - ssthresh) / (1.0 if 1.0 > ssthresh else ssthresh)
                        st.cwnd = cwnd
                        if cwnd > st.max_cwnd:
                            st.max_cwnd = cwnd
                        injected = cwnd - before
                        if injected < 0.0:
                            injected = 0.0
                else:
                    # congestion avoidance: ~one segment per round trip
                    cwnd += chunk / (1.0 if 1.0 > cwnd else cwnd)
                    st.cwnd = cwnd
                    if cwnd > st.max_cwnd:
                        st.max_cwnd = cwnd
                    injected = cwnd - before
                    if injected < 0.0:
                        injected = 0.0
                q += injected
                queues[k] = 0.0 if q < 0.0 else q
                if k not in touched:
                    touched.append(k)
                grown.append((k, injected, st))
            for k in touched:
                q = queues[k]
                drain = drains[k]
                if drain > 0.0:
                    q -= drain
                    if q < 0.0:
                        q = 0.0
                peak = q + jitter
                if peak > cap:
                    peak = cap
                if peak > peaks[k]:
                    peaks[k] = peak
                if q > stall_level:
                    if q > cap:
                        q = cap
                    # attribute the rejected enqueue to the flow that grew
                    # the most this sub-step (ties: the largest window)
                    culprit = max([item for item in grown if item[0] == k],
                                  key=lambda item: (item[1], item[2].window))[2]
                    culprit.reduce_on_stall(t_sub, rtt, q, capacity, pipe)
                    stalled.add(k)
                queues[k] = q
        self.steps = steps

        # --- end of round: relax bursts toward the standing level --------
        decay = math.exp(-fraction)
        delack = float(self.options.delack_segments)
        boundary = capacity - delack
        ifq_standing = []
        for k, group in enumerate(members):
            if clock[k] >= pipe * (1.0 - 1e-9):
                target = max(sum([windows[j] for j in group]) - pipe, 0.0)
            else:
                target = 0.0
            q = queues[k]
            if q > target:
                q = max(target + (q - target) * decay, 0.0)
            if q > cap:
                q = cap
            queues[k] = q
            if q > peaks[k]:
                peaks[k] = q
            ifq_standing.append(min(target, cap))

            # sustained-queue rejection: a standing queue so close to the
            # capacity that delayed-ACK bursts strictly overrun it (same
            # boundary arithmetic as the single-flow model)
            if k in stalled:
                continue
            unfrozen = [active[j] for j in group if not round_frozen[j]]
            if not unfrozen:
                continue
            sustained = min(q, target)
            ceiling = None
            if len(group) == 1:
                st = active[group[0]]
                if st.cwnd < st.ssthresh:
                    ceiling = st.ceiling
            if ceiling is not None:
                rejects = (ceiling > boundary + _STALL_EPS
                           and sustained >= ceiling - _SUSTAIN_MARGIN)
            else:
                rejects = sustained > boundary + _SUSTAIN_MARGIN
            if rejects:
                for st in unfrozen:
                    st.reduce_on_stall(now + span, rtt, q, capacity, pipe)
        for ifq, q, peak in zip(ifqs, queues, peaks):
            ifq.queue = q
            ifq.peak = peak

        # --- shared router buffer: synchronized loss on overflow ---------
        router_standing = max(total - pipe - sum(ifq_standing), 0.0)
        if router_standing > self.router_buffer:
            end = now + span
            losers = [st for st in active if not end < st.freeze_until - 1e-12]
            if losers:
                self.bottleneck_loss_events += 1
                for st in losers:
                    st.reduce_on_loss(end, rtt, queues[slot[st.spec.ifq]],
                                      capacity, pipe)

        # --- delivery accounting ------------------------------------------
        for st, share, offered in zip(active, acked, full):
            st.bytes_acked += int(round(share * mss))
            total_bytes = st.spec.total_bytes
            if (total_bytes is not None and st.completion_time is None
                    and st.bytes_acked >= total_bytes):
                used = share / offered if offered > 0 else 1.0
                st.completion_time = now + span * min(used, 1.0)
                st.done = True

    # ------------------------------------------------------------------
    def run(self, duration: float) -> FluidMultiFlowResult:
        """Integrate the coupled model for ``duration`` simulated seconds."""
        if duration <= 0:
            raise ExperimentError("duration must be positive")
        rtt = self.config.rtt
        boundaries = self._boundaries(duration)
        trace = active_trace_bus()
        starts = [st.data_start for st in self.flows]
        now = min(min(starts), duration)
        while now < duration - 1e-12:
            span = min(rtt, duration - now)
            for cut in boundaries:
                if now + 1e-12 < cut < now + span - 1e-12:
                    span = cut - now
                    break
            self._run_round(now, rtt, fraction=span / rtt)
            now += span
            if trace is not None:
                trace.record("fluid", "round", time=now, engine="multi",
                             active=sum(1 for st in self.flows if not st.done))
            for st in self.flows:
                stop = st.spec.stop_time
                if (stop is not None and not st.done and now >= stop - 1e-12):
                    st.done = True
                    if st.completion_time is None:
                        st.completion_time = stop
            if all(st.done for st in self.flows):
                break

        # The real integrated end time: when the loop breaks early because
        # every flow finished, ``now`` is the boundary of the last round
        # actually run — matching :meth:`FluidFlowModel.run`'s ``elapsed``
        # accounting rather than the nominal horizon.
        elapsed = min(now, duration)
        outcomes = []
        for st in self.flows:
            end = st.completion_time if st.completion_time is not None else elapsed
            active_span = max(end - st.spec.start_time, 0.0)
            goodput = st.bytes_acked * 8.0 / active_span if active_span > 0 else 0.0
            outcomes.append(FluidFlowOutcome(
                name=st.spec.name,
                algorithm=st.spec.cc,
                start_time=st.spec.start_time,
                duration=active_span,
                bytes_acked=st.bytes_acked,
                goodput_bps=goodput,
                send_stalls=st.send_stalls,
                stall_times=list(st.stall_times),
                congestion_signals=st.congestion_signals,
                fast_retransmits=st.fast_retransmits,
                other_reductions=st.other_reductions,
                pkts_retrans=st.pkts_retrans,
                final_cwnd=st.cwnd,
                final_ssthresh=st.ssthresh,
                max_cwnd=st.max_cwnd,
                completion_time=st.completion_time,
            ))
        accumulator = SummaryAccumulator(duration)
        records = []
        for st, outcome in zip(self.flows, outcomes):
            record = FlowRecord.from_flow(
                outcome,
                src=f"sender{st.spec.ifq}",
                dst=f"receiver{st.spec.ifq}",
            )
            accumulator.add(record)
            records.append(record)
        return FluidMultiFlowResult(
            config=self.config,
            duration=elapsed,
            seed=self.seed,
            flows=outcomes,
            bottleneck_loss_events=self.bottleneck_loss_events,
            total_send_stalls=sum(o.send_stalls for o in outcomes),
            ifq_peaks={key: ifq.peak for key, ifq in self.ifqs.items()},
            steps=self.steps,
            records=records,
            summary=accumulator.finalize(),
        )
