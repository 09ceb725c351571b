"""Vectorized population-scale fluid engine.

:class:`FluidMultiFlowModel` advances its coupled flows one Python object at
a time — fine for hand-picked 4-flow fairness mixes, hopeless for the flow
*populations* the ROADMAP targets.  This module holds the same per-RTT
difference equations, but keeps every per-flow quantity (cwnd, ssthresh,
acknowledged bytes, freeze deadlines, start/stop/total-bytes, IFQ
assignment) in NumPy arrays and advances **all** flows per round with
array-wide passes:

* the proportional bottleneck allocator is one division over the active
  window vector;
* per-sender-IFQ injection, ACK-clock and drain bookkeeping are grouped
  scatter/gather sums (:func:`numpy.bincount` over the flow→IFQ index map);
* the synchronized router-overflow loss and the send-stall reductions are
  boolean-mask window updates;
* slow-start/congestion-avoidance growth (Reno and RFC 3742 limited
  slow-start) is evaluated as masked array arithmetic.

Flows whose growth rule is *stateful* (the restricted rule's PID
recurrence, :class:`~repro.fluid.model.RestrictedFluid`, or any third-party
rule) stay on a Python side-channel, batched once per sub-round chunk — they read and
update the same occupancy arrays, so regulated flows can ride inside a
vectorized population.  The side-channel's cost scales with the side flows
that are *active* in a round (and, within a chunk, with the *eligible*
ones: started, unfrozen, not yet finished or stopped), never with the
whole population: each pass selects its flows by array masks over the
round's active set, and each rule's
:meth:`~repro.fluid.model.FluidGrowthRule.grain` is read once per flow at
construction.  A chunk reads the eligible flows' windows into Python
floats once, loops over those, and writes the windows, peaks, injections
and queues back once.  A reduction calls
:meth:`~repro.fluid.model.FluidGrowthRule.on_reduction` only on rules whose
``increment`` ran since their last reduction (a per-flow dirty flag); the
rule contract makes the skipped calls no-ops, so a synchronized loss over
thousands of regulated flows resets only the controllers that moved.  A
20,000-arrival restricted churn runs in under two seconds
(``benchmarks/bench_fluid_scale.py``).

Open-loop churn
---------------
:class:`FlowArrivalSpec` describes a living population: Poisson arrivals at
``rate_per_s``, flow sizes drawn from a named distribution, one congestion
control for the whole population.  Sampling is deterministic through
:class:`repro.sim.randomness.RandomStreams` (streams
``"fluid.churn.arrivals"`` / ``"fluid.churn.sizes"`` derived from the
spec's master seed), so a churned run is reproducible bit-for-bit.
Churn arrivals carry ``quantize_start=True``: they activate at the first
round boundary at or after their arrival instead of cutting a dedicated
integration round — sub-RTT arrival phase is below the per-RTT model's
resolution, and one cut per arrival would make a 5k-arrival run cost
thousands of extra rounds.

Parity
------
On declared (non-churn) flow mixes the engine integrates the *same* round
structure as :class:`FluidMultiFlowModel` — same boundaries, same sub-round
chunk counts, same reduction arithmetic — so the two agree to floating
point noise on per-pair dumbbells and well within the documented fairness
tolerances everywhere else (summation order inside a shared IFQ differs).
``repro.fluid.validate.cross_validate_population`` enforces this, and the
backend dispatches between the engines by flow count
(:data:`repro.fluid.backend.VECTOR_FLOW_THRESHOLD`).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..errors import ExperimentError
from ..metrics import FlowRecord, SummaryAccumulator, class_label_for
from ..obs.trace import active_trace_bus
from ..tcp.options import TCPOptions
from ..tcp.state import LocalCongestionPolicy
from ..workloads.scenarios import PathConfig
from .model import (
    _MAX_CHUNKS,
    _MIN_CHUNKS,
    _SATURATION_EPS,
    _STALL_EPS,
    _SUSTAIN_MARGIN,
    FluidFlowInput,
    FluidFlowOutcome,
    FluidMultiFlowResult,
    LimitedSlowStartFluid,
    RenoFluid,
)

__all__ = [
    "FlowArrivalSpec",
    "ChurnArrival",
    "FluidPopulationModel",
    "SIZE_DISTRIBUTIONS",
]

#: Flow-size distributions :meth:`FlowArrivalSpec.sample` can draw from.
SIZE_DISTRIBUTIONS = ("fixed", "exponential", "lognormal", "pareto")

#: Random stream names the churn sampler consumes (derived from the spec's
#: master seed; adding other consumers does not perturb these).
ARRIVAL_STREAM = "fluid.churn.arrivals"
SIZE_STREAM = "fluid.churn.sizes"


class ChurnArrival(NamedTuple):
    """One sampled flow of a churned population."""

    start_time: float
    total_bytes: int
    pair: int


@dataclass(frozen=True)
class FlowArrivalSpec:
    """Open-loop flow churn: Poisson arrivals with drawn flow sizes.

    Attributes
    ----------
    rate_per_s:
        Mean arrival rate of new flows (Poisson process).
    mean_size_bytes:
        Mean of the flow-size distribution.
    size_dist:
        One of :data:`SIZE_DISTRIBUTIONS`.  ``"fixed"`` gives every flow
        exactly ``mean_size_bytes``; ``"lognormal"`` / ``"pareto"`` are the
        classic heavy-tailed mice-and-elephants shapes, parameterised so
        their mean equals ``mean_size_bytes``.
    cc:
        Congestion control of every churned flow (a fluid-modelled
        algorithm; see :data:`repro.fluid.model.FLUID_ALGORITHMS`).
    sigma:
        Log-space standard deviation of the ``"lognormal"`` distribution.
    alpha:
        Tail exponent of the ``"pareto"`` distribution (must exceed 1 for
        the mean to exist).
    max_flows:
        Hard cap on sampled arrivals (``None`` = unbounded; the horizon
        bounds the count either way).
    """

    rate_per_s: float = 50.0
    mean_size_bytes: float = 100_000.0
    size_dist: str = "exponential"
    cc: str = "reno"
    sigma: float = 1.0
    alpha: float = 1.5
    max_flows: int | None = None

    def __post_init__(self) -> None:
        if self.rate_per_s <= 0:
            raise ExperimentError("churn rate_per_s must be positive")
        if self.mean_size_bytes <= 0:
            raise ExperimentError("churn mean_size_bytes must be positive")
        if self.size_dist not in SIZE_DISTRIBUTIONS:
            raise ExperimentError(
                f"unknown churn size_dist {self.size_dist!r}; "
                f"known: {list(SIZE_DISTRIBUTIONS)}")
        if self.sigma <= 0:
            raise ExperimentError("churn sigma must be positive")
        if self.alpha <= 1.0:
            raise ExperimentError(
                "churn alpha must exceed 1 (the Pareto mean diverges otherwise)")
        if self.max_flows is not None and self.max_flows < 1:
            raise ExperimentError("churn max_flows must be >= 1 or None")
        from .model import FLUID_ALGORITHMS

        if self.cc not in FLUID_ALGORITHMS:
            raise ExperimentError(
                f"churned flows need a fluid growth rule; {self.cc!r} has "
                f"none (supported: {sorted(FLUID_ALGORITHMS)})")

    # -- sampling --------------------------------------------------------
    def sample(self, duration: float, streams, n_pairs: int = 1) -> list[ChurnArrival]:
        """Draw the population for one run, deterministically.

        ``streams`` is a :class:`repro.sim.randomness.RandomStreams` seeded
        with the run's master seed.  Arrival instants are a Poisson process
        on ``[0, duration)``; sizes come from ``size_dist``; flows are
        assigned round-robin over the ``n_pairs`` dumbbell pairs (so a
        population spreads evenly over the declared sender IFQs).
        """
        if duration <= 0:
            raise ExperimentError("duration must be positive")
        if n_pairs < 1:
            raise ExperimentError("n_pairs must be >= 1")
        arrivals_rng = streams.get(ARRIVAL_STREAM)
        sizes_rng = streams.get(SIZE_STREAM)

        cap = self.max_flows if self.max_flows is not None else math.inf
        times: list[float] = []
        t = 0.0
        # draw inter-arrivals in batches sized to the expected remainder
        while len(times) < cap:
            batch = max(int(self.rate_per_s * (duration - t)) + 16, 16)
            gaps = arrivals_rng.exponential(1.0 / self.rate_per_s, size=batch)
            for gap in gaps:
                t += float(gap)
                if t >= duration or len(times) >= cap:
                    break
                times.append(t)
            if t >= duration:
                break
        n = len(times)
        if n == 0:
            return []

        if self.size_dist == "fixed":
            sizes = np.full(n, self.mean_size_bytes)
        elif self.size_dist == "exponential":
            sizes = sizes_rng.exponential(self.mean_size_bytes, size=n)
        elif self.size_dist == "lognormal":
            mu = math.log(self.mean_size_bytes) - 0.5 * self.sigma**2
            sizes = sizes_rng.lognormal(mu, self.sigma, size=n)
        else:  # pareto
            xm = self.mean_size_bytes * (self.alpha - 1.0) / self.alpha
            sizes = xm * (1.0 + sizes_rng.pareto(self.alpha, size=n))
        sizes = np.maximum(np.rint(sizes), 1.0).astype(np.int64)

        return [
            ChurnArrival(start_time=times[i], total_bytes=int(sizes[i]),
                         pair=i % n_pairs)
            for i in range(n)
        ]


# ---------------------------------------------------------------------------
# the vectorized model
# ---------------------------------------------------------------------------

#: Growth-rule kinds the vector path evaluates with array arithmetic.
_KIND_RENO = 0
_KIND_LIMITED = 1
#: Stateful / third-party rules: evaluated per flow on the Python
#: side-channel (still batched once per sub-round chunk).
_KIND_SIDE = 2


class FluidPopulationModel:
    """Vectorized counterpart of :class:`FluidMultiFlowModel`.

    Same constructor contract, same :class:`FluidMultiFlowResult` output,
    same coupled dynamics — evaluated as array-wide passes over the whole
    population instead of per-flow Python loops.  Use it directly, or let
    :func:`repro.fluid.backend.execute_fluid_multi_flow` dispatch to it
    above the flow-count threshold (or whenever churn is declared).
    """

    def __init__(
        self,
        config: PathConfig,
        flows: Sequence[FluidFlowInput],
        options: TCPOptions | None = None,
        seed: int = 1,
        *,
        stream_churned: bool = False,
        collect_summary: bool = True,
    ) -> None:
        """``stream_churned=True`` folds quantized-start (churn) flows into
        the streaming summary accumulator at departure time and leaves them
        out of the result's ``flows``/``records`` — bounded memory for
        living populations.  ``collect_summary=False`` skips the metrics
        plane entirely (used by benchmarks to time the bare engine)."""
        if not flows:
            raise ExperimentError("at least one flow is required")
        self.config = config
        self.options = options if options is not None else config.tcp_options()
        self.seed = int(seed)
        self.specs = list(flows)
        self.pipe = float(config.bdp_packets)
        self.capacity = int(config.ifq_capacity_packets)
        self.router_buffer = int(config.router_buffer_packets)
        self.mss = self.options.mss
        self.ack_jitter = max(float(self.options.delack_segments) - 1.0, 0.0)
        self.rwnd_segments = self.options.rwnd_bytes / self.options.mss
        self.policy = self.options.local_congestion_policy
        rtt = config.rtt

        n = len(self.specs)
        # --- static per-flow arrays --------------------------------------
        self.start_time = np.array([s.start_time for s in self.specs], dtype=float)
        self.data_start = self.start_time + rtt
        self.stop_time = np.array(
            [s.stop_time if s.stop_time is not None else np.inf
             for s in self.specs], dtype=float)
        self.total_bytes = np.array(
            [s.total_bytes if s.total_bytes is not None else np.inf
             for s in self.specs], dtype=float)
        self.quantized = np.array([s.quantize_start for s in self.specs], dtype=bool)

        # flow → compact IFQ index (original keys kept for the result dict)
        self.ifq_keys = sorted({s.ifq for s in self.specs})
        key_to_idx = {key: i for i, key in enumerate(self.ifq_keys)}
        self.flow_ifq = np.array([key_to_idx[s.ifq] for s in self.specs],
                                 dtype=np.intp)
        nq = len(self.ifq_keys)
        self.queue = np.zeros(nq)
        self.ifq_peak = np.zeros(nq)

        # --- growth-rule classification ----------------------------------
        # Exact types only: a subclass overriding increment() must go to the
        # side-channel, which calls the rule object faithfully.
        self.kind = np.full(n, _KIND_SIDE, dtype=np.int8)
        self.limited_max_ss = np.full(n, np.inf)
        #: flow → growth rule (only side-channel flows ever consult it)
        self.rules = [s.rule for s in self.specs]
        #: side-channel chunk grain per flow, read once (``inf`` on the
        #: vector path, whose rules do not sense the queue)
        self.grain = np.full(n, np.inf)
        for i, rule in enumerate(self.rules):
            if type(rule) is RenoFluid:
                self.kind[i] = _KIND_RENO
            elif type(rule) is LimitedSlowStartFluid:
                self.kind[i] = _KIND_LIMITED
                self.limited_max_ss[i] = rule.max_ssthresh
            else:
                self.grain[i] = rule.grain(self.capacity)
        self.vector_kind = self.kind != _KIND_SIDE
        #: side flows whose rule's increment() ran since its last
        #: on_reduction(); only these are reset on a reduction
        self._side_dirty = np.zeros(n, dtype=bool)

        # --- dynamic state ------------------------------------------------
        self.cwnd = np.full(n, float(self.options.initial_cwnd_segments))
        init_ss = self.options.initial_ssthresh_segments
        self.ssthresh = np.full(
            n, np.inf if init_ss is None else float(init_ss))
        self.bytes_acked = np.zeros(n, dtype=np.int64)
        self.freeze_until = np.full(n, -np.inf)
        self.done = np.zeros(n, dtype=bool)
        self.completion = np.full(n, np.nan)

        # --- counters -----------------------------------------------------
        self.send_stalls = np.zeros(n, dtype=np.int64)
        self.congestion_signals = np.zeros(n, dtype=np.int64)
        self.fast_retransmits = np.zeros(n, dtype=np.int64)
        self.other_reductions = np.zeros(n, dtype=np.int64)
        self.pkts_retrans = np.zeros(n, dtype=np.int64)
        self.max_cwnd = self.cwnd.copy()
        self.stall_times: list[list[float]] = [[] for _ in range(n)]
        self.bottleneck_loss_events = 0
        self.steps = 0

        # --- metrics plane ------------------------------------------------
        self.collect_summary = bool(collect_summary)
        #: Flows summarised at departure instead of materialised as outcomes.
        self.streamed = self.quantized & bool(stream_churned)
        self._folded = np.zeros(n, dtype=bool)
        self._acc: SummaryAccumulator | None = None
        # Bulk-fold group table: streamed departures go through the
        # accumulator's array path, one call per (class, cc) pair.
        fold_keys = [(class_label_for(s.name), s.cc) for s in self.specs]
        self._fold_groups = sorted(set(fold_keys))
        group_index = {key: g for g, key in enumerate(self._fold_groups)}
        self._group_id = np.array([group_index[key] for key in fold_keys],
                                  dtype=np.intp)
        self._pending_folds: list[np.ndarray] = []

    # ------------------------------------------------------------------
    # streaming metrics plane
    # ------------------------------------------------------------------
    def _record_for(self, i: int, elapsed: float) -> FlowRecord:
        """Canonical record for flow ``i``, straight from the state arrays.

        Matches ``FlowRecord.from_flow`` applied to the corresponding
        :class:`FluidFlowOutcome` field-for-field, so streamed and
        materialised flows summarise identically.
        """
        spec = self.specs[i]
        comp = float(self.completion[i]) if not np.isnan(self.completion[i]) else None
        end = comp if comp is not None else elapsed
        active_span = max(end - spec.start_time, 0.0)
        bytes_acked = int(self.bytes_acked[i])
        return FlowRecord(
            flow_id=spec.name,
            cc=spec.cc,
            src=f"sender{spec.ifq}",
            dst=f"receiver{spec.ifq}",
            class_label=class_label_for(spec.name),
            start_time=spec.start_time,
            completion_time=comp,
            bytes_acked=bytes_acked,
            goodput_bps=bytes_acked * 8.0 / active_span if active_span > 0 else 0.0,
            send_stalls=int(self.send_stalls[i]),
            loss_events=int(self.congestion_signals[i]),
            retransmits=int(self.pkts_retrans[i]),
        )

    def _fold_departed(self, indices: np.ndarray) -> None:
        """Queue departed streamed flows for the accumulator.

        The fold itself is deferred to :meth:`_flush_folds`, collapsing
        thousands of per-round departures into a handful of vectorized
        ``add_arrays`` calls.  A departed flow leaves the active set, so its
        state arrays are frozen by the time the flush reads them — deferral
        is observationally identical to folding at departure time.
        """
        if self._acc is None:
            return
        sel = indices[self.streamed[indices] & ~self._folded[indices]]
        if sel.size == 0:
            return
        self._folded[sel] = True
        self._pending_folds.append(sel)

    def _flush_folds(self, elapsed: float) -> None:
        """Fold every queued streamed departure, batched per (class, cc).

        ``elapsed`` stands in for the completion edge of flows that never
        finished; those are only queued by the final horizon fold, so the
        value at flush time is the value at queue time.  Field-for-field
        equivalent to per-record :meth:`SummaryAccumulator.add` over the
        matching :meth:`_record_for` outputs, array-at-a-time.
        """
        if self._acc is None or not self._pending_folds:
            return
        sel = (self._pending_folds[0] if len(self._pending_folds) == 1
               else np.concatenate(self._pending_folds))
        self._pending_folds.clear()
        bus = active_trace_bus()
        if bus is not None:
            bus.record("vector", "churn_flush", time=elapsed,
                       flows=int(sel.size), groups=len(self._fold_groups))
        starts = self.start_time[sel]
        comp = self.completion[sel]
        end = np.where(np.isnan(comp), elapsed, comp)
        span = np.maximum(end - starts, 0.0)
        bytes_acked = self.bytes_acked[sel]
        goodput = np.where(span > 0,
                           bytes_acked * 8.0 / np.where(span > 0, span, 1.0),
                           0.0)
        gid = self._group_id[sel]
        for g, (label, cc) in enumerate(self._fold_groups):
            member = gid == g
            if not member.any():
                continue
            self._acc.add_arrays(
                class_label=label,
                cc=cc,
                start_times=starts[member],
                completion_times=comp[member],
                bytes_acked=bytes_acked[member],
                goodput_bps=goodput[member],
                send_stalls=self.send_stalls[sel][member],
                loss_events=self.congestion_signals[sel][member],
                retransmits=self.pkts_retrans[sel][member],
            )

    # ------------------------------------------------------------------
    # reductions (masked arithmetic mirroring _FlowState.reduce_on_*)
    # ------------------------------------------------------------------
    def _flight(self, gidx: np.ndarray) -> np.ndarray:
        window = np.minimum(self.cwnd[gidx], self.rwnd_segments)
        q = np.minimum(self.queue[self.flow_ifq[gidx]], float(self.capacity))
        return np.minimum(window, self.pipe + q)

    def _side_on_reduction(self, gidx: np.ndarray) -> None:
        # Only rules whose increment() ran since their last reduction: for
        # any other rule the call is a no-op by the on_reduction contract.
        dirty = gidx[self._side_dirty[gidx]]
        if dirty.size == 0:
            return
        self._side_dirty[dirty] = False
        rules = self.rules
        for i in dirty.tolist():
            rules[i].on_reduction()

    def _reduce_on_stall_many(self, gidx: np.ndarray, t: float, rtt: float) -> None:
        if gidx.size == 0:
            return
        self.send_stalls[gidx] += 1
        # Streamed flows depart into the accumulator, which only keeps the
        # stall count — don't grow per-flow timestamp lists for them.
        for i in gidx[~self.streamed[gidx]]:
            self.stall_times[i].append(t)
        if self.policy == LocalCongestionPolicy.TREAT_AS_CONGESTION:
            flight = self._flight(gidx)
            self.ssthresh[gidx] = np.maximum(flight / 2.0, 2.0)
            self.cwnd[gidx] = np.maximum(self.ssthresh[gidx], 1.0)
            self.other_reductions[gidx] += 1
            self.freeze_until[gidx] = t + rtt
            self._side_on_reduction(gidx)
        elif self.policy == LocalCongestionPolicy.CLAMP_ONLY:
            flight = self._flight(gidx)
            self.cwnd[gidx] = np.maximum(
                np.minimum(self.cwnd[gidx], flight + 1.0), 1.0)
            self.other_reductions[gidx] += 1
            self._side_on_reduction(gidx)
        # IGNORE: no window reaction

    def _reduce_on_loss_many(self, gidx: np.ndarray, t: float, rtt: float) -> None:
        if gidx.size == 0:
            return
        self.congestion_signals[gidx] += 1
        self.fast_retransmits[gidx] += 1
        self.pkts_retrans[gidx] += 1
        flight = self._flight(gidx)
        self.ssthresh[gidx] = np.maximum(flight / 2.0, 2.0)
        self.cwnd[gidx] = np.maximum(self.ssthresh[gidx], 1.0)
        self.freeze_until[gidx] = t + rtt
        self._side_on_reduction(gidx)

    # ------------------------------------------------------------------
    # one (possibly partial) round trip for the whole population
    # ------------------------------------------------------------------
    def _run_round(self, now: float, rtt: float, fraction: float) -> None:
        span = rtt * fraction
        active = (~self.done
                  & (self.data_start <= now + 1e-12)
                  & (now < self.stop_time - 1e-12))
        idx = np.nonzero(active)[0]
        if idx.size == 0:
            return
        g = self.flow_ifq[idx]
        nq = len(self.ifq_keys)

        windows = np.minimum(self.cwnd[idx], self.rwnd_segments)
        total = float(windows.sum())
        saturated = total > self.pipe * (1.0 + _SATURATION_EPS)

        # --- bottleneck allocator: acked segments per flow this span ----
        if saturated and total > 0:
            full = self.pipe * fraction * windows / total
        else:
            full = windows * fraction
        remaining = np.maximum(
            self.total_bytes[idx] - self.bytes_acked[idx], 0.0) / self.mss
        acked = np.minimum(full, remaining)

        # --- per-IFQ bookkeeping -----------------------------------------
        cnt = np.bincount(g, minlength=nq)
        member_q = cnt > 0
        clock = np.bincount(g, weights=acked, minlength=nq) / fraction
        if saturated:
            slack = np.maximum(self.pipe - clock, 0.0)
        else:
            slack = np.zeros(nq)

        # --- growth, chunked so queue-sensing rules sample the ramp ------
        vec = self.vector_kind[idx]
        # positions (into idx, ascending = flow order) of the active
        # side-channel flows: every side pass below visits only these
        side_pos = np.nonzero(~vec)[0]
        substeps = _MIN_CHUNKS
        side_acked = acked[side_pos]
        grain = self.grain[idx[side_pos]]
        sampled = np.isfinite(grain) & (grain > 0) & (side_acked > 0)
        if sampled.any():
            substeps = max(substeps, int(np.ceil(
                side_acked[sampled] / grain[sampled]).max()))
        substeps = min(substeps, _MAX_CHUNKS)
        dt = span / substeps
        chunk = acked / substeps
        floor = max(1.0, float(self.options.initial_cwnd_segments))
        rules = self.rules

        round_frozen = now < self.freeze_until[idx] - 1e-12
        stalled_q = np.zeros(nq, dtype=bool)
        limited = self.kind[idx] == _KIND_LIMITED
        max_ss = self.limited_max_ss[idx]
        for s in range(substeps):
            t_prev = now + dt * s
            t_sub = now + dt * (s + 1)
            elig = (t_prev >= self.freeze_until[idx] - 1e-12) & (acked > 0.0)
            if not elig.any():
                continue
            self.steps += int(elig.sum())
            injected = np.zeros(idx.size)

            # vectorized Reno / limited slow-start growth
            vsel = elig & vec
            if vsel.any():
                vidx = idx[vsel]
                cw = self.cwnd[vidx]
                ss = self.ssthresh[vidx]
                ch = chunk[vsel]
                below = cw < ss
                delta = ch.copy()
                lim = limited[vsel] & (cw > max_ss[vsel])
                if lim.any():
                    k = np.maximum(
                        np.floor(cw[lim] / (0.5 * max_ss[vsel][lim])), 1.0)
                    delta[lim] = ch[lim] / k
                grown = cw + delta
                new = np.where(below, grown,
                               cw + ch / np.maximum(cw, 1.0))
                over = below & (grown > ss)
                if over.any():
                    new[over] = (ss[over]
                                 + (grown[over] - ss[over])
                                 / np.maximum(ss[over], 1.0))
                self.cwnd[vidx] = new
                self.max_cwnd[vidx] = np.maximum(self.max_cwnd[vidx], new)
                injected[vsel] = np.maximum(new - cw, 0.0)
                np.add.at(self.queue, g[vsel], injected[vsel])
                np.maximum(self.queue, 0.0, out=self.queue)

            # side-channel rules (stateful controllers), in flow order so a
            # regulated flow sees this chunk's earlier injections — exactly
            # like the scalar model's per-flow scan
            sel = side_pos[elig[side_pos]]
            if sel.size:
                sidx = idx[sel]
                queue = self.queue.tolist()
                capacity = self.capacity
                new_cw = []
                inj_cw = []
                incremented = []
                # ``b if b > a else a`` is ``max(a, b)`` exactly, signed
                # zeros and NaN included
                for i, qi, ch, before, ss in zip(
                        sidx.tolist(), g[sel].tolist(), chunk[sel].tolist(),
                        self.cwnd[sidx].tolist(), self.ssthresh[sidx].tolist()):
                    q = queue[qi]
                    if before < ss:
                        occ = q / capacity if capacity else 0.0
                        delta = rules[i].increment(ch, before, occ,
                                                   capacity, dt)
                        incremented.append(i)
                        if delta < 0.0:
                            new = before + delta
                            new = floor if floor > new else new
                            inj = new - before
                        else:
                            grown = before + delta
                            if grown > ss:
                                new = ss + (grown - ss) / (1.0 if 1.0 > ss else ss)
                            else:
                                new = grown
                            inj = new - before
                            inj = 0.0 if 0.0 > inj else inj
                    else:
                        new = before + ch / (1.0 if 1.0 > before else before)
                        inj = new - before
                        inj = 0.0 if 0.0 > inj else inj
                    new_cw.append(new)
                    inj_cw.append(inj)
                    q += inj
                    queue[qi] = 0.0 if 0.0 > q else q
                self.queue[:] = queue
                new_arr = np.array(new_cw)
                self.cwnd[sidx] = new_arr
                up = new_arr > self.max_cwnd[sidx]
                self.max_cwnd[sidx[up]] = new_arr[up]
                injected[sel] = inj_cw
                if incremented:
                    self._side_dirty[incremented] = True

            # drain with the NIC slack and track the jittered peak, on the
            # queues that saw contributions this chunk
            contrib = np.bincount(g[elig], minlength=nq) > 0
            drain = slack * fraction / substeps
            pos_drain = contrib & (drain > 0.0)
            if pos_drain.any():
                self.queue[pos_drain] = np.maximum(
                    self.queue[pos_drain] - drain[pos_drain], 0.0)
            self.ifq_peak[contrib] = np.maximum(
                self.ifq_peak[contrib],
                np.minimum(self.queue[contrib] + self.ack_jitter,
                           float(self.capacity)))

            # enqueue rejection: a growth burst overran a whole queue
            over_q = np.nonzero(contrib
                                & (self.queue > self.capacity - _STALL_EPS))[0]
            for k in over_q:
                self.queue[k] = min(self.queue[k], float(self.capacity))
                members = np.nonzero(elig & (g == k))[0]
                # culprit: the flow that grew the most this sub-step
                # (ties: the largest window, then declaration order)
                win = np.minimum(self.cwnd[idx[members]], self.rwnd_segments)
                best = max(range(members.size),
                           key=lambda m: (injected[members[m]], win[m]))
                culprit = int(idx[members[best]])
                self._reduce_on_stall_many(np.array([culprit]), t_sub, rtt)
                stalled_q[k] = True

        # --- end of round: relax bursts toward the standing level --------
        windows_sum = np.bincount(g, weights=windows, minlength=nq)
        target = np.where(clock >= self.pipe * (1.0 - 1e-9),
                          np.maximum(windows_sum - self.pipe, 0.0), 0.0)
        relax = member_q & (self.queue > target)
        if relax.any():
            self.queue[relax] = np.maximum(
                target[relax]
                + (self.queue[relax] - target[relax]) * math.exp(-fraction),
                0.0)
        self.queue[member_q] = np.minimum(self.queue[member_q],
                                          float(self.capacity))
        self.ifq_peak[member_q] = np.maximum(self.ifq_peak[member_q],
                                             self.queue[member_q])
        ifq_standing = np.where(member_q,
                                np.minimum(target, float(self.capacity)), 0.0)

        # sustained-queue rejection (same boundary arithmetic as the scalar
        # models); a queue-sensing rule alone on its IFQ pins the sustained
        # level at its ceiling, which decides the crossing
        delack = float(self.options.delack_segments)
        boundary = self.capacity - delack
        sustained = np.minimum(self.queue, target)
        rejects = (member_q & ~stalled_q
                   & (sustained > boundary + _SUSTAIN_MARGIN))
        side_q = g[side_pos]
        lone = side_pos[(cnt[side_q] == 1) & ~stalled_q[side_q]]
        for i, k in zip(idx[lone].tolist(), g[lone].tolist()):
            if not self.cwnd[i] < self.ssthresh[i]:
                continue
            ceiling = rules[i].sustained_queue_ceiling(self.capacity)
            if ceiling is None:
                continue
            rejects[k] = (ceiling > boundary + _STALL_EPS
                          and sustained[k] >= ceiling - _SUSTAIN_MARGIN)
        if rejects.any():
            to_stall = idx[rejects[g] & ~round_frozen]
            self._reduce_on_stall_many(to_stall, now + span, rtt)

        # --- shared router buffer: synchronized loss on overflow ---------
        router_standing = max(total - self.pipe - float(ifq_standing.sum()), 0.0)
        if router_standing > self.router_buffer:
            losers = idx[(now + span) >= self.freeze_until[idx] - 1e-12]
            if losers.size:
                self.bottleneck_loss_events += 1
                self._reduce_on_loss_many(losers, now + span, rtt)

        # --- delivery accounting ------------------------------------------
        self.bytes_acked[idx] += np.rint(acked * self.mss).astype(np.int64)
        finished = (np.isfinite(self.total_bytes[idx])
                    & np.isnan(self.completion[idx])
                    & (self.bytes_acked[idx] >= self.total_bytes[idx]))
        if finished.any():
            fsel = full[finished]
            used = np.where(fsel > 0, acked[finished] / np.where(fsel > 0, fsel, 1.0), 1.0)
            fin = idx[finished]
            self.completion[fin] = now + span * np.minimum(used, 1.0)
            self.done[fin] = True
            if self.streamed.any():
                self._fold_departed(fin)

    # ------------------------------------------------------------------
    def _boundaries(self, horizon: float) -> np.ndarray:
        """Exact round cuts: declared starts and stops (churn arrivals with
        ``quantize_start`` activate at the next boundary instead)."""
        cuts = set()
        for i, spec in enumerate(self.specs):
            if not spec.quantize_start:
                ds = float(self.data_start[i])
                if 0.0 < ds < horizon:
                    cuts.add(ds)
            if spec.stop_time is not None and spec.stop_time < horizon:
                cuts.add(float(spec.stop_time))
        return np.array(sorted(cuts))

    def run(self, duration: float) -> FluidMultiFlowResult:
        """Integrate the coupled population for ``duration`` seconds."""
        if duration <= 0:
            raise ExperimentError("duration must be positive")
        if self.collect_summary:
            self._acc = SummaryAccumulator(duration)
        rtt = self.config.rtt
        boundaries = self._boundaries(duration)
        has_stop = np.isfinite(self.stop_time)
        trace = active_trace_bus()
        now = min(float(self.data_start.min()), duration)
        while now < duration - 1e-12:
            span = min(rtt, duration - now)
            j = int(np.searchsorted(boundaries, now + 1e-12, side="right"))
            if j < boundaries.size and boundaries[j] < now + span - 1e-12:
                span = float(boundaries[j]) - now
            self._run_round(now, rtt, fraction=span / rtt)
            now += span
            if trace is not None:
                trace.record("fluid", "round", time=now, engine="vector",
                             active=int((~self.done).sum()))
            stopping = has_stop & ~self.done & (now >= self.stop_time - 1e-12)
            if stopping.any():
                self.done[stopping] = True
                fill = stopping & np.isnan(self.completion)
                self.completion[fill] = self.stop_time[fill]
                if self.streamed.any():
                    self._fold_departed(np.nonzero(stopping)[0])
            if self.done.all():
                break

        elapsed = min(now, duration)
        # Streamed flows still alive at the horizon fold as incomplete.
        if self.streamed.any():
            self._fold_departed(np.nonzero(self.streamed & ~self._folded)[0])
            self._flush_folds(elapsed)
        outcomes = []
        records = []
        for i, spec in enumerate(self.specs):
            if self.streamed[i]:
                continue
            comp = (float(self.completion[i])
                    if not np.isnan(self.completion[i]) else None)
            end = comp if comp is not None else elapsed
            active_span = max(end - spec.start_time, 0.0)
            bytes_acked = int(self.bytes_acked[i])
            goodput = (bytes_acked * 8.0 / active_span
                       if active_span > 0 else 0.0)
            outcomes.append(FluidFlowOutcome(
                name=spec.name,
                algorithm=spec.cc,
                start_time=spec.start_time,
                duration=active_span,
                bytes_acked=bytes_acked,
                goodput_bps=goodput,
                send_stalls=int(self.send_stalls[i]),
                stall_times=list(self.stall_times[i]),
                congestion_signals=int(self.congestion_signals[i]),
                fast_retransmits=int(self.fast_retransmits[i]),
                other_reductions=int(self.other_reductions[i]),
                pkts_retrans=int(self.pkts_retrans[i]),
                final_cwnd=float(self.cwnd[i]),
                final_ssthresh=float(self.ssthresh[i]),
                max_cwnd=float(self.max_cwnd[i]),
                completion_time=comp,
            ))
            if self._acc is not None:
                record = self._record_for(i, elapsed)
                self._acc.add(record)
                records.append(record)
        return FluidMultiFlowResult(
            config=self.config,
            duration=elapsed,
            seed=self.seed,
            flows=outcomes,
            bottleneck_loss_events=self.bottleneck_loss_events,
            total_send_stalls=int(self.send_stalls.sum()),
            ifq_peaks={key: float(self.ifq_peak[i])
                       for i, key in enumerate(self.ifq_keys)},
            steps=self.steps,
            records=records,
            summary=self._acc.finalize() if self._acc is not None else None,
        )
