"""Streaming population summaries over canonical flow records.

:class:`SummaryAccumulator` folds :class:`~repro.metrics.records.FlowRecord`
instances one at a time into bounded-memory state and emits a frozen
:class:`PopulationSummary`.  The batch helper :func:`summarize_records` is a
thin fold-all wrapper over the same accumulator, so batch and streaming
summaries agree by construction — the cross-engine parity suite relies on
there being exactly one implementation of every statistic.  The only other
entry point, the vectorized :meth:`SummaryAccumulator.add_arrays` batch
fold used by the vector engine's streamed churn, mirrors :meth:`add`
update-for-update and is pinned to it by the streamed-vs-materialized
parity tests.

Bounded-memory design notes:

* Jain's fairness index ``(Σx)² / (n·Σx²)`` is peak-normalization invariant
  (the normalization constant cancels), so the streaming form needs only
  ``Σg``, ``Σg²`` and ``n`` — it matches
  :func:`repro.analysis.metrics.jain_fairness_index` exactly.
* FCT mean and CI95 come from running sum / sum-of-squares.
* FCT percentiles use a deterministic decimating reservoir: values append
  raw until the buffer reaches ``2 × quantile_cap``, then it is sorted and
  every other element kept (the parity of the kept ranks alternates between
  compressions, so neither extreme is systematically retained or shed).
  Quantiles are *exact* for populations up to ``2 × quantile_cap − 1``
  completed flows (the 5k-flow churn benchmark stays exact at the default
  cap) and approximations beyond that;
  :attr:`PopulationSummary.approx_quantiles` reports which.
* The concurrent-flow series lives on a fixed ``grid_points``-point grid
  over ``[0, horizon]`` as start/end index histograms.  The grid sampling
  convention (value at ``t`` is the step level in effect at ``t``, flows
  active on ``[start, completion)``) matches
  :func:`repro.analysis.timeseries.resample_step`, which the test suite
  uses to cross-check the histogram form against an explicit event replay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .records import FlowRecord

__all__ = [
    "PercentileStats",
    "ClassAggregate",
    "PopulationSummary",
    "SummaryAccumulator",
    "summarize_records",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_QUANTILE_CAP",
]

#: Default number of grid points for the concurrent-flow time series.
DEFAULT_GRID_POINTS = 65
#: Default FCT reservoir half-size; quantiles are exact below ``2 × cap``.
DEFAULT_QUANTILE_CAP = 8192


@dataclass(frozen=True)
class PercentileStats:
    """Distribution summary of a sample (``None`` fields when undefined).

    ``count`` is the sample size the statistics were computed over; for FCT
    this is the number of *completed* flows, which may be smaller than the
    population.  ``ci95`` is the half-width of the normal-approximation 95%
    confidence interval on the mean (``None`` for fewer than two samples).
    """

    count: int = 0
    mean: float | None = None
    ci95: float | None = None
    p50: float | None = None
    p90: float | None = None
    p99: float | None = None


@dataclass(frozen=True)
class ClassAggregate:
    """Per-group (class label or congestion control) aggregate counters."""

    flows: int = 0
    completed: int = 0
    bytes_acked: int = 0
    aggregate_goodput_bps: float = 0.0
    mean_goodput_bps: float = 0.0


@dataclass(frozen=True)
class PopulationSummary:
    """Population-level statistics over a run's flow records.

    All goodput figures are bits/second; ``horizon`` is the nominal run
    duration the concurrency grid spans, and the measurement window of
    every aggregate: ``aggregate_goodput_bps`` (here and per group) is the
    bits the flows delivered divided by ``horizon``, while
    ``mean_goodput_bps`` and ``jain_index`` stay per-flow.  ``jain_index`` is ``None`` for an
    empty population (fairness of nothing is undefined).  ``by_class`` and
    ``by_cc`` hold their groups in key order, so the document
    :func:`repro.codec.encode` writes is the same with or without
    ``sort_keys``.
    """

    horizon: float
    n_flows: int = 0
    n_completed: int = 0
    aggregate_goodput_bps: float = 0.0
    mean_goodput_bps: float = 0.0
    jain_index: float | None = None
    total_bytes_acked: int = 0
    total_send_stalls: int = 0
    total_loss_events: int = 0
    total_retransmits: int = 0
    fct: PercentileStats = field(default_factory=PercentileStats)
    by_class: dict[str, ClassAggregate] = field(default_factory=dict)
    by_cc: dict[str, ClassAggregate] = field(default_factory=dict)
    grid_times: tuple[float, ...] = ()
    concurrent_flows: tuple[int, ...] = ()
    mean_concurrency: float = 0.0
    peak_concurrency: int = 0
    approx_quantiles: bool = False


class _GroupState:
    """Mutable accumulator state for one by-class / by-cc group."""

    __slots__ = ("flows", "completed", "bytes_acked", "goodput_sum")

    def __init__(self) -> None:
        self.flows = 0
        self.completed = 0
        self.bytes_acked = 0
        self.goodput_sum = 0.0

    def add(self, record: FlowRecord) -> None:
        self.flows += 1
        if record.completed:
            self.completed += 1
        self.bytes_acked += record.bytes_acked
        self.goodput_sum += record.goodput_bps

    def add_bulk(self, flows: int, completed: int, bytes_acked: int,
                 goodput_sum: float) -> None:
        self.flows += flows
        self.completed += completed
        self.bytes_acked += bytes_acked
        self.goodput_sum += goodput_sum

    def finalize(self, horizon: float) -> ClassAggregate:
        return ClassAggregate(
            flows=self.flows,
            completed=self.completed,
            bytes_acked=self.bytes_acked,
            aggregate_goodput_bps=self.bytes_acked * 8.0 / horizon,
            mean_goodput_bps=self.goodput_sum / self.flows if self.flows else 0.0,
        )


class SummaryAccumulator:
    """Fold flow records into a bounded-memory :class:`PopulationSummary`.

    Memory is O(``grid_points`` + ``quantile_cap`` + distinct groups),
    independent of the number of records folded — this is what lets the
    vector engine summarise a churned population at departure time without
    retaining one outcome object per flow.
    """

    def __init__(
        self,
        horizon: float,
        *,
        grid_points: int = DEFAULT_GRID_POINTS,
        quantile_cap: int = DEFAULT_QUANTILE_CAP,
    ) -> None:
        if not horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {horizon}")
        if grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {grid_points}")
        if quantile_cap < 1:
            raise ValueError(f"quantile_cap must be >= 1, got {quantile_cap}")
        self.horizon = float(horizon)
        self._grid = np.linspace(0.0, self.horizon, grid_points)
        self._quantile_cap = quantile_cap
        self._n_flows = 0
        self._n_completed = 0
        self._goodput_sum = 0.0
        self._goodput_sumsq = 0.0
        self._bytes_acked = 0
        self._send_stalls = 0
        self._loss_events = 0
        self._retransmits = 0
        self._fct_sum = 0.0
        self._fct_sumsq = 0.0
        self._fct_buf: list[float] = []
        self._fct_compressed = False
        self._fct_phase = 0
        # Concurrency: +1 at the first grid index >= start, -1 at the first
        # grid index >= completion, so flows count as active on
        # [start, completion) sampled right-continuously (same convention as
        # analysis.timeseries.resample_step).
        self._starts_hist = np.zeros(grid_points, dtype=np.int64)
        self._ends_hist = np.zeros(grid_points, dtype=np.int64)
        self._active_time = 0.0
        self._by_class: dict[str, _GroupState] = {}
        self._by_cc: dict[str, _GroupState] = {}

    @property
    def n_flows(self) -> int:
        return self._n_flows

    def add(self, record: FlowRecord) -> None:
        """Fold one record; the record need not be retained afterwards."""
        self._n_flows += 1
        self._goodput_sum += record.goodput_bps
        self._goodput_sumsq += record.goodput_bps * record.goodput_bps
        self._bytes_acked += record.bytes_acked
        self._send_stalls += record.send_stalls
        self._loss_events += record.loss_events
        self._retransmits += record.retransmits
        fct = record.fct
        if fct is not None:
            self._n_completed += 1
            self._fct_sum += fct
            self._fct_sumsq += fct * fct
            self._fct_buf.append(fct)
            if len(self._fct_buf) >= 2 * self._quantile_cap:
                self._fct_buf.sort()
                self._fct_buf = self._fct_buf[self._fct_phase::2]
                self._fct_phase ^= 1
                self._fct_compressed = True
        start = record.start_time
        end = record.completion_time
        i = int(np.searchsorted(self._grid, start, side="left"))
        if i < len(self._grid):
            self._starts_hist[i] += 1
        if end is not None:
            j = int(np.searchsorted(self._grid, end, side="left"))
            if j < len(self._grid):
                self._ends_hist[j] += 1
        span_end = self.horizon if end is None else min(end, self.horizon)
        self._active_time += max(0.0, span_end - min(start, self.horizon))
        self._by_class.setdefault(record.class_label, _GroupState()).add(record)
        self._by_cc.setdefault(record.cc, _GroupState()).add(record)

    def add_all(self, records: Iterable[FlowRecord]) -> None:
        for record in records:
            self.add(record)

    def add_arrays(
        self,
        *,
        class_label: str,
        cc: str,
        start_times: np.ndarray,
        completion_times: np.ndarray,
        bytes_acked: np.ndarray,
        goodput_bps: np.ndarray,
        send_stalls: np.ndarray,
        loss_events: np.ndarray,
        retransmits: np.ndarray,
    ) -> None:
        """Fold a homogeneous batch of flows in one vectorized pass.

        Array-valued counterpart of :meth:`add` for engines that hold flow
        state in NumPy arrays (the vector engine's streamed churn): one call
        replaces thousands of per-record folds, which is what keeps the
        metrics plane's overhead a rounding error next to the engine's own
        array passes.  ``completion_times`` uses ``NaN`` for flows that
        never completed.  All flows in the batch share one ``class_label``
        and ``cc``.  Statistically identical to folding the equivalent
        records one at a time, up to float summation order and — once the
        FCT reservoir compresses — the exact decimation boundaries.
        """
        starts = np.asarray(start_times, dtype=float)
        comp = np.asarray(completion_times, dtype=float)
        n = int(starts.size)
        if n == 0:
            return
        goodputs = np.asarray(goodput_bps, dtype=float)
        self._n_flows += n
        self._goodput_sum += float(goodputs.sum())
        self._goodput_sumsq += float((goodputs * goodputs).sum())
        batch_bytes = int(np.sum(bytes_acked))
        self._bytes_acked += batch_bytes
        self._send_stalls += int(np.sum(send_stalls))
        self._loss_events += int(np.sum(loss_events))
        self._retransmits += int(np.sum(retransmits))
        completed = ~np.isnan(comp)
        k = int(completed.sum())
        if k:
            fct = comp[completed] - starts[completed]
            self._n_completed += k
            self._fct_sum += float(fct.sum())
            self._fct_sumsq += float((fct * fct).sum())
            self._fct_buf.extend(fct.tolist())
            while len(self._fct_buf) >= 2 * self._quantile_cap:
                self._fct_buf.sort()
                self._fct_buf = self._fct_buf[self._fct_phase::2]
                self._fct_phase ^= 1
                self._fct_compressed = True
        i = np.searchsorted(self._grid, starts, side="left")
        np.add.at(self._starts_hist, i[i < len(self._grid)], 1)
        j = np.searchsorted(self._grid, comp[completed], side="left")
        np.add.at(self._ends_hist, j[j < len(self._grid)], 1)
        span_end = np.where(np.isnan(comp), self.horizon,
                            np.minimum(comp, self.horizon))
        self._active_time += float(
            np.maximum(0.0, span_end - np.minimum(starts, self.horizon)).sum())
        batch_goodput = float(goodputs.sum())
        self._by_class.setdefault(class_label, _GroupState()).add_bulk(
            n, k, batch_bytes, batch_goodput)
        self._by_cc.setdefault(cc, _GroupState()).add_bulk(
            n, k, batch_bytes, batch_goodput)

    def _fct_stats(self) -> PercentileStats:
        n = self._n_completed
        if n == 0:
            return PercentileStats(count=0)
        mean = self._fct_sum / n
        ci95: float | None = None
        if n >= 2:
            var = max(0.0, (self._fct_sumsq - self._fct_sum * self._fct_sum / n) / (n - 1))
            ci95 = 1.96 * math.sqrt(var / n)
        buf = np.asarray(self._fct_buf, dtype=float)
        p50, p90, p99 = (float(q) for q in np.percentile(buf, [50.0, 90.0, 99.0]))
        return PercentileStats(count=n, mean=mean, ci95=ci95, p50=p50, p90=p90, p99=p99)

    def finalize(self) -> PopulationSummary:
        """Emit the frozen summary; the accumulator may keep receiving adds."""
        n = self._n_flows
        jain: float | None = None
        if n:
            jain = (
                1.0
                if self._goodput_sumsq == 0.0
                else (self._goodput_sum * self._goodput_sum)
                / (n * self._goodput_sumsq)
            )
        concurrent = np.cumsum(self._starts_hist) - np.cumsum(self._ends_hist)
        return PopulationSummary(
            horizon=self.horizon,
            n_flows=n,
            n_completed=self._n_completed,
            aggregate_goodput_bps=self._bytes_acked * 8.0 / self.horizon,
            mean_goodput_bps=self._goodput_sum / n if n else 0.0,
            jain_index=jain,
            total_bytes_acked=self._bytes_acked,
            total_send_stalls=self._send_stalls,
            total_loss_events=self._loss_events,
            total_retransmits=self._retransmits,
            fct=self._fct_stats(),
            by_class={k: v.finalize(self.horizon)
                      for k, v in sorted(self._by_class.items())},
            by_cc={k: v.finalize(self.horizon) for k, v in sorted(self._by_cc.items())},
            grid_times=tuple(float(t) for t in self._grid),
            concurrent_flows=tuple(int(c) for c in concurrent),
            mean_concurrency=self._active_time / self.horizon,
            peak_concurrency=int(concurrent.max(initial=0)),
            approx_quantiles=self._fct_compressed,
        )


def summarize_records(
    records: Iterable[FlowRecord],
    horizon: float,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    quantile_cap: int = DEFAULT_QUANTILE_CAP,
) -> PopulationSummary:
    """Batch summary — a fold-all over :class:`SummaryAccumulator`."""
    acc = SummaryAccumulator(horizon, grid_points=grid_points, quantile_cap=quantile_cap)
    acc.add_all(records)
    return acc.finalize()
