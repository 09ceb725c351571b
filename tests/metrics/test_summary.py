"""Tests for the streaming population summary accumulator.

Covers the edge cases the renderers must survive (empty population,
all-incomplete, single flow), the bounded-memory machinery (quantile
reservoir decimation, grid histograms), the streaming == batch contract,
and hypothesis invariants (percentile ordering, fold-order invariance).
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import codec
from repro.analysis import jain_fairness_index
from repro.analysis.timeseries import cumulative_count_series
from repro.errors import DocumentError
from repro.metrics import (
    FlowRecord,
    PopulationSummary,
    SummaryAccumulator,
    summarize_records,
)


def _record(i, start=0.0, end=None, goodput=1e6, bytes_acked=1000,
            cc="reno", stalls=0, losses=0, retrans=0):
    return FlowRecord(
        flow_id=f"flow{i}:{cc}", cc=cc, start_time=start,
        completion_time=end, bytes_acked=bytes_acked, goodput_bps=goodput,
        send_stalls=stalls, loss_events=losses, retransmits=retrans)


class TestConstruction:
    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_nonpositive_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            SummaryAccumulator(horizon)

    def test_too_few_grid_points_rejected(self):
        with pytest.raises(ValueError, match="grid_points"):
            SummaryAccumulator(10.0, grid_points=1)

    def test_nonpositive_quantile_cap_rejected(self):
        with pytest.raises(ValueError, match="quantile_cap"):
            SummaryAccumulator(10.0, quantile_cap=0)


class TestEdgeCases:
    def test_empty_population(self):
        summary = SummaryAccumulator(10.0, grid_points=5).finalize()
        assert summary.n_flows == 0
        assert summary.jain_index is None  # fairness of nothing is undefined
        assert summary.fct.count == 0
        assert summary.fct.mean is None
        assert summary.mean_concurrency == 0.0
        assert summary.peak_concurrency == 0
        assert summary.concurrent_flows == (0, 0, 0, 0, 0)
        assert summary.by_class == {} and summary.by_cc == {}

    def test_all_incomplete_population(self):
        # open-ended flows: FCT is over the completed subset (here empty),
        # but the population totals still count every flow
        summary = summarize_records(
            [_record(i, goodput=1e6) for i in range(4)], horizon=10.0)
        assert summary.n_flows == 4
        assert summary.n_completed == 0
        assert summary.fct.count == 0
        assert summary.fct.p99 is None
        assert summary.jain_index == pytest.approx(1.0)
        assert summary.mean_concurrency == pytest.approx(4.0)

    def test_single_flow(self):
        summary = summarize_records(
            [_record(0, start=2.0, end=6.0, goodput=5e5, bytes_acked=250_000,
                     stalls=1, losses=2, retrans=3)], horizon=10.0)
        assert summary.n_flows == summary.n_completed == 1
        assert summary.jain_index == pytest.approx(1.0)
        assert summary.fct.count == 1
        assert summary.fct.mean == pytest.approx(4.0)
        assert summary.fct.ci95 is None  # needs two samples
        assert summary.fct.p50 == summary.fct.p90 == summary.fct.p99 == 4.0
        assert summary.mean_concurrency == pytest.approx(0.4)
        assert summary.peak_concurrency == 1
        assert summary.total_send_stalls == 1
        assert summary.total_loss_events == 2
        assert summary.total_retransmits == 3

    def test_all_zero_goodput_is_perfectly_fair(self):
        summary = summarize_records(
            [_record(i, goodput=0.0) for i in range(3)], horizon=1.0)
        assert summary.jain_index == 1.0

    def test_spans_clamped_to_horizon(self):
        # a flow completing past the horizon contributes active time only
        # up to the horizon, and never a negative span
        summary = summarize_records(
            [_record(0, start=8.0, end=15.0), _record(1, start=12.0, end=14.0)],
            horizon=10.0)
        assert summary.mean_concurrency == pytest.approx(0.2)


class TestStatistics:
    def test_jain_matches_batch_implementation(self):
        goodputs = [1e6, 3e6, 0.0, 7.5e5]
        summary = summarize_records(
            [_record(i, goodput=g) for i, g in enumerate(goodputs)],
            horizon=5.0)
        assert summary.jain_index == pytest.approx(
            jain_fairness_index(goodputs), rel=1e-12)

    def test_fct_percentiles_match_numpy(self):
        fcts = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0]
        summary = summarize_records(
            [_record(i, start=1.0, end=1.0 + f) for i, f in enumerate(fcts)],
            horizon=40.0)
        assert not summary.approx_quantiles
        assert summary.fct.mean == pytest.approx(np.mean(fcts))
        assert summary.fct.p50 == pytest.approx(np.percentile(fcts, 50))
        assert summary.fct.p90 == pytest.approx(np.percentile(fcts, 90))
        assert summary.fct.p99 == pytest.approx(np.percentile(fcts, 99))
        sem = np.std(fcts, ddof=1) / np.sqrt(len(fcts))
        assert summary.fct.ci95 == pytest.approx(1.96 * sem)

    def test_group_aggregates(self):
        records = [
            _record(0, cc="reno", goodput=1e6, end=2.0, bytes_acked=10),
            _record(1, cc="reno", goodput=3e6, bytes_acked=20),
            _record(2, cc="restricted", goodput=2e6, end=3.0, bytes_acked=30),
        ]
        summary = summarize_records(records, horizon=5.0)
        reno = summary.by_cc["reno"]
        assert reno.flows == 2 and reno.completed == 1
        # the aggregate is delivered bits over the horizon, the mean per-flow
        assert reno.aggregate_goodput_bps == pytest.approx(30 * 8 / 5.0)
        assert summary.aggregate_goodput_bps == pytest.approx(60 * 8 / 5.0)
        assert reno.mean_goodput_bps == pytest.approx(2e6)
        assert reno.bytes_acked == 30
        assert summary.by_cc["restricted"].flows == 1
        assert summary.by_class["declared"].flows == 3

    def test_concurrency_matches_event_replay(self):
        # the histogram/cumsum form must agree with an explicit replay of
        # start/end events via the analysis helpers
        records = [
            _record(0, start=0.0, end=4.0),
            _record(1, start=1.0, end=9.0),
            _record(2, start=1.0),           # never completes
            _record(3, start=6.5, end=7.0),
        ]
        summary = summarize_records(records, horizon=10.0, grid_points=41)
        grid = np.asarray(summary.grid_times)
        starts = [r.start_time for r in records]
        ends = [r.completion_time for r in records if r.completion_time is not None]
        expected = (cumulative_count_series(starts, grid)
                    - cumulative_count_series(ends, grid))
        assert list(summary.concurrent_flows) == [int(c) for c in expected]
        assert summary.peak_concurrency == 3
        # exact active time: 4 + 8 + 9 + 0.5 over a 10 s horizon
        assert summary.mean_concurrency == pytest.approx(2.15)


class TestStreamingEqualsBatch:
    def test_incremental_folds_match_batch(self):
        records = [_record(i, start=0.1 * i, end=0.1 * i + 1.0,
                           goodput=1e5 * (i + 1)) for i in range(50)]
        acc = SummaryAccumulator(10.0)
        for record in records:
            acc.add(record)
        assert codec.encode(acc.finalize()) == codec.encode(summarize_records(
            records, horizon=10.0))

    def test_finalize_is_non_destructive(self):
        acc = SummaryAccumulator(10.0)
        acc.add(_record(0, end=1.0))
        first = acc.finalize()
        acc.add(_record(1, end=2.0))
        assert first.n_flows == 1
        assert acc.finalize().n_flows == 2


class TestQuantileReservoir:
    def test_exact_below_compression_threshold(self):
        cap = 8
        summary = summarize_records(
            [_record(i, end=float(i + 1)) for i in range(2 * cap - 1)],
            horizon=100.0, quantile_cap=cap)
        assert not summary.approx_quantiles

    def test_decimation_keeps_quantiles_close(self):
        fcts = list(1.0 + 99.0 * np.random.default_rng(11).random(500))
        exact = summarize_records(
            [_record(i, end=f) for i, f in enumerate(fcts)], horizon=100.0)
        approx = summarize_records(
            [_record(i, end=f) for i, f in enumerate(fcts)], horizon=100.0,
            quantile_cap=16)
        assert not exact.approx_quantiles
        assert approx.approx_quantiles
        # decimation halves the sample, the quantiles stay representative
        for q in ("p50", "p90", "p99"):
            assert getattr(approx.fct, q) == pytest.approx(
                getattr(exact.fct, q), rel=0.15)
        # moment statistics never go through the reservoir: still exact
        assert approx.fct.mean == pytest.approx(exact.fct.mean)
        assert approx.fct.count == exact.fct.count == 500


class TestInvariants:
    fct_lists = st.lists(
        st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=60)

    @given(fcts=fct_lists)
    @settings(max_examples=40, deadline=None)
    def test_percentiles_are_monotone(self, fcts):
        summary = summarize_records(
            [_record(i, end=f) for i, f in enumerate(fcts)], horizon=60.0)
        assert summary.fct.p50 <= summary.fct.p90 <= summary.fct.p99
        assert min(fcts) <= summary.fct.p50
        assert summary.fct.p99 <= max(fcts)

    @given(fcts=fct_lists, seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=40, deadline=None)
    def test_fold_order_invariance(self, fcts, seed):
        records = [_record(i, end=f, goodput=10.0 * i)
                   for i, f in enumerate(fcts)]
        shuffled = list(records)
        np.random.default_rng(seed).shuffle(shuffled)
        a = codec.encode(summarize_records(records, horizon=60.0))
        b = codec.encode(summarize_records(shuffled, horizon=60.0))
        # float sums may differ in the last bits under reordering
        assert a.keys() == b.keys()
        assert a["fct"]["p50"] == b["fct"]["p50"]
        assert a["concurrent_flows"] == b["concurrent_flows"]
        assert a["aggregate_goodput_bps"] == pytest.approx(
            b["aggregate_goodput_bps"], rel=1e-9)
        assert (a["jain_index"] is None) == (b["jain_index"] is None)
        if a["jain_index"] is not None:
            assert a["jain_index"] == pytest.approx(b["jain_index"], rel=1e-9)


class TestSerialization:
    def test_round_trip(self):
        records = [
            _record(0, cc="reno", start=0.0, end=2.0, goodput=1e6),
            _record(1, cc="restricted", start=1.0, goodput=2e6, stalls=1),
        ]
        summary = summarize_records(records, horizon=5.0)
        clone = codec.decode(PopulationSummary, codec.encode(summary))
        assert clone == summary
        assert codec.encode(clone) == codec.encode(summary)

    def test_json_round_trip(self):
        summary = summarize_records([_record(0, cc="reno", end=2.0)], horizon=5.0)
        text = json.dumps(codec.encode(summary))
        assert codec.decode(PopulationSummary, json.loads(text)) == summary

    def test_empty_round_trip(self):
        summary = SummaryAccumulator(3.0).finalize()
        assert codec.decode(PopulationSummary, codec.encode(summary)) == summary

    def test_groups_are_in_key_order(self):
        # first seen: restricted, then reno; the summary lists reno first,
        # so its groups read the same with or without sort_keys
        records = [_record(0, cc="restricted"),
                   dataclasses.replace(_record(1, cc="reno"), class_label="churn")]
        summary = summarize_records(records, horizon=5.0)
        document = codec.encode(summary)
        assert list(document["by_cc"]) == ["reno", "restricted"]
        assert list(document["by_class"]) == ["churn", "declared"]

    def test_unknown_field_rejected(self):
        data = codec.encode(SummaryAccumulator(3.0).finalize())
        data["median_rtt"] = 0.02
        with pytest.raises(DocumentError, match="unknown PopulationSummary"):
            codec.decode(PopulationSummary, data)

    def test_nested_unknown_field_rejected(self):
        data = codec.encode(SummaryAccumulator(3.0).finalize())
        data["fct"]["p75"] = 1.0
        with pytest.raises(DocumentError, match="unknown PercentileStats"):
            codec.decode(PopulationSummary, data)

    def test_nested_group_unknown_field_rejected(self):
        data = codec.encode(summarize_records([_record(0)], horizon=5.0))
        data["by_cc"]["reno"]["rtt"] = 0.02
        with pytest.raises(DocumentError, match="unknown ClassAggregate"):
            codec.decode(PopulationSummary, data)
