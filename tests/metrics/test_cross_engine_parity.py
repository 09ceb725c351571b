"""Cross-engine parity of the unified metrics plane.

All three engines — the event-driven packet simulator, the scalar per-RTT
fluid model and the vectorized population model — emit canonical
:class:`~repro.metrics.FlowRecord` lists and a
:class:`~repro.metrics.PopulationSummary` built by the same accumulator.
This suite pins the contract down:

* packet vs fluid on the fairness grid: population-level summary figures
  agree within the documented cross-validation tolerances (aggregate
  goodput 25% rtol, Jain index ±0.05);
* scalar vs vector fluid on one mix: summaries match to float noise;
* streamed vs materialised churn on one vector population: identical
  summaries (streaming changes memory behaviour, never the statistics).
"""

from __future__ import annotations

import pytest

from repro import codec
from repro.fluid import FluidFlowInput, FluidPopulationModel, fluid_growth_rule
from repro.fluid.backend import execute_fluid_multi_flow
from repro.metrics import PopulationSummary
from repro.spec import MultiFlowSpec, dumbbell, execute
from repro.testing import SMALL_PATH

#: The fairness-grid mixes and tolerances of the fluid validation gate.
GRID = [
    ("homogeneous_reno",
     lambda: dumbbell(SMALL_PATH, 2, ccs="reno", start_times=(0.0, 0.1))),
    ("reno_vs_restricted",
     lambda: dumbbell(SMALL_PATH, 2, ccs=("reno", "restricted"),
                      start_times=(0.0, 0.1))),
    ("staggered_starts",
     lambda: dumbbell(SMALL_PATH, 2, ccs="reno", start_times=(0.0, 1.0))),
]
AGGREGATE_RTOL = 0.25
JAIN_ATOL = 0.05
DURATION = 20.0


class TestPacketVsFluid:
    @pytest.fixture(scope="class", params=[label for label, _ in GRID])
    def pair(self, request):
        scenario = dict(GRID)[request.param]()
        results = {}
        for backend in ("packet", "fluid"):
            spec = MultiFlowSpec(scenario=scenario, duration=DURATION,
                                 seed=2, backend=backend)
            results[backend] = execute(spec)
        return results

    def test_both_backends_emit_the_metrics_plane(self, pair):
        for result in pair.values():
            assert isinstance(result.summary, PopulationSummary)
            assert len(result.records) == len(result.flows)
            assert result.summary.n_flows == len(result.flows)
            assert result.summary.horizon == DURATION

    def test_records_mirror_the_flows(self, pair):
        for result in pair.values():
            by_id = {r.flow_id: r for r in result.records}
            for flow in result.flows:
                record = by_id[flow.name]
                assert record.cc == flow.algorithm
                assert record.goodput_bps == pytest.approx(flow.goodput_bps)
                assert record.bytes_acked == flow.bytes_acked

    def test_summary_agrees_with_result_aggregates(self, pair):
        for result in pair.values():
            assert result.summary.aggregate_goodput_bps == pytest.approx(
                result.aggregate_goodput_bps, rel=1e-9)
            assert result.summary.jain_index == pytest.approx(
                result.jain_index, rel=1e-9)

    def test_aggregate_goodput_within_tolerance(self, pair):
        packet = pair["packet"].summary
        fluid = pair["fluid"].summary
        assert fluid.aggregate_goodput_bps == pytest.approx(
            packet.aggregate_goodput_bps, rel=AGGREGATE_RTOL)

    def test_jain_within_tolerance(self, pair):
        packet = pair["packet"].summary
        fluid = pair["fluid"].summary
        assert abs(fluid.jain_index - packet.jain_index) <= JAIN_ATOL

    def test_concurrency_grids_agree(self, pair):
        # both backends saw the same declared start times on the same grid
        packet = pair["packet"].summary
        fluid = pair["fluid"].summary
        assert packet.grid_times == fluid.grid_times
        assert packet.peak_concurrency == fluid.peak_concurrency == 2


class TestScalarVsVector:
    def test_summaries_match(self):
        spec = MultiFlowSpec(
            scenario=dumbbell(SMALL_PATH, 2, ccs=("reno", "restricted"),
                              start_times=(0.0, 0.5)),
            duration=8.0, seed=2, backend="fluid")
        scalar = execute_fluid_multi_flow(spec, engine="scalar").summary
        vector = execute_fluid_multi_flow(spec, engine="vector").summary
        assert scalar.n_flows == vector.n_flows
        assert scalar.n_completed == vector.n_completed
        assert scalar.aggregate_goodput_bps == pytest.approx(
            vector.aggregate_goodput_bps, rel=1e-6)
        assert scalar.jain_index == pytest.approx(vector.jain_index, rel=1e-6)
        assert scalar.concurrent_flows == vector.concurrent_flows
        assert scalar.by_cc.keys() == vector.by_cc.keys()


class TestStreamedVsMaterialized:
    def _inputs(self):
        rule = fluid_growth_rule("reno", SMALL_PATH)
        declared = [
            FluidFlowInput(name=f"flow{i}:reno", cc="reno", rule=rule, ifq=i)
            for i in range(2)
        ]
        churned = [
            FluidFlowInput(name=f"churn{i}:reno", cc="reno", rule=rule,
                           ifq=i % 2, start_time=0.3 * i,
                           total_bytes=200_000 * (1 + i % 3),
                           quantize_start=True)
            for i in range(12)
        ]
        return declared + churned

    @staticmethod
    def _assert_same(a, b, path=""):
        # streamed folds in departure order, materialised in declaration
        # order, so float sums may differ in the last bits — nothing else may
        assert type(a) is type(b), path
        if isinstance(a, dict):
            assert a.keys() == b.keys(), path
            for k in a:
                TestStreamedVsMaterialized._assert_same(a[k], b[k],
                                                        f"{path}.{k}")
        elif isinstance(a, list):
            assert len(a) == len(b), path
            for i, (x, y) in enumerate(zip(a, b)):
                TestStreamedVsMaterialized._assert_same(x, y, f"{path}[{i}]")
        elif isinstance(a, float):
            assert a == pytest.approx(b, rel=1e-9), path
        else:
            assert a == b, path

    def test_streaming_changes_memory_not_statistics(self):
        streamed = FluidPopulationModel(
            SMALL_PATH, self._inputs(), seed=2, stream_churned=True).run(6.0)
        materialized = FluidPopulationModel(
            SMALL_PATH, self._inputs(), seed=2, stream_churned=False).run(6.0)
        self._assert_same(codec.encode(streamed.summary),
                          codec.encode(materialized.summary))
        # the streamed run materialises declared outcomes only
        assert len(streamed.flows) == 2
        assert len(materialized.flows) == 14
        assert len(streamed.records) == 2
        assert streamed.summary.by_class["churn"].flows == 12
