"""Tests for the N-flow coupled fluid model (fairness fast path).

Covers the model's couplings (allocator, shared IFQ, staggered starts,
stop times), the ``MultiFlowSpec(backend="fluid")`` dispatch surface, the
multi-flow shape gate, and the fairness parity suite required by the
cross-validation tolerances (Jain ±0.05, goodput ordering preserved).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ExperimentError, UnsupportedScenarioError
from repro.fluid import (
    FluidFlowInput,
    FluidMultiFlowModel,
    cross_validate_fairness,
    fluid_growth_rule,
)
from repro.spec import (
    MultiFlowSpec,
    asymmetric_path,
    dumbbell,
    execute,
    fluid_multiflow_unsupported_features,
    lossy_link,
    parking_lot,
    shared_path,
    spec_from_json,
)
from repro.spec.scenario import ScenarioSpec
from repro.testing import SMALL_PATH, TINY_PATH
from repro.workloads.bulk import BulkFlowSpec

pytestmark = []


def _flows(n, cc="reno", starts=None, stops=None, ifqs=None, total=None):
    flows = []
    for i in range(n):
        flows.append(FluidFlowInput(
            name=f"f{i}", cc=cc, rule=fluid_growth_rule(cc, SMALL_PATH),
            ifq=ifqs[i] if ifqs is not None else i,
            start_time=starts[i] if starts is not None else 0.0,
            stop_time=stops[i] if stops is not None else None,
            total_bytes=total[i] if total is not None else None,
        ))
    return flows


class TestModel:
    def test_two_flows_share_the_bottleneck(self):
        result = FluidMultiFlowModel(SMALL_PATH, _flows(2)).run(10.0)
        goodputs = [f.goodput_bps for f in result.flows]
        aggregate = sum(goodputs)
        assert 0.7 * SMALL_PATH.bottleneck_rate_bps < aggregate \
            <= SMALL_PATH.bottleneck_rate_bps
        # symmetric flows end symmetric
        assert abs(goodputs[0] - goodputs[1]) / max(goodputs) < 0.1

    def test_staggered_start_is_honoured(self):
        result = FluidMultiFlowModel(
            SMALL_PATH, _flows(2, starts=(0.0, 5.0))).run(6.0)
        early, late = result.flows
        # the late flow only had ~1 s of transfer time
        assert late.bytes_acked < early.bytes_acked / 3
        assert late.duration == pytest.approx(1.0, abs=1e-6)

    def test_flow_not_started_moves_no_bytes(self):
        result = FluidMultiFlowModel(
            SMALL_PATH, _flows(2, starts=(0.0, 50.0))).run(5.0)
        assert result.flows[1].bytes_acked == 0
        assert result.flows[1].goodput_bps == 0.0

    def test_stop_time_is_honoured(self):
        result = FluidMultiFlowModel(
            SMALL_PATH, _flows(2, stops=(3.0, None))).run(10.0)
        stopped, running = result.flows
        assert stopped.completion_time == pytest.approx(3.0)
        # goodput is measured over the active window, not the whole run
        assert stopped.duration == pytest.approx(3.0)
        assert running.bytes_acked > stopped.bytes_acked
        # the survivor inherits the freed capacity
        assert running.goodput_bps > 0.6 * SMALL_PATH.bottleneck_rate_bps

    def test_finite_transfer_completes(self):
        total = 2_000_000
        result = FluidMultiFlowModel(
            SMALL_PATH, _flows(2, total=(total, None))).run(20.0)
        finite = result.flows[0]
        assert finite.bytes_acked == pytest.approx(total, rel=0.01)
        assert finite.completion_time is not None
        assert finite.completion_time < 20.0

    def test_shared_ifq_stalls_more_than_separate_ifqs(self):
        # flows sharing one sender queue contend for its headroom exactly
        # like the shared_path scenario; separate NICs leave burst slack
        shared = FluidMultiFlowModel(
            SMALL_PATH, _flows(2, ifqs=(0, 0))).run(10.0)
        separate = FluidMultiFlowModel(
            SMALL_PATH, _flows(2, ifqs=(0, 1))).run(10.0)
        assert shared.total_send_stalls >= separate.total_send_stalls
        assert len(shared.ifq_peaks) == 1
        assert len(separate.ifq_peaks) == 2

    def test_deterministic(self):
        a = FluidMultiFlowModel(SMALL_PATH, _flows(3)).run(8.0)
        b = FluidMultiFlowModel(SMALL_PATH, _flows(3)).run(8.0)
        assert [f.bytes_acked for f in a.flows] == [f.bytes_acked for f in b.flows]
        assert a.total_send_stalls == b.total_send_stalls

    def test_rejects_empty_flow_list(self):
        with pytest.raises(ExperimentError):
            FluidMultiFlowModel(SMALL_PATH, [])


class TestBackendDispatch:
    def test_scenario_spec_runs_fluid(self):
        spec = MultiFlowSpec(scenario=dumbbell(SMALL_PATH, 2, ccs="reno"),
                             duration=5.0, seed=2, backend="fluid")
        result = execute(spec)
        assert result.backend == "fluid"
        assert result.spec == spec
        assert len(result.flows) == 2
        assert all(f.bytes_acked > 0 for f in result.flows)
        assert 0.0 < result.jain_index <= 1.0
        assert result.aggregate_goodput_bps == pytest.approx(
            sum(f.goodput_bps for f in result.flows))

    def test_legacy_flows_form_runs_fluid(self):
        spec = MultiFlowSpec(
            flows=(BulkFlowSpec(cc="reno"), BulkFlowSpec(cc="restricted",
                                                         start_time=0.1)),
            config=SMALL_PATH, duration=4.0, backend="fluid")
        result = execute(spec)
        assert result.backend == "fluid"
        assert [f.algorithm for f in result.flows] == ["reno", "restricted"]

    def test_shared_paths_form_runs_fluid(self):
        spec = MultiFlowSpec(
            flows=(BulkFlowSpec(), BulkFlowSpec(start_time=0.1)),
            config=SMALL_PATH, duration=4.0, shared_paths=True,
            backend="fluid")
        result = execute(spec)
        assert result.backend == "fluid"
        assert result.total_send_stalls >= 1  # shared IFQ contention

    def test_packet_results_stay_tagged(self):
        spec = MultiFlowSpec(scenario=dumbbell(TINY_PATH, 2, ccs="reno"),
                             duration=1.5, seed=2)
        assert execute(spec).backend == "packet"

    def test_flow_names_match_packet_convention(self):
        spec = MultiFlowSpec(scenario=dumbbell(SMALL_PATH, 2,
                                               ccs=("reno", "restricted")),
                             duration=3.0, backend="fluid")
        result = execute(spec)
        assert [f.name for f in result.flows] == ["flow0:reno",
                                                 "flow1:restricted"]

    def test_backend_round_trips_through_json(self):
        spec = MultiFlowSpec(scenario=dumbbell(SMALL_PATH, 2, ccs="reno"),
                             duration=5.0, backend="fluid")
        clone = spec_from_json(spec.to_json())
        assert clone == spec
        assert clone.backend == "fluid"
        assert clone.cache_key() == spec.cache_key()
        assert clone.cache_key() != spec.with_backend("packet").cache_key()


class TestMultiflowGate:
    def test_accepts_canonical_mixes(self):
        for scenario in (
            dumbbell(SMALL_PATH, 2, ccs="reno"),
            dumbbell(SMALL_PATH, 4, ccs=("reno", "restricted",
                                         "limited_slow_start", "reno"),
                     start_times=(0.0, 0.5, 1.0, 1.5)),
            shared_path(SMALL_PATH, 3, ccs="reno"),
        ):
            assert fluid_multiflow_unsupported_features(scenario) == []
            MultiFlowSpec(scenario=scenario, backend="fluid")  # no raise

    def test_accepts_flow_durations(self):
        scenario = dumbbell(SMALL_PATH, 2, ccs="reno")
        scenario = scenario.replace(flows=(
            dataclasses.replace(scenario.flows[0], duration=2.0),
            scenario.flows[1]))
        assert fluid_multiflow_unsupported_features(scenario) == []

    @pytest.mark.parametrize("scenario,feature", [
        (parking_lot(SMALL_PATH, 3), "sender<k>->receiver<k>"),
        (lossy_link(SMALL_PATH, loss=0.01), "loss"),
        (lossy_link(SMALL_PATH, loss=0.01, n_flows=3), "loss"),
        (asymmetric_path(SMALL_PATH), "asymmetric"),
        (dumbbell(SMALL_PATH, 2, ccs="cubic"), "growth rule"),
    ], ids=["parking-lot", "lossy", "lossy-multi", "asymmetric", "cubic"])
    def test_rejections_name_the_feature(self, scenario, feature):
        assert feature in " ".join(fluid_multiflow_unsupported_features(scenario))
        with pytest.raises(UnsupportedScenarioError):
            MultiFlowSpec(scenario=scenario, duration=2.0, backend="fluid")

    def test_hand_written_topology_deviation_rejected(self):
        base = dumbbell(SMALL_PATH, 2, ccs="reno")
        links = list(base.topology.links)
        links[0] = dataclasses.replace(links[0], queue_ab_packets=7)
        tampered = ScenarioSpec(
            name="tampered", config=base.config,
            topology=dataclasses.replace(base.topology, links=tuple(links)),
            flows=base.flows)
        features = fluid_multiflow_unsupported_features(tampered)
        assert any("differs from the canonical" in f for f in features)

    def test_flows_on_one_pair_of_two_run_like_shared_paths(self):
        # the pair count comes from the topology, so flows that leave a
        # pair idle are still the canonical dumbbell; both flows share one
        # IFQ, exactly as with shared_paths=True
        ccs = ("reno", "restricted")

        def outcomes(**form):
            result = execute(MultiFlowSpec(config=SMALL_PATH, duration=5.0,
                                           backend="fluid", **form))
            return [(f.goodput_bps, f.send_stalls, f.congestion_signals,
                     f.pkts_retrans) for f in result.flows]

        shared = outcomes(flows=tuple(BulkFlowSpec(cc=cc) for cc in ccs),
                          shared_paths=True)
        for pair in (0, 1):
            flows = tuple(BulkFlowSpec(cc=cc, path_index=pair) for cc in ccs)
            assert outcomes(flows=flows) == shared

    def test_deviation_message_names_pair_count_and_link(self):
        base = dumbbell(SMALL_PATH, 3, ccs="reno")
        links = list(base.topology.links)
        links[3] = dataclasses.replace(links[3], delay_s=1.0)
        tampered = base.replace(
            flows=base.flows[:1],
            topology=dataclasses.replace(base.topology, links=tuple(links)))
        assert fluid_multiflow_unsupported_features(tampered) == [
            "a topology that differs from the canonical 3-pair dumbbell for "
            f"its config (first difference: link {links[3].name!r})"]

    def test_engine_refuses_an_unchecked_spec(self):
        from repro.fluid.backend import execute_fluid_multi_flow

        spec = MultiFlowSpec(scenario=parking_lot(SMALL_PATH, 3), duration=1.0)
        with pytest.raises(UnsupportedScenarioError, match="backend='packet'"):
            execute_fluid_multi_flow(spec)

    def test_cross_traffic_rejected(self):
        from repro.spec import CrossTrafficSpec

        base = dumbbell(SMALL_PATH, 2, ccs="reno")
        spec = base.replace(cross_traffic=(
            CrossTrafficSpec("sender0", "receiver0"),))
        assert "cross traffic" in " ".join(
            fluid_multiflow_unsupported_features(spec))


class TestFairnessParity:
    """The fairness parity suite: same spec on packet vs fluid.

    Three mixes (homogeneous reno, reno+restricted, staggered starts) at
    the tolerance-tuned 20 s horizon must agree on the Jain index within
    ±0.05 and preserve decisive per-flow goodput orderings.
    """

    @pytest.fixture(scope="class")
    def report(self):
        grid = [
            ("homogeneous_reno",
             dumbbell(SMALL_PATH, 2, ccs="reno", start_times=(0.0, 0.1))),
            ("reno_vs_restricted",
             dumbbell(SMALL_PATH, 2, ccs=("reno", "restricted"),
                      start_times=(0.0, 0.1))),
            ("staggered_starts",
             dumbbell(SMALL_PATH, 2, ccs="reno", start_times=(0.0, 1.0))),
        ]
        return cross_validate_fairness(grid=grid, duration=20.0, seed=2,
                                       max_workers=0)

    def test_three_mixes_compared(self, report):
        assert len(report.rows) == 3

    def test_jain_within_tolerance(self, report):
        for row in report.rows:
            assert row.jain_error <= 0.05, report.render()

    def test_aggregate_goodput_within_tolerance(self, report):
        for row in report.rows:
            assert row.aggregate_rel_error <= 0.25, report.render()

    def test_goodput_ordering_preserved(self, report):
        assert report.ok, report.render()

    def test_render_mentions_every_mix(self, report):
        text = report.render()
        for label in ("homogeneous_reno", "reno_vs_restricted",
                      "staggered_starts"):
            assert label in text


class TestScenarioVaried:
    def test_dotted_scenario_flow_field(self):
        spec = MultiFlowSpec(scenario=dumbbell(SMALL_PATH, 2, ccs="reno"),
                             duration=5.0)
        staggered = spec.varied("scenario.flows.1.start_time", 2.5)
        assert staggered.scenario.flows[1].start_time == 2.5
        assert staggered.scenario.flows[0].start_time == 0.0
        assert spec.scenario.flows[1].start_time == 0.0  # original untouched

    def test_dotted_index_out_of_range(self):
        spec = MultiFlowSpec(scenario=dumbbell(SMALL_PATH, 2, ccs="reno"),
                             duration=5.0)
        with pytest.raises(ExperimentError, match="out of range"):
            spec.varied("scenario.flows.7.start_time", 1.0)

    def test_dotted_non_integer_index(self):
        spec = MultiFlowSpec(scenario=dumbbell(SMALL_PATH, 2, ccs="reno"),
                             duration=5.0)
        with pytest.raises(ExperimentError, match="integer index"):
            spec.varied("scenario.flows.first.start_time", 1.0)

    def test_varied_revalidates(self):
        spec = MultiFlowSpec(scenario=dumbbell(SMALL_PATH, 2, ccs="reno"),
                             duration=5.0)
        with pytest.raises(ExperimentError, match="start_time"):
            spec.varied("scenario.flows.1.start_time", -3.0)

    def test_fairness_sweep_runs_on_both_backends(self):
        from repro.experiments.sweeps import fairness_sweep_spec

        for backend in ("packet", "fluid"):
            spec = fairness_sweep_spec(start_times=(0.0, 1.0), duration=1.5,
                                       seed=2, base_config=TINY_PATH,
                                       backend=backend)
            result = execute(spec, max_workers=1)
            assert len(result.rows) == 2
            assert all("jain_index" in row for row in result.rows)
            assert result.rows[0]["flow1_start"] == 0.0


class TestSingleFlowStop:
    def test_flow_duration_honoured_on_fluid_run_spec(self):
        from repro.spec import RunSpec

        scenario = dumbbell(SMALL_PATH, 1)
        scenario = scenario.replace(
            flows=(dataclasses.replace(scenario.flows[0], duration=2.0),))
        spec = RunSpec(scenario=scenario, duration=8.0, backend="fluid")
        result = execute(spec)
        full = execute(RunSpec(scenario=dumbbell(SMALL_PATH, 1),
                               duration=8.0, backend="fluid"))
        assert result.flow.completion_time == pytest.approx(2.0)
        assert result.flow.bytes_acked < full.flow.bytes_acked / 2
