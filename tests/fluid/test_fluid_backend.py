"""Tests for the fluid backend's integration with the experiment harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import SingleFlowResult, get_experiment, single_flow_summary
from repro.experiments.figure1 import figure1_from_comparison, figure1_spec
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.results_io import load_result, save_result
from repro.experiments.sweeps import ifq_sweep_spec, render_sweep
from repro.experiments.throughput import throughput_from_comparison, throughput_spec
from repro.spec import ComparisonSpec, RunSpec, execute
from repro.testing import SMALL_PATH


class TestBackendDispatch:
    def test_fluid_returns_single_flow_result(self):
        result = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=2.0,
                                 backend="fluid"))
        assert isinstance(result, SingleFlowResult)
        assert result.backend == "fluid"
        assert result.flow.algorithm == "reno"
        assert result.flow.bytes_acked > 0
        assert len(result.ifq_times) == len(result.ifq_occupancy) > 0
        assert len(result.cwnd_times) == len(result.cwnd_segments) > 0
        assert result.telemetry.counters["fluid_steps"] > 0

    def test_packet_results_are_marked(self):
        result = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=1.0))
        assert result.backend == "packet"

    def test_summary_covers_fluid_result(self):
        result = execute(RunSpec(cc="restricted", config=SMALL_PATH, duration=2.0,
                                 backend="fluid"))
        summary = single_flow_summary(result)
        assert summary["algorithm"] == "restricted"
        assert summary["goodput_mbps"] > 0

    def test_comparison_threads_backend(self):
        comparison = execute(ComparisonSpec(
            base=RunSpec(config=SMALL_PATH, duration=2.0, seed=2, backend="fluid"),
            algorithms=("reno", "restricted")))
        assert comparison.runs["reno"].backend == "fluid"
        assert comparison.improvement_percent("restricted") > 0


class TestExperimentsOnFluid:
    def test_figure1_shape_holds_on_fluid(self):
        result = figure1_from_comparison(
            execute(figure1_spec(duration=3.0, config=SMALL_PATH, seed=2,
                                 backend="fluid")),
            sample_interval=0.5)
        assert result.shape_holds()
        assert result.standard_total >= 1
        assert result.proposed_total == 0
        assert (np.diff(result.standard_cumulative_stalls) >= 0).all()

    def test_throughput_improvement_on_fluid(self):
        result = throughput_from_comparison(execute(
            throughput_spec(config=SMALL_PATH, duration=3.0, seed=2, backend="fluid")))
        assert result.shape_holds()
        assert result.improvement_percent > 10.0

    def test_ifq_sweep_on_fluid(self):
        result = execute(ifq_sweep_spec(sizes=(10, 60), duration=2.0, seed=2,
                                        base_config=SMALL_PATH, backend="fluid"),
                         max_workers=1)
        assert len(result.rows) == 2
        small, large = result.row_for(10), result.row_for(60)
        assert small["reno_send_stalls"] >= large["reno_send_stalls"]
        assert "ifq_capacity_packets" in render_sweep(result)


class TestRegistryVariants:
    def test_fluid_variants_registered(self):
        for base in ("E1", "E2", "E3", "E4", "E5", "E6", "E10"):
            variant = f"{base}F"
            assert variant in EXPERIMENTS, variant
            assert "fluid" in EXPERIMENTS[variant].description

    def test_lookup_case_insensitive(self):
        assert get_experiment("e2f").paper_artifact == "Section 4 headline"

    def test_fluid_variant_runs_fast_path(self):
        spec = get_experiment("E2F")
        result = spec.run(config=SMALL_PATH, duration=2.0, seed=2)
        assert result.comparison.runs["reno"].backend == "fluid"

    def test_backend_aware_flags(self):
        # every packet entry selects its backend through with_backend;
        # derived fluid variants are pinned
        assert EXPERIMENTS["E2"].backend_aware
        assert EXPERIMENTS["E7"].backend_aware
        assert not EXPERIMENTS["E2F"].backend_aware
        assert not EXPERIMENTS["E7F"].backend_aware

    def test_fluid_variants_derive_from_packet_specs(self):
        for base_id in ("E1", "E2", "E3", "E4", "E5", "E6", "E10"):
            variant = EXPERIMENTS[f"{base_id}F"]
            assert variant.spec == EXPERIMENTS[base_id].spec.with_backend("fluid")
            assert variant.pinned_backend == "fluid"
            assert variant.base_id == base_id


class TestSerialisation:
    def test_fluid_result_round_trips_to_json(self, tmp_path):
        result = execute(RunSpec(cc="restricted", config=SMALL_PATH, duration=2.0,
                                 backend="fluid"))
        path = save_result(result, tmp_path / "fluid.json")
        document = load_result(path)
        assert document["kind"] == "single_flow"
        payload = document["payload"]
        assert payload["backend"] == "fluid"
        assert payload["flow"]["bytes_acked"] == result.flow.bytes_acked
        assert payload["ifq_occupancy"] == list(result.ifq_occupancy)

    def test_unknown_backend_raises_before_running(self):
        with pytest.raises(ExperimentError, match="backend"):
            execute(RunSpec(cc="reno", config=SMALL_PATH, duration=1.0,
                            backend="psychic"))


class TestDelayedStart:
    """RunSpec-level delayed starts on the single-flow fluid model.

    The scenario's first flow places the measured transfer; its declared
    ``start_time`` must delay the fluid integration exactly like the packet
    engine's delayed app launch — it used to be rejected as unsupported.
    """

    @staticmethod
    def delayed_scenario(start_time: float):
        import dataclasses

        from repro.spec import dumbbell

        scenario = dumbbell(SMALL_PATH, 1)
        return dataclasses.replace(
            scenario,
            flows=(dataclasses.replace(scenario.flows[0],
                                       start_time=start_time),))

    def test_delayed_start_accepted_by_fluid_spec(self):
        from repro.spec import RunSpec

        spec = RunSpec(cc="reno", scenario=self.delayed_scenario(1.0),
                       duration=3.0, backend="fluid")
        assert spec.scenario.flows[0].start_time == 1.0

    def test_delay_reduces_delivered_bytes(self):
        from repro.spec import RunSpec, execute

        prompt = execute(RunSpec(cc="reno", scenario=self.delayed_scenario(0.0),
                                 duration=3.0, backend="fluid"))
        delayed = execute(RunSpec(cc="reno", scenario=self.delayed_scenario(1.5),
                                  duration=3.0, backend="fluid"))
        assert 0 < delayed.flow.bytes_acked < prompt.flow.bytes_acked
        # traces begin at the app start, not at t=0
        assert delayed.ifq_times[0] == pytest.approx(1.5)

    def test_delayed_goodput_agrees_with_packet(self):
        from repro.fluid.validate import DEFAULT_TOLERANCE
        from repro.spec import RunSpec, execute

        scenario = self.delayed_scenario(1.0)
        packet = execute(RunSpec(cc="reno", scenario=scenario, duration=3.0,
                                 seed=2, backend="packet"))
        fluid = execute(RunSpec(cc="reno", scenario=scenario, duration=3.0,
                                seed=2, backend="fluid"))
        rel = (abs(fluid.flow.goodput_bps - packet.flow.goodput_bps)
               / packet.flow.goodput_bps)
        assert rel <= DEFAULT_TOLERANCE.goodput_rtol

    def test_start_after_horizon_moves_nothing(self):
        from repro.spec import RunSpec, execute

        result = execute(RunSpec(cc="reno", scenario=self.delayed_scenario(10.0),
                                 duration=2.0, backend="fluid"))
        assert result.flow.bytes_acked == 0
        assert result.flow.goodput_bps == 0.0

    def test_delayed_start_with_stop_hook(self):
        import dataclasses

        from repro.spec import RunSpec, execute

        scenario = self.delayed_scenario(1.0)
        scenario = dataclasses.replace(
            scenario,
            flows=(dataclasses.replace(scenario.flows[0], duration=1.0),))
        result = execute(RunSpec(cc="reno", scenario=scenario, duration=5.0,
                                 backend="fluid"))
        # the sender stops offering data at start_time + duration = 2.0 s
        assert result.flow.completion_time == pytest.approx(2.0)

    def test_model_rejects_negative_start(self):
        from repro.fluid.model import FluidFlowModel, fluid_growth_rule

        rule = fluid_growth_rule("reno", SMALL_PATH)
        with pytest.raises(ExperimentError, match="start_time"):
            FluidFlowModel(SMALL_PATH, rule, start_time=-1.0)
