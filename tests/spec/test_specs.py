"""Tests for the declarative spec layer: round-tripping, dispatch, pickling."""

from __future__ import annotations

import json
import pickle
import warnings

import numpy as np
import pytest

from repro.errors import ExperimentError, UnsupportedScenarioError
from repro.spec import (
    ComparisonSpec,
    MultiFlowSpec,
    RunSpec,
    SweepSpec,
    dumbbell,
    dump_spec,
    execute,
    load_spec,
    spec_from_dict,
    spec_from_json,
)
from repro.core import RestrictedSlowStartConfig
from repro.experiments.parallel import map_specs
from repro.experiments.results_io import save_result
from repro.tcp.state import LocalCongestionPolicy
from repro.testing import SMALL_PATH
from repro.workloads import BulkFlowSpec


def _roundtrip(spec):
    return spec_from_json(spec.to_json())


SPEC_EXAMPLES = [
    RunSpec(cc="restricted", config=SMALL_PATH, duration=2.0, seed=3,
            rss_config=RestrictedSlowStartConfig.for_path(SMALL_PATH.rtt),
            local_congestion_policy=LocalCongestionPolicy.IGNORE),
    RunSpec(cc="reno", config=SMALL_PATH, duration=1.0, total_bytes=50_000,
            run_past_duration_until_complete=True, backend="fluid"),
    ComparisonSpec(base=RunSpec(config=SMALL_PATH, duration=1.5, seed=2)),
    MultiFlowSpec(flows=(BulkFlowSpec(cc="reno"),
                         BulkFlowSpec(cc="restricted", start_time=0.1)),
                  config=SMALL_PATH, duration=1.5, seed=2),
    SweepSpec(name="ifq_size_sweep", parameter="config.ifq_capacity_packets",
              values=(10, 60), base=RunSpec(config=SMALL_PATH, duration=1.0)),
    SweepSpec(name="bandwidth_sweep", parameter="config.bottleneck_rate_bps",
              values=(10.0, 20.0), field_values=(1e7, 2e7),
              parameter_label="bottleneck_mbps",
              base=RunSpec(config=SMALL_PATH, duration=1.0, backend="fluid")),
]


class TestRoundTrip:
    @pytest.mark.parametrize("spec", SPEC_EXAMPLES,
                             ids=lambda s: f"{s.kind}:{s.cache_key()[:8]}")
    def test_json_round_trip_preserves_equality_and_cache_key(self, spec):
        clone = _roundtrip(spec)
        assert clone == spec
        assert type(clone) is type(spec)
        assert clone.cache_key() == spec.cache_key()

    def test_run_spec_executes_identically_after_round_trip(self):
        for backend in ("packet", "fluid"):
            spec = RunSpec(cc="restricted", config=SMALL_PATH, duration=1.5,
                           seed=4, backend=backend)
            original = execute(spec)
            replayed = execute(_roundtrip(spec))
            assert replayed.flow.bytes_acked == original.flow.bytes_acked
            assert replayed.flow.send_stalls == original.flow.send_stalls
            assert np.array_equal(replayed.cwnd_segments, original.cwnd_segments)
            assert np.array_equal(replayed.ifq_occupancy, original.ifq_occupancy)

    def test_sweep_executes_identically_after_round_trip(self):
        spec = SweepSpec(name="ifq_size_sweep",
                         parameter="config.ifq_capacity_packets",
                         values=(10, 60),
                         base=RunSpec(config=SMALL_PATH, duration=1.0, seed=2,
                                      backend="fluid"))
        original = execute(spec, max_workers=1)
        replayed = execute(_roundtrip(spec), max_workers=1)
        assert replayed.rows == original.rows
        assert replayed.parameter == original.parameter

    def test_minimal_hand_written_document(self):
        spec = spec_from_dict({"kind": "run", "cc": "reno", "duration": 1.0,
                               "local_congestion_policy": "ignore"})
        assert spec.local_congestion_policy is LocalCongestionPolicy.IGNORE
        assert spec.config.rtt == 0.060  # defaults fill in

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="unknown spec kind"):
            spec_from_dict({"kind": "teleport"})

    def test_unknown_field_rejected(self):
        with pytest.raises(ExperimentError, match="unknown RunSpec field"):
            spec_from_dict({"kind": "run", "durration": 2.0})

    def test_unknown_nested_field_rejected(self):
        with pytest.raises(ExperimentError, match="unknown PathConfig field"):
            spec_from_dict({"kind": "run", "config": {"rtt_ms": 40}})
        with pytest.raises(ExperimentError,
                           match="unknown RestrictedSlowStartConfig field"):
            spec_from_dict({"kind": "run",
                            "rss_config": {"set_point": 0.9}})
        with pytest.raises(ExperimentError, match="local_congestion_policy"):
            spec_from_dict({"kind": "run",
                            "local_congestion_policy": "shrug"})

    def test_dump_and_load_spec_file(self, tmp_path):
        spec = SPEC_EXAMPLES[0]
        path = dump_spec(spec, tmp_path / "spec.json")
        assert load_spec(path) == spec
        json.loads(path.read_text())

    def test_load_spec_from_saved_result(self, tmp_path):
        spec = RunSpec(config=SMALL_PATH, duration=1.0, backend="fluid")
        result = execute(spec)
        path = save_result(result, tmp_path / "result.json")
        document = json.loads(path.read_text())
        assert document["cache_key"] == spec.cache_key()
        assert load_spec(path) == spec


class TestValidationAndDispatch:
    def test_unknown_backend_rejected_eagerly(self):
        with pytest.raises(ExperimentError, match="unknown backend"):
            RunSpec(backend="psychic")

    def test_execute_rejects_non_specs(self):
        with pytest.raises(ExperimentError, match="cannot execute"):
            execute({"kind": "run"})

    def test_multi_flow_backend_selection(self):
        spec = MultiFlowSpec(flows=(BulkFlowSpec(),), config=SMALL_PATH,
                             duration=1.0)
        assert spec.with_backend("packet") == spec
        fluid = spec.with_backend("fluid")
        assert fluid.backend == "fluid"
        # only engines with a multi-flow implementation are accepted
        with pytest.raises(ExperimentError, match="packet' or 'fluid"):
            spec.with_backend("warp")

    def test_multi_flow_fluid_rejects_unmodelled_algorithms(self):
        spec = MultiFlowSpec(flows=(BulkFlowSpec(cc="cubic"),),
                             config=SMALL_PATH, duration=1.0)
        with pytest.raises(ExperimentError, match="no growth rule"):
            spec.with_backend("fluid")

    @pytest.mark.parametrize("scenario", [None, dumbbell(SMALL_PATH, 1)],
                             ids=["bare", "declared"])
    def test_fluid_run_rejects_unmodelled_algorithm_at_construction(self, scenario):
        with pytest.raises(UnsupportedScenarioError, match="no growth rule"):
            RunSpec(cc="cubic", config=SMALL_PATH, backend="fluid", scenario=scenario)

    @pytest.mark.parametrize("backend", ["packet", "fluid"])
    def test_multi_flow_path_index_out_of_range_rejected_at_construction(self, backend):
        flows = (BulkFlowSpec(cc="reno"), BulkFlowSpec(cc="reno", path_index=2))
        with pytest.raises(ExperimentError, match="path_index 2 out of range"):
            MultiFlowSpec(flows=flows, config=SMALL_PATH, duration=1.0,
                          backend=backend)

    def test_varied_rejects_unknown_field(self):
        with pytest.raises(ExperimentError, match="no field"):
            RunSpec().varied("warp_factor", 9)

    def test_varied_rejects_unset_nested_target(self):
        with pytest.raises(ExperimentError, match="set it on the base spec"):
            RunSpec().varied("rss_config.setpoint_fraction", 0.5)

    def test_varied_sets_nested_fields(self):
        spec = RunSpec(config=SMALL_PATH).varied("config.rtt", 0.080)
        assert spec.config.rtt == 0.080
        assert spec.config.ifq_capacity_packets == SMALL_PATH.ifq_capacity_packets

    def test_cache_key_distinguishes_specs(self):
        a = RunSpec(config=SMALL_PATH, seed=1)
        assert a.cache_key() == RunSpec(config=SMALL_PATH, seed=1).cache_key()
        assert a.cache_key() != a.replace(seed=2).cache_key()
        assert a.cache_key() != a.with_backend("fluid").cache_key()

    def test_cache_key_stable_across_int_float_equality(self):
        # equal specs must share one cache key regardless of numeric type
        a = RunSpec(config=SMALL_PATH, duration=2)
        b = RunSpec(config=SMALL_PATH, duration=2.0)
        assert a == b
        assert a.cache_key() == b.cache_key()

    def test_single_row_style_requires_one_algorithm(self):
        with pytest.raises(ExperimentError, match="exactly one algorithm"):
            SweepSpec(parameter="rss_config.setpoint_fraction", values=(0.9,),
                      row_style="single", algorithms=("reno", "restricted"))

    def test_fluid_warns_when_trace_interval_requested(self):
        spec = RunSpec(config=SMALL_PATH, duration=1.0, backend="fluid",
                       trace_interval=0.01)
        with pytest.warns(UserWarning, match="per round trip"):
            execute(spec)

    def test_fluid_native_resolution_does_not_warn(self):
        spec = RunSpec(config=SMALL_PATH, duration=1.0, backend="fluid")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            execute(spec)


class TestRestrictedCcKwargs:
    """A restricted ``RunSpec`` takes its controller from ``rss_config``
    alone, so ``cc_kwargs`` beside ``cc="restricted"`` are refused rather
    than silently ignored by both engines."""

    @pytest.mark.parametrize("backend", ["packet", "fluid"])
    @pytest.mark.parametrize("cc_kwargs", [{"setpoint_fraction": 0.3},
                                           {"no_such_field": 1}])
    def test_run_spec_refuses_them(self, backend, cc_kwargs):
        with pytest.raises(ExperimentError, match="rss_config"):
            RunSpec(cc="restricted", config=SMALL_PATH, backend=backend,
                    cc_kwargs=cc_kwargs)

    def test_deriving_restricted_from_a_base_with_them_is_refused(self):
        base = RunSpec(cc="limited_slow_start", config=SMALL_PATH,
                       cc_kwargs={"max_ssthresh_segments": 10})
        with pytest.raises(ExperimentError, match="cc='restricted'"):
            base.replace(cc="restricted")

    def test_comparison_expanding_to_restricted_is_refused_at_construction(self):
        base = RunSpec(cc="limited_slow_start", config=SMALL_PATH,
                       cc_kwargs={"max_ssthresh_segments": 10})
        with pytest.raises(ExperimentError, match="rss_config"):
            ComparisonSpec(base=base,
                           algorithms=("limited_slow_start", "restricted"),
                           baseline="limited_slow_start")

    def test_sweep_expanding_to_restricted_is_refused_at_construction(self):
        base = RunSpec(cc="limited_slow_start", config=SMALL_PATH,
                       cc_kwargs={"max_ssthresh_segments": 10})
        with pytest.raises(ExperimentError, match="rss_config"):
            SweepSpec(values=(10, 20), base=base,
                      algorithms=("limited_slow_start", "restricted"))

    def test_other_algorithms_and_empty_kwargs_are_accepted(self):
        base = RunSpec(cc="limited_slow_start", config=SMALL_PATH,
                       cc_kwargs={"max_ssthresh_segments": 10})
        comparison = ComparisonSpec(base=base,
                                    algorithms=("limited_slow_start", "reno"),
                                    baseline="reno")
        assert comparison.run_specs()["reno"].cc_kwargs == base.cc_kwargs
        assert RunSpec(cc="restricted", cc_kwargs={}).cc_kwargs == {}

    def test_a_stored_document_with_them_no_longer_decodes(self):
        document = RunSpec(cc="restricted", config=SMALL_PATH).to_dict()
        document["cc_kwargs"] = {"setpoint_fraction": 0.3}
        with pytest.raises(ExperimentError, match="rss_config"):
            spec_from_dict(document)

    def test_a_flows_declaration_still_honours_them(self):
        flow = BulkFlowSpec(cc="restricted", cc_kwargs={"no_such_field": 1})
        spec = MultiFlowSpec(flows=(flow,), config=SMALL_PATH, duration=1.0,
                             backend="fluid")
        with pytest.raises(ExperimentError, match="no_such_field"):
            execute(spec)


class TestCompositeFluidAlgorithms:
    """A fluid comparison or sweep names only algorithms with a fluid growth
    rule; any other fails when the composite is built, not when it runs."""

    def test_comparison_refuses_them_at_construction(self):
        with pytest.raises(UnsupportedScenarioError, match="cubic"):
            ComparisonSpec(base=RunSpec(backend="fluid"), algorithms=("reno", "cubic"))

    def test_sweep_refuses_them_at_construction(self):
        with pytest.raises(UnsupportedScenarioError, match="hystart"):
            SweepSpec(values=(10, 20), base=RunSpec(backend="fluid"),
                      algorithms=("restricted", "hystart"))

    def test_with_backend_refuses_them(self):
        packet = ComparisonSpec(algorithms=("reno", "cubic"))
        with pytest.raises(UnsupportedScenarioError, match="cubic"):
            packet.with_backend("fluid")

    def test_packet_and_fluid_capable_composites_still_build(self):
        algorithms = ("reno", "newreno", "limited_slow_start", "restricted")
        spec = ComparisonSpec(base=RunSpec(backend="fluid"), algorithms=algorithms)
        assert spec.cache_key() == ComparisonSpec(
            algorithms=algorithms).with_backend("fluid").cache_key()
        ComparisonSpec(algorithms=("reno", "cubic", "hystart"))


class TestPickling:
    @pytest.mark.parametrize("spec", SPEC_EXAMPLES,
                             ids=lambda s: f"{s.kind}:{s.cache_key()[:8]}")
    def test_specs_pickle(self, spec):
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_results_carry_provenance_across_the_process_pool(self):
        specs = [RunSpec(cc=cc, config=SMALL_PATH, duration=1.0, seed=2,
                         backend="fluid")
                 for cc in ("reno", "restricted")]
        serial = map_specs(specs, max_workers=1)
        pooled = map_specs(specs, max_workers=2)
        for spec, a, b in zip(specs, serial, pooled):
            assert a.spec == spec and b.spec == spec
            assert a.flow.bytes_acked == b.flow.bytes_acked
            assert np.array_equal(a.cwnd_segments, b.cwnd_segments)

    def test_packet_spec_through_the_pool(self):
        specs = [RunSpec(config=SMALL_PATH, duration=1.0, seed=s) for s in (1, 2)]
        results = map_specs(specs, max_workers=2)
        assert [r.seed for r in results] == [1, 2]
        assert all(r.flow.bytes_acked > 0 for r in results)
