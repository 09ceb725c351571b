"""Tests for the vectorized population fluid engine.

Covers scalar-vs-vector parity (the guard rail the vectorization rewrite is
validated against), the side-channel's call accounting and a bit-exact pin
of a restricted churn result, the N=1 parity suite across the single-flow,
multi-flow and population models, open-loop churn sampling and determinism, the
flow-count dispatch threshold, and the two multi-flow model bugfixes that
landed with the engine (annotation resolution, early-exit duration).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing

import pytest

import repro.fluid.model as fluid_model
import repro.fluid.vector as fluid_vector
from repro import codec
from repro.errors import ExperimentError, UnsupportedScenarioError
from repro.experiments.results_io import result_document
from repro.fluid import (
    VECTOR_FLOW_THRESHOLD,
    FlowArrivalSpec,
    FluidFlowInput,
    FluidFlowModel,
    FluidMultiFlowModel,
    FluidPopulationModel,
    cross_validate_population,
    fluid_growth_rule,
)
from repro.fluid.backend import _churn_inputs, execute_fluid_multi_flow
from repro.fluid.model import RestrictedFluid
from repro.sim.randomness import RandomStreams
from repro.spec import MultiFlowSpec, dumbbell, execute, shared_path, spec_from_json
from repro.tcp.state import LocalCongestionPolicy
from repro.testing import SMALL_PATH
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


def _mixed_flows():
    ccs = ("reno", "restricted", "limited_slow_start", "reno")
    return [
        FluidFlowInput(name=f"f{i}", cc=cc,
                       rule=fluid_growth_rule(cc, SMALL_PATH), ifq=i,
                       start_time=0.1 * i)
        for i, cc in enumerate(ccs)
    ]


#: A 3-packet IFQ and a 40-packet router buffer: restricted flows stall and
#: the router overflows, so every local congestion policy reacts.
TIGHT_PATH = SMALL_PATH.replace(ifq_capacity_packets=3, router_buffer_packets=40)


def _restricted_mix(path, n=9, ifqs=None):
    """Restricted, reno and limited slow-start flows, staggered, some finite."""
    ccs = ("restricted", "reno", "limited_slow_start")
    return [
        FluidFlowInput(name=f"m{i}", cc=ccs[i % 3],
                       rule=fluid_growth_rule(ccs[i % 3], path),
                       ifq=ifqs(i) if ifqs is not None else i,
                       start_time=0.2 * i,
                       total_bytes=None if i % 3 == 0 else 300_000 * (1 + i % 2))
        for i in range(n)
    ]


def _restricted_churn_spec():
    return MultiFlowSpec(
        scenario=dumbbell(SMALL_PATH, 2, ccs="restricted"),
        churn=FlowArrivalSpec(rate_per_s=40.0, mean_size_bytes=50_000,
                              size_dist="lognormal", cc="restricted"),
        duration=5.0, seed=3, backend="fluid")


def _document(result):
    """A whole engine result as canonical JSON lines (floats by repr): one
    line per flow outcome, then one for the rest, so a mismatch names the
    first flow that differs."""
    document = dataclasses.asdict(result)
    flows = document.pop("flows")
    return [json.dumps(item, sort_keys=True, default=repr)
            for item in [*flows, document]]


def _assert_reductions_follow_increments(log):
    """Each ``on_reduction`` of a flow comes after an ``increment`` of that
    flow since its previous ``on_reduction`` (``log``: ``(call, flow)``)."""
    updated = set()
    for call, flow in log:
        if call == "increment":
            updated.add(flow)
        elif call == "on_reduction":
            assert flow in updated, (
                f"on_reduction of flow {flow} with no increment since its "
                "last one")
            updated.discard(flow)


def _outcome_fields(result):
    return [
        (f.bytes_acked, f.send_stalls, f.congestion_signals,
         f.fast_retransmits, f.other_reductions, f.completion_time)
        for f in result.flows
    ]


class TestScalarVectorParity:
    """The vector engine integrates the same rounds as the scalar model."""

    @pytest.mark.parametrize("kwargs", [
        dict(n=2),
        dict(n=4, starts=(0.0, 0.1, 0.2, 0.3)),
        dict(n=2, starts=(0.0, 1.0)),
        dict(n=2, ifqs=(0, 0), starts=(0.0, 0.1)),
        dict(n=3, total=(200_000, 2_000_000, None)),
        dict(n=2, stops=(3.0, None)),
    ], ids=["pair", "x4_staggered", "late_join", "shared_ifq",
            "finite_sizes", "stop_time"])
    def test_reno_mixes_match_exactly(self, kwargs):
        scalar = FluidMultiFlowModel(SMALL_PATH, _flows(**kwargs)).run(10.0)
        vector = FluidPopulationModel(SMALL_PATH, _flows(**kwargs)).run(10.0)
        assert _outcome_fields(vector) == _outcome_fields(scalar)
        assert vector.duration == scalar.duration
        assert vector.steps == scalar.steps
        assert vector.bottleneck_loss_events == scalar.bottleneck_loss_events
        for f_s, f_v in zip(scalar.flows, vector.flows):
            assert f_v.goodput_bps == pytest.approx(f_s.goodput_bps, rel=1e-9)
            assert f_v.final_cwnd == pytest.approx(f_s.final_cwnd, rel=1e-9)
            assert f_v.max_cwnd == pytest.approx(f_s.max_cwnd, rel=1e-9)
            assert f_v.stall_times == pytest.approx(f_s.stall_times)
        for key in scalar.ifq_peaks:
            assert vector.ifq_peaks[key] == pytest.approx(
                scalar.ifq_peaks[key], rel=1e-9)

    def test_heterogeneous_mix_matches_exactly(self):
        # restricted flows ride the Python side-channel inside the
        # vectorized round; per-pair dumbbells stay bit-comparable
        scalar = FluidMultiFlowModel(SMALL_PATH, _mixed_flows()).run(15.0)
        vector = FluidPopulationModel(SMALL_PATH, _mixed_flows()).run(15.0)
        assert _outcome_fields(vector) == _outcome_fields(scalar)
        for f_s, f_v in zip(scalar.flows, vector.flows):
            assert f_v.goodput_bps == pytest.approx(f_s.goodput_bps, rel=1e-9)

    @pytest.mark.parametrize("policy", list(LocalCongestionPolicy),
                             ids=lambda p: p.value)
    def test_restricted_mixes_match_exactly_under_each_policy(self, policy):
        # one flow per pair: no in-IFQ sums, so every outcome field is equal
        # bit for bit, stall and loss reactions included.  Below 8 flows
        # numpy also sums the router total in the scalar model's order.
        options = TIGHT_PATH.tcp_options(local_congestion_policy=policy)
        scalar = FluidMultiFlowModel(TIGHT_PATH, _restricted_mix(TIGHT_PATH, n=7),
                                     options=options).run(10.0)
        vector = FluidPopulationModel(TIGHT_PATH, _restricted_mix(TIGHT_PATH, n=7),
                                      options=options).run(10.0)
        assert scalar.total_send_stalls > 0
        assert scalar.bottleneck_loss_events > 0
        assert ([dataclasses.asdict(f) for f in vector.flows]
                == [dataclasses.asdict(f) for f in scalar.flows])
        assert vector.steps == scalar.steps
        assert vector.ifq_peaks == scalar.ifq_peaks
        assert vector.total_send_stalls == scalar.total_send_stalls
        assert vector.bottleneck_loss_events == scalar.bottleneck_loss_events

    def test_population_validation_grid_passes(self):
        report = cross_validate_population(duration=10.0)
        assert report.ok, "\n" + report.render()

    def test_rejects_empty_flow_list(self):
        with pytest.raises(ExperimentError):
            FluidPopulationModel(SMALL_PATH, [])


#: sha256 of the restricted churn result document, minus its telemetry
#: sidecar (``TestSideChannel``); schema 4.  At schema_version 3 it hashed
#: to beb1be2dbba9d943… (the aggregate then summed per-flow goodputs).
RESTRICTED_CHURN_DIGEST = "af3550ed7a270ddd4236642e9fb166641a7ddfacd9fca94b1d49679527718958"


class TestSideChannel:
    """Stateful rules ride a per-flow side-channel that must only ever touch
    flows that are active in the round."""

    def test_rules_are_called_only_while_their_flow_is_active(self):
        calls = []
        clock = [0.0]

        class SpyRule(fluid_model.FluidGrowthRule):
            # not an exact vector-path type, so it always rides the
            # side-channel; grows like Reno so the IFQs overrun and stall
            def __init__(self, flow):
                self.flow = flow

            def grain(self, capacity):
                calls.append(("grain", self.flow, None))
                return 4.0

            def increment(self, acked, cwnd, occupancy_fraction, capacity, dt):
                calls.append(("increment", self.flow, clock[0]))
                return acked

            def on_reduction(self):
                calls.append(("on_reduction", self.flow, clock[0]))

        n = 12
        flows = [
            FluidFlowInput(
                name=f"s{i}", cc="spy", rule=SpyRule(i), ifq=i % 3,
                start_time=0.35 * i,
                stop_time=0.35 * i + 2.5 if i % 3 == 0 else None,
                total_bytes=None if i % 3 == 0 else 150_000 * (1 + i % 4),
                quantize_start=i % 2 == 1)
            for i in range(n)
        ]
        model = FluidPopulationModel(SMALL_PATH, flows)
        assert sorted(f for kind, f, _ in calls if kind == "grain") == list(range(n))

        run_round = model._run_round

        def timed_round(now, rtt, fraction):
            clock[0] = now
            run_round(now, rtt, fraction)

        model._run_round = timed_round
        result = model.run(8.0)

        grains = [f for kind, f, _ in calls if kind == "grain"]
        assert sorted(grains) == list(range(n)), "grain is read once per flow"
        for i, outcome in enumerate(result.flows):
            end = outcome.completion_time
            assert end is not None, f"flow {i} neither completed nor stopped"
            seen = [t for kind, f, t in calls if f == i and kind != "grain"]
            assert seen, f"flow {i} never reached its rule"
            assert min(seen) >= model.data_start[i] - 1e-12
            assert max(seen) < end
        assert any(kind == "on_reduction" for kind, _, _ in calls)

    @pytest.mark.parametrize("policy", list(LocalCongestionPolicy),
                             ids=lambda p: p.value)
    def test_on_reduction_follows_an_increment_of_its_flow(self, policy):
        # the on_reduction contract: a rule whose increment() has not run
        # since it was built or last reduced may be skipped, and is
        log = []

        class RecordingRule(fluid_model.FluidGrowthRule):
            # side-channel rule growing like Reno, so the IFQs overrun
            def __init__(self, flow):
                self.flow = flow

            def grain(self, capacity):
                return 4.0

            def increment(self, acked, cwnd, occupancy_fraction, capacity, dt):
                log.append(("increment", self.flow))
                return acked

            def on_reduction(self):
                log.append(("on_reduction", self.flow))

        flows = [
            FluidFlowInput(name=f"s{i}", cc="spy", rule=RecordingRule(i),
                           ifq=i % 3, start_time=0.35 * i,
                           total_bytes=None if i % 3 == 0 else 150_000 * (1 + i % 4))
            for i in range(12)
        ]
        options = SMALL_PATH.tcp_options(local_congestion_policy=policy)
        FluidPopulationModel(SMALL_PATH, flows, options=options).run(8.0)
        assert any(call == "on_reduction" for call, _ in log)
        _assert_reductions_follow_increments(log)

    def test_restricted_churn_resets_no_more_often_than_it_updates(self, monkeypatch):
        log = []
        increment = RestrictedFluid.increment
        on_reduction = RestrictedFluid.on_reduction

        def logged_increment(rule, *args):
            log.append(("increment", id(rule)))
            return increment(rule, *args)

        def logged_on_reduction(rule):
            log.append(("on_reduction", id(rule)))
            on_reduction(rule)

        monkeypatch.setattr(RestrictedFluid, "increment", logged_increment)
        monkeypatch.setattr(RestrictedFluid, "on_reduction", logged_on_reduction)
        execute(_restricted_churn_spec())
        reductions = sum(call == "on_reduction" for call, _ in log)
        assert 0 < reductions <= sum(call == "increment" for call, _ in log)
        _assert_reductions_follow_increments(log)

    def test_restricted_churn_result_is_pinned(self):
        # sha256 of the result document (minus its telemetry sidecar): any
        # drift in the side-channel arithmetic or visiting order moves it.
        # Schema 4 (RESTRICTED_CHURN_DIGEST records the schema-3 value)
        document = result_document(execute(_restricted_churn_spec()))
        document.pop("telemetry", None)
        text = json.dumps(document, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == RESTRICTED_CHURN_DIGEST


def _reset_every_side_flow(model, gidx):
    """Reference reduction fan-out: ``on_reduction`` on every side flow."""
    for i in gidx[~model.vector_kind[gidx]].tolist():
        model.rules[i].on_reduction()


class TestSkippedResets:
    """Skipping the resets of controllers that have not updated changes no
    result: the engine matches a reference that resets every side flow."""

    SCENARIOS = {
        # every arrival on one sender IFQ
        "shared_ifq_churn": (lambda: _churn_inputs(
            FlowArrivalSpec(rate_per_s=40.0, mean_size_bytes=50_000,
                            size_dist="lognormal", cc="restricted"),
            TIGHT_PATH, 5.0, seed=3, n_pairs=1), 5.0),
        "restricted_reno_lss_mix": (
            lambda: _restricted_mix(TIGHT_PATH, ifqs=lambda i: i % 2), 10.0),
    }

    @pytest.mark.parametrize("policy", list(LocalCongestionPolicy),
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_matches_a_reference_that_resets_every_flow(self, scenario, policy,
                                                        monkeypatch):
        build, duration = self.SCENARIOS[scenario]
        options = TIGHT_PATH.tcp_options(local_congestion_policy=policy)
        resets = [0]
        on_reduction = RestrictedFluid.on_reduction

        def counted_on_reduction(rule):
            resets[0] += 1
            on_reduction(rule)

        monkeypatch.setattr(RestrictedFluid, "on_reduction", counted_on_reduction)

        def run():
            resets[0] = 0
            model = FluidPopulationModel(TIGHT_PATH, build(), options=options)
            return _document(model.run(duration)), resets[0]

        document, skipping = run()
        monkeypatch.setattr(FluidPopulationModel, "_side_on_reduction",
                            _reset_every_side_flow)
        reference, every = run()
        assert 0 < skipping <= every
        assert document == reference


class TestSingleFlowParity:
    """N=1 parity: every engine agrees on one flow's trajectory."""

    @pytest.mark.parametrize("cc", ["reno", "limited_slow_start", "restricted"])
    @pytest.mark.parametrize("total", [None, 2_000_000],
                             ids=["unbounded", "finite"])
    def test_models_agree_on_one_flow(self, cc, total):
        single = FluidFlowModel(
            SMALL_PATH, fluid_growth_rule(cc, SMALL_PATH),
            total_bytes=total).run(10.0)
        flow = lambda: [FluidFlowInput(  # noqa: E731 - fresh rule per model
            name=f"f:{cc}", cc=cc, rule=fluid_growth_rule(cc, SMALL_PATH),
            ifq=0, total_bytes=total)]
        multi = FluidMultiFlowModel(SMALL_PATH, flow()).run(10.0).flows[0]
        pop = FluidPopulationModel(SMALL_PATH, flow()).run(10.0).flows[0]

        # multi-flow and population integrate identical rounds
        assert pop.bytes_acked == multi.bytes_acked
        assert pop.send_stalls == multi.send_stalls
        assert pop.completion_time == multi.completion_time
        assert pop.goodput_bps == pytest.approx(multi.goodput_bps, rel=1e-9)

        # the single-flow model differs only in allocator bookkeeping:
        # goodput, stall counts and completion must line up closely
        assert multi.goodput_bps == pytest.approx(single.goodput_bps, rel=0.10)
        assert multi.send_stalls == single.send_stalls
        if total is not None:
            assert single.completion_time is not None
            assert multi.completion_time == pytest.approx(
                single.completion_time, rel=0.10)


class TestFlowArrivalSpec:
    def test_sample_is_deterministic_per_seed(self):
        churn = FlowArrivalSpec(rate_per_s=80.0, mean_size_bytes=50_000)
        a = churn.sample(10.0, RandomStreams(7), n_pairs=3)
        b = churn.sample(10.0, RandomStreams(7), n_pairs=3)
        c = churn.sample(10.0, RandomStreams(8), n_pairs=3)
        assert a == b
        assert a != c

    def test_sample_statistics(self):
        churn = FlowArrivalSpec(rate_per_s=200.0, mean_size_bytes=30_000,
                                size_dist="exponential")
        arrivals = churn.sample(50.0, RandomStreams(3), n_pairs=4)
        n = len(arrivals)
        assert n == pytest.approx(200.0 * 50.0, rel=0.10)
        assert all(0.0 <= a.start_time < 50.0 for a in arrivals)
        mean_size = sum(a.total_bytes for a in arrivals) / n
        assert mean_size == pytest.approx(30_000, rel=0.10)
        # round-robin pair assignment covers every declared pair evenly
        per_pair = [sum(1 for a in arrivals if a.pair == p) for p in range(4)]
        assert min(per_pair) >= n // 4
        assert all(a.pair in range(4) for a in arrivals)

    @pytest.mark.parametrize("dist", ["fixed", "exponential", "lognormal",
                                      "pareto"])
    def test_size_distributions_hit_their_mean(self, dist):
        churn = FlowArrivalSpec(rate_per_s=400.0, mean_size_bytes=20_000,
                                size_dist=dist, max_flows=4000)
        arrivals = churn.sample(10.0, RandomStreams(5))
        mean = sum(a.total_bytes for a in arrivals) / len(arrivals)
        # the Pareto tail converges slowly; the others are tight
        rel = 0.35 if dist == "pareto" else 0.10
        assert mean == pytest.approx(20_000, rel=rel)
        if dist == "fixed":
            assert {a.total_bytes for a in arrivals} == {20_000}

    def test_max_flows_caps_the_population(self):
        churn = FlowArrivalSpec(rate_per_s=1000.0, mean_size_bytes=1000,
                                max_flows=25)
        assert len(churn.sample(60.0, RandomStreams(1))) == 25

    @pytest.mark.parametrize("bad", [
        dict(rate_per_s=0.0),
        dict(mean_size_bytes=-1.0),
        dict(size_dist="uniform"),
        dict(sigma=0.0),
        dict(alpha=1.0),
        dict(max_flows=0),
        dict(cc="vegas"),
    ])
    def test_rejects_nonsense(self, bad):
        with pytest.raises(ExperimentError):
            FlowArrivalSpec(**bad)

    @staticmethod
    def _churned(churn):
        return MultiFlowSpec(scenario=dumbbell(SMALL_PATH, 2), backend="fluid",
                             churn=churn)

    def test_json_round_trip(self):
        # churn has no codec of its own: the spec decoder rebuilds it
        churn = FlowArrivalSpec(rate_per_s=12.5, mean_size_bytes=1e6,
                                size_dist="pareto", alpha=1.8, max_flows=99)
        assert spec_from_json(self._churned(churn).to_json()).churn == churn

    def test_from_dict_rejects_unknown_fields(self):
        document = self._churned(FlowArrivalSpec()).to_dict()
        document["churn"]["burst"] = 2
        with pytest.raises(ExperimentError,
                           match="unknown FlowArrivalSpec field"):
            spec_from_json(json.dumps(document))


class TestChurnDispatch:
    def _spec(self, **kwargs):
        defaults = dict(
            scenario=dumbbell(SMALL_PATH, 2),
            duration=5.0, seed=2, backend="fluid",
            churn=FlowArrivalSpec(rate_per_s=60.0, mean_size_bytes=20_000),
        )
        defaults.update(kwargs)
        return MultiFlowSpec(**defaults)

    def test_churned_run_streams_population_into_summary(self):
        # churned flows fold into the summary at departure instead of
        # materialising outcome objects: flows/records hold declared only
        result = execute(self._spec())
        assert result.backend == "fluid"
        assert not any(f.name.startswith("churn") for f in result.flows)
        declared = [f for f in result.flows if f.name.startswith("flow")]
        assert len(declared) == 2
        assert not any(r.class_label == "churn" for r in result.records)
        summary = result.summary
        churned = summary.by_class["churn"]
        assert summary.n_flows == churned.flows + 2
        assert churned.flows == pytest.approx(60.0 * 5.0, rel=0.3)
        assert churned.completed > 0
        assert summary.fct.count > 0
        # the aggregate covers the whole population, not just declared flows
        assert (result.aggregate_goodput_bps
                == pytest.approx(summary.aggregate_goodput_bps))
        assert result.aggregate_goodput_bps > sum(
            f.goodput_bps for f in declared)

    def test_churned_run_is_deterministic(self):
        a, b = execute(self._spec()), execute(self._spec())
        assert [f.bytes_acked for f in a.flows] == [f.bytes_acked for f in b.flows]
        assert codec.encode(a.summary) == codec.encode(b.summary)
        c = execute(self._spec(seed=3))
        assert codec.encode(a.summary) != codec.encode(c.summary)

    def test_restricted_churn_resolves_one_config(self):
        # one frozen controller config for the population, but every flow
        # still runs its own controller
        from repro.fluid.backend import _churn_inputs

        churn = FlowArrivalSpec(rate_per_s=50.0, cc="restricted")
        inputs = _churn_inputs(churn, SMALL_PATH, 2.0, seed=1, n_pairs=2)
        assert len(inputs) > 1
        assert len({id(f.rule.config) for f in inputs}) == 1
        # advancing one flow's controller leaves every other flow's output
        # as a fresh controller's
        first, others = inputs[0].rule, [f.rule for f in inputs[1:]]
        for pv in (0.2, 0.6, 0.95, 1.0, 0.7):
            first.increment(1.0, 10.0, pv, 20, 0.01)
        fresh = RestrictedFluid(first.config, ack_quantum=first.ack_quantum)
        expected = [fresh.increment(1.0, 10.0, pv, 20, 0.01) for pv in (0.3, 0.5)]
        for rule in others:
            assert [rule.increment(1.0, 10.0, pv, 20, 0.01) for pv in (0.3, 0.5)] == expected

    def test_churn_requires_fluid_backend(self):
        with pytest.raises(UnsupportedScenarioError, match="churn"):
            self._spec(backend="packet")

    def test_churn_round_trips_through_json(self):
        spec = self._spec()
        decoded = spec_from_json(spec.to_json())
        assert decoded == spec
        assert decoded.cache_key() == spec.cache_key()

    def test_varied_reaches_churn_fields(self):
        varied = self._spec().varied("churn.rate_per_s", 10.0)
        assert varied.churn.rate_per_s == 10.0

    def test_flow_count_threshold_selects_the_vector_engine(self, monkeypatch):
        chosen = []
        for cls in (fluid_model.FluidMultiFlowModel,
                    fluid_vector.FluidPopulationModel):
            orig = cls.run

            def wrapper(self, duration, _orig=orig):
                chosen.append(type(self).__name__)
                return _orig(self, duration)

            monkeypatch.setattr(cls, "run", wrapper)

        small = MultiFlowSpec(
            flows=tuple(BulkFlowSpec(cc="reno") for _ in range(2)),
            config=SMALL_PATH, duration=2.0, backend="fluid")
        execute_fluid_multi_flow(small)
        big = MultiFlowSpec(
            flows=tuple(BulkFlowSpec(cc="reno")
                        for _ in range(VECTOR_FLOW_THRESHOLD + 1)),
            config=SMALL_PATH, duration=2.0, backend="fluid")
        execute_fluid_multi_flow(big)
        churned = self._spec(duration=2.0)
        execute_fluid_multi_flow(churned)
        assert chosen == ["FluidMultiFlowModel", "FluidPopulationModel",
                          "FluidPopulationModel"]

    def test_engine_override_is_validated(self):
        with pytest.raises(ExperimentError, match="engine"):
            execute_fluid_multi_flow(self._spec(), engine="quantum")

    def test_shared_path_churn(self):
        # all churned flows land on the single declared pair
        spec = self._spec(scenario=shared_path(SMALL_PATH, 2,
                                               start_times=(0.0, 0.1)))
        result = execute(spec)
        assert result.backend == "fluid"
        assert result.summary.by_class["churn"].flows > 0


class TestQuantizedStarts:
    def test_churn_arrivals_do_not_cut_rounds(self):
        # quantized starts keep the round count at ~duration/rtt: the
        # integration cost must not scale with the number of arrivals
        base = _flows(2)
        churn = [
            FluidFlowInput(name=f"c{i}", cc="reno",
                           rule=fluid_growth_rule("reno", SMALL_PATH),
                           ifq=i % 2, start_time=0.013 + 0.009 * i,
                           total_bytes=50_000, quantize_start=True)
            for i in range(200)
        ]
        model = FluidPopulationModel(SMALL_PATH, base + churn)
        model.run(5.0)
        # steps ≈ rounds × substeps × active flows; the bound that matters
        # is that no per-arrival boundary cut multiplied the round count
        assert model._boundaries(5.0).size <= 2
        declared_cuts = FluidPopulationModel(
            SMALL_PATH, base)._boundaries(5.0).size
        assert model._boundaries(5.0).size == declared_cuts

    def test_quantized_flow_still_transfers(self):
        flows = _flows(1) + [FluidFlowInput(
            name="q", cc="reno", rule=fluid_growth_rule("reno", SMALL_PATH),
            ifq=0, start_time=1.0037, total_bytes=100_000,
            quantize_start=True)]
        result = FluidPopulationModel(SMALL_PATH, flows).run(10.0)
        quantized = result.flows[1]
        assert quantized.bytes_acked == pytest.approx(100_000, rel=0.01)
        assert quantized.completion_time is not None
        # activation waits for the first round boundary at/after data_start
        assert quantized.completion_time > 1.0037 + SMALL_PATH.rtt


class TestModelBugfixes:
    def test_fluid_annotations_resolve(self):
        # model.py:864 annotated Sequence[FluidFlowInput] without importing
        # Sequence — resolving annotations used to raise NameError
        hints = typing.get_type_hints(FluidMultiFlowModel.__init__)
        assert "flows" in hints
        for obj in (FluidFlowModel.__init__, FluidPopulationModel.__init__,
                    fluid_model.FluidFlowInput, fluid_vector.FlowArrivalSpec):
            assert typing.get_type_hints(obj)

    def test_multiflow_duration_reports_actual_elapsed(self):
        # every flow finishes early: the loop breaks before the horizon and
        # the result must report the real integrated end time (the scalar
        # single-flow model always did)
        result = FluidMultiFlowModel(
            SMALL_PATH, _flows(2, total=(200_000, 300_000))).run(20.0)
        assert result.duration < 20.0
        last_completion = max(f.completion_time for f in result.flows)
        assert result.duration >= last_completion - SMALL_PATH.rtt
        assert result.duration <= last_completion + SMALL_PATH.rtt

        # the behaviour being mirrored: the single-flow model reports the
        # actual integrated time whenever it differs from the horizon
        single = FluidFlowModel(
            SMALL_PATH, fluid_growth_rule("reno", SMALL_PATH),
            total_bytes=8_000_000).run(
                2.0, run_past_duration_until_complete=True)
        assert single.completion_time is not None
        assert single.duration > 2.0
        assert single.duration == pytest.approx(single.completion_time,
                                                abs=SMALL_PATH.rtt)

    def test_multiflow_duration_is_nominal_without_early_exit(self):
        result = FluidMultiFlowModel(SMALL_PATH, _flows(2)).run(5.0)
        assert result.duration == pytest.approx(5.0)
        vector = FluidPopulationModel(SMALL_PATH, _flows(2)).run(5.0)
        assert vector.duration == pytest.approx(5.0)

    def test_population_duration_reports_actual_elapsed(self):
        result = FluidPopulationModel(
            SMALL_PATH, _flows(2, total=(200_000, 300_000))).run(20.0)
        assert result.duration < 20.0
