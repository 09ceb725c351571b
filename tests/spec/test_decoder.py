"""The one spec decoder: explicit failures and a generated round trip.

``SpecBase.from_dict`` decodes every spec kind from its field annotations.
These tests pin the rules it keeps (null handling, kind-tag dispatch) and
check, over generated specs of every kind, that ``to_json`` followed by
``spec_from_json`` gives back an equal spec under the same cache key.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import CampaignSpec
from repro.control.pid import PIDGains
from repro.core import RestrictedSlowStartConfig
from repro.errors import ExperimentError
from repro.fluid.vector import SIZE_DISTRIBUTIONS, FlowArrivalSpec
from repro.spec import (
    SCENARIO_FACTORIES,
    ComparisonSpec,
    MultiFlowSpec,
    RunSpec,
    SweepSpec,
    dumbbell,
    spec_from_dict,
    spec_from_json,
)
from repro.tcp.state import LocalCongestionPolicy
from repro.workloads import BulkFlowSpec, PathConfig


class TestExplicitFailures:
    @pytest.mark.parametrize("kind, cls, name", [
        ("run", "RunSpec", "cc"),
        ("run", "RunSpec", "seed"),
        ("run", "RunSpec", "duration"),
        ("sweep", "SweepSpec", "values"),
    ])
    def test_null_without_a_default_meaning_is_rejected(self, kind, cls, name):
        with pytest.raises(ExperimentError,
                           match=f"{cls} field '{name}' cannot be null"):
            spec_from_dict({"kind": kind, name: None})

    @pytest.mark.parametrize("document, expected", [
        ({"kind": "sweep", "base": None}, SweepSpec()),
        ({"kind": "run", "rss_config": {"gains": None}},
         RunSpec(rss_config=RestrictedSlowStartConfig())),
    ])
    def test_null_container_or_optional_takes_the_default(self, document,
                                                           expected):
        # (the pinned documents cover null cc_kwargs, config and
        # comparison base)
        assert spec_from_dict(document) == expected

    def test_wrong_kind_for_a_single_kind_field(self):
        with pytest.raises(ExperimentError,
                           match=r"ComparisonSpec.base must be one of \['run'\]"):
            spec_from_dict({"kind": "comparison", "base": {"kind": "sweep"}})

    def test_missing_required_nested_field(self):
        document = dumbbell().to_dict()
        del document["topology"]["nodes"][0]["name"]
        with pytest.raises(ExperimentError,
                           match=r"NodeSpec document lacks required field\(s\) \['name'\]"):
            spec_from_dict(document)

    def test_container_of_the_wrong_shape(self):
        with pytest.raises(ExperimentError, match="ComparisonSpec.algorithms"):
            spec_from_dict({"kind": "comparison", "algorithms": "reno"})
        with pytest.raises(ExperimentError, match="PathConfig document"):
            spec_from_dict({"kind": "run", "config": [100]})


# ---------------------------------------------------------------------------
# generated round trips
# ---------------------------------------------------------------------------

_ALGORITHMS = ("reno", "restricted", "cubic", "limited_slow_start")
_FLUID_ALGORITHMS = ("reno", "restricted", "limited_slow_start")


def _floats(low: float, high: float) -> st.SearchStrategy[float]:
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


path_configs = st.builds(
    PathConfig,
    bottleneck_rate_bps=_floats(1e6, 1e9),
    rtt=_floats(0.005, 0.3),
    access_rate_bps=st.none() | _floats(1e6, 1e10),
    ifq_capacity_packets=st.integers(1, 500),
    router_buffer_packets=st.integers(1, 1000),
    rwnd_factor=_floats(0.5, 5.0),
)

rss_configs = st.none() | st.builds(
    RestrictedSlowStartConfig,
    setpoint_fraction=_floats(0.05, 1.0),
    gains=st.none() | st.builds(PIDGains, kp=_floats(0.0, 10.0),
                                ki=_floats(0.0, 10.0), kd=_floats(0.0, 1.0)),
    reset_integral_on_congestion=st.booleans(),
)


@st.composite
def run_specs(draw):
    backend = draw(st.sampled_from(("packet", "fluid")))
    algorithms = _FLUID_ALGORITHMS if backend == "fluid" else _ALGORITHMS
    return RunSpec(
        cc=draw(st.sampled_from(algorithms)),
        config=draw(path_configs),
        duration=draw(_floats(0.1, 30.0) | st.integers(1, 30)),
        seed=draw(st.integers(0, 2**31)),
        total_bytes=draw(st.none() | st.integers(1, 10**9)),
        rss_config=draw(rss_configs),
        local_congestion_policy=draw(
            st.none() | st.sampled_from(LocalCongestionPolicy)),
        trace_interval=draw(st.none() | _floats(0.01, 1.0)),
        run_past_duration_until_complete=draw(st.booleans()),
        backend=backend,
    )


@st.composite
def flows_form(draw):
    n = draw(st.integers(1, 4))
    shared = draw(st.booleans())
    pairs = draw(st.none() | st.lists(st.integers(0, n - 1), min_size=n,
                                      max_size=n))
    flows = tuple(
        BulkFlowSpec(
            cc=draw(st.sampled_from(_FLUID_ALGORITHMS)),
            total_bytes=draw(st.none() | st.integers(1, 10**8)),
            start_time=draw(_floats(0.0, 5.0)),
            path_index=None if pairs is None else pairs[i],
            cc_kwargs=draw(st.sampled_from(({}, {"setpoint_fraction": 0.8}))),
        )
        for i in range(n))
    return MultiFlowSpec(flows=flows, config=draw(path_configs),
                         shared_paths=shared, seed=draw(st.integers(0, 99)),
                         backend=draw(st.sampled_from(("packet", "fluid"))))


@st.composite
def gallery_form(draw):
    factory = SCENARIO_FACTORIES[draw(st.sampled_from(sorted(SCENARIO_FACTORIES)))]
    scenario = factory(draw(path_configs))
    return MultiFlowSpec(scenario=scenario, duration=draw(_floats(0.5, 10.0)),
                         seed=draw(st.integers(0, 99)))


@st.composite
def churn_form(draw):
    churn = FlowArrivalSpec(
        rate_per_s=draw(_floats(0.1, 500.0)),
        mean_size_bytes=draw(_floats(1e3, 1e8)),
        size_dist=draw(st.sampled_from(SIZE_DISTRIBUTIONS)),
        cc=draw(st.sampled_from(_FLUID_ALGORITHMS)),
        sigma=draw(_floats(0.1, 3.0)),
        alpha=draw(_floats(1.01, 4.0)),
        max_flows=draw(st.none() | st.integers(1, 10_000)),
    )
    return MultiFlowSpec(scenario=dumbbell(draw(path_configs),
                                           draw(st.integers(1, 3))),
                         backend="fluid", churn=churn)


multi_flow_specs = flows_form() | gallery_form() | churn_form()


@st.composite
def sweep_specs(draw):
    if draw(st.booleans()):
        values = tuple(draw(st.lists(st.integers(1, 400), min_size=1, max_size=4)))
        return SweepSpec(name=draw(st.sampled_from(("ifq", "ifq_size_sweep"))),
                         values=values,
                         field_values=draw(st.none() | st.just(values)),
                         base=draw(run_specs()),
                         retune_rss=draw(st.booleans()))
    values = tuple(draw(st.lists(_floats(0.5, 20.0), min_size=1, max_size=4)))
    return SweepSpec(name="durations", parameter="duration", values=values,
                     base=draw(flows_form()), row_style="fairness",
                     parameter_label=draw(st.none() | st.just("seconds")))


comparison_specs = st.builds(ComparisonSpec, base=run_specs())

campaign_specs = st.builds(
    CampaignSpec,
    units=st.lists(run_specs() | comparison_specs | multi_flow_specs,
                   min_size=1, max_size=3).map(tuple),
    sweeps=st.lists(sweep_specs(), max_size=2).map(tuple),
)


def _assert_round_trip(spec):
    decoded = spec_from_json(spec.to_json())
    assert decoded == spec
    assert decoded.cache_key() == spec.cache_key()


class TestGeneratedRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(run_specs())
    def test_run_specs(self, spec):
        _assert_round_trip(spec)

    @settings(max_examples=40, deadline=None)
    @given(multi_flow_specs)
    def test_multi_flow_specs(self, spec):
        _assert_round_trip(spec)

    @settings(max_examples=30, deadline=None)
    @given(sweep_specs())
    def test_sweep_specs(self, spec):
        _assert_round_trip(spec)

    @settings(max_examples=15, deadline=None)
    @given(campaign_specs)
    def test_campaign_specs(self, spec):
        _assert_round_trip(spec)
