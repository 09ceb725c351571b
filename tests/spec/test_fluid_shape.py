"""Generated checks of the canonical-dumbbell rule behind fluid eligibility.

``repro.spec.scenario.dumbbell_shape`` decides whether a scenario is the
dumbbell the fluid engines model, with the pair count read from the
topology.  Over generated path configs, gallery dumbbells, shared paths and
``from_bulk_flows`` path-index assignments, these tests check that a fluid
``MultiFlowSpec`` is refused exactly when the rule names a feature, and
that ``with_config`` rebuilds a canonical scenario as its factory would.
No engine runs.
"""

from __future__ import annotations

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st
from test_decoder import path_configs

from repro.errors import UnsupportedScenarioError
from repro.spec import (
    MultiFlowSpec,
    RunSpec,
    dumbbell,
    fluid_multiflow_unsupported_features,
    from_bulk_flows,
    shared_path,
)
from repro.spec.scenario import dumbbell_shape
from repro.workloads import BulkFlowSpec

_FLUID_ALGORITHMS = ("reno", "restricted", "limited_slow_start")


@st.composite
def scenario_builders(draw, algorithms=_FLUID_ALGORITHMS + ("cubic",)):
    """A function ``config -> ScenarioSpec``: a canonical dumbbell."""
    n = draw(st.integers(1, 4))
    ccs = draw(st.lists(st.sampled_from(algorithms), min_size=n, max_size=n))
    form = draw(st.sampled_from(("dumbbell", "shared_path", "flows")))
    if form == "dumbbell":
        return lambda cfg: dumbbell(cfg, n, ccs=ccs)
    if form == "shared_path":
        return lambda cfg: shared_path(cfg, n, ccs=ccs)
    pairs = draw(st.lists(st.none() | st.integers(0, n - 1), min_size=n,
                          max_size=n))
    flows = [BulkFlowSpec(cc=cc, path_index=pair)
             for cc, pair in zip(ccs, pairs)]
    return lambda cfg: from_bulk_flows(flows, cfg)


def _tampered(scenario, index):
    """``scenario`` with one link's forward queue resized by hand."""
    links = list(scenario.topology.links)
    index %= len(links)
    links[index] = dataclasses.replace(
        links[index], queue_ab_packets=links[index].queue_ab_packets + 1)
    return scenario.replace(
        topology=dataclasses.replace(scenario.topology, links=tuple(links)))


def _fluid_spec_or_none(scenario):
    try:
        return MultiFlowSpec(scenario=scenario, backend="fluid")
    except UnsupportedScenarioError:
        return None


class TestCanonicalDumbbellRule:
    @settings(max_examples=150, deadline=None)
    @given(scenario_builders(), path_configs, st.none() | st.integers(0, 20))
    def test_fluid_spec_refused_iff_features_named(self, build, cfg, tamper):
        scenario = build(cfg)
        if tamper is not None:
            scenario = _tampered(scenario, tamper)
        features = fluid_multiflow_unsupported_features(scenario)
        assert (_fluid_spec_or_none(scenario) is None) == bool(features)
        shape = dumbbell_shape(scenario)
        if shape.pairs is not None:
            assert [f"sender{k}" for k in shape.pairs] == [
                flow.src for flow in scenario.flows]

    @settings(max_examples=100, deadline=None)
    @given(scenario_builders(_FLUID_ALGORITHMS), path_configs, path_configs)
    def test_with_config_rebuilds_canonical_multi_flow(self, build, cfg, other):
        spec = MultiFlowSpec(scenario=build(cfg), backend="fluid")
        moved = spec.with_config(other)
        assert moved == MultiFlowSpec(scenario=build(other), backend="fluid")
        assert fluid_multiflow_unsupported_features(moved.scenario) == []

    @settings(max_examples=60, deadline=None)
    @given(path_configs, path_configs,
           st.sampled_from(_FLUID_ALGORITHMS),
           st.sampled_from(("packet", "fluid")))
    def test_with_config_rebuilds_canonical_run(self, cfg, other, cc, backend):
        spec = RunSpec(cc=cc, scenario=dumbbell(cfg, 1), backend=backend)
        assert spec.with_config(other) == RunSpec(
            cc=cc, scenario=dumbbell(other, 1), backend=backend)
