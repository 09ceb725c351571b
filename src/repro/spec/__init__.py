"""Declarative spec layer — one serializable object per kind of run.

Quickstart::

    from repro.spec import RunSpec, execute

    spec = RunSpec(cc="restricted", duration=25.0, backend="fluid")
    result = execute(spec)                  # SingleFlowResult
    text = spec.to_json()                   # JSON round-trip...
    clone = repro.spec.spec_from_json(text)
    assert clone == spec and clone.cache_key() == spec.cache_key()

See the README's "Spec API" section for the JSON schema and the map from
each removed keyword function to its spec.
"""

from .execute import execute
from .scenario import (
    SCENARIO_FACTORIES,
    CrossTrafficSpec,
    FlowSpec,
    LinkSpec,
    LossSpec,
    NodeSpec,
    QueueSpec,
    ScenarioSpec,
    TopologySpec,
    aqm_dumbbell,
    asymmetric_path,
    available_scenarios,
    dumbbell,
    ensure_fluid_multiflow_scenario,
    ensure_fluid_scenario,
    fluid_multiflow_unsupported_features,
    fluid_unsupported_features,
    from_bulk_flows,
    l4s_dumbbell,
    lossy_link,
    parking_lot,
    red_bottleneck,
    scenario_factory,
    shared_path,
)
from .specs import (
    BACKENDS,
    SPEC_KINDS,
    ComparisonSpec,
    MultiFlowSpec,
    RunSpec,
    SpecBase,
    SweepSpec,
    dump_spec,
    load_spec,
    spec_from_dict,
    spec_from_json,
)

__all__ = [
    "SpecBase",
    "RunSpec",
    "ComparisonSpec",
    "MultiFlowSpec",
    "SweepSpec",
    "ScenarioSpec",
    "TopologySpec",
    "NodeSpec",
    "LinkSpec",
    "LossSpec",
    "QueueSpec",
    "FlowSpec",
    "CrossTrafficSpec",
    "dumbbell",
    "shared_path",
    "parking_lot",
    "asymmetric_path",
    "lossy_link",
    "aqm_dumbbell",
    "l4s_dumbbell",
    "red_bottleneck",
    "from_bulk_flows",
    "SCENARIO_FACTORIES",
    "scenario_factory",
    "available_scenarios",
    "fluid_unsupported_features",
    "fluid_multiflow_unsupported_features",
    "ensure_fluid_scenario",
    "ensure_fluid_multiflow_scenario",
    "SPEC_KINDS",
    "BACKENDS",
    "spec_from_dict",
    "spec_from_json",
    "load_spec",
    "dump_spec",
    "execute",
]
