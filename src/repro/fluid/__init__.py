"""Fluid-model fast path for parameter sweeps.

A per-round-trip difference-equation model of cwnd growth, IFQ occupancy,
bottleneck queueing and loss for the algorithms the paper evaluates (Reno,
restricted slow-start, limited slow-start).  No per-packet events: a 25 s
run costs thousands of arithmetic steps instead of millions of events,
which makes the E3–E5 style sweeps cheap while the packet engine remains
the ground truth (see :mod:`repro.fluid.validate` for the agreement gate).

Select it on any spec with ``backend="fluid"``::

    from repro.spec import RunSpec, execute

    fast = execute(RunSpec(cc="restricted", duration=25.0, backend="fluid"))
"""

from .backend import (
    FLUID_BACKEND,
    VECTOR_FLOW_THRESHOLD,
    execute_fluid_multi_flow,
)
from .model import (
    FLUID_ALGORITHMS,
    FluidFlowInput,
    FluidFlowModel,
    FluidGrowthRule,
    FluidMultiFlowModel,
    FluidMultiFlowResult,
    FluidRunResult,
    LimitedSlowStartFluid,
    RenoFluid,
    RestrictedFluid,
    fluid_growth_rule,
)
from .vector import ChurnArrival, FlowArrivalSpec, FluidPopulationModel

#: Names re-exported from :mod:`repro.fluid.validate`, resolved on first
#: access (PEP 562): importing the package does not import the gate, so
#: ``python -m repro.fluid.validate`` runs it as ``__main__`` cleanly.
_VALIDATE_NAMES = frozenset({
    "DEFAULT_FAIRNESS_TOLERANCE",
    "DEFAULT_TOLERANCE",
    "FairnessTolerance",
    "FairnessValidationReport",
    "FairnessValidationRow",
    "Tolerance",
    "ValidationReport",
    "ValidationRow",
    "cross_validate",
    "cross_validate_fairness",
    "cross_validate_population",
    "default_fairness_grid",
    "default_grid",
})


def __getattr__(name: str) -> object:
    if name in _VALIDATE_NAMES:
        from . import validate

        return getattr(validate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "FLUID_BACKEND",
    "FLUID_ALGORITHMS",
    "VECTOR_FLOW_THRESHOLD",
    "FluidPopulationModel",
    "FlowArrivalSpec",
    "ChurnArrival",
    "cross_validate_population",
    "execute_fluid_multi_flow",
    "FluidFlowModel",
    "FluidFlowInput",
    "FluidMultiFlowModel",
    "FluidMultiFlowResult",
    "FluidGrowthRule",
    "FluidRunResult",
    "RenoFluid",
    "RestrictedFluid",
    "LimitedSlowStartFluid",
    "fluid_growth_rule",
    "cross_validate",
    "cross_validate_fairness",
    "default_grid",
    "default_fairness_grid",
    "Tolerance",
    "FairnessTolerance",
    "DEFAULT_TOLERANCE",
    "DEFAULT_FAIRNESS_TOLERANCE",
    "ValidationReport",
    "ValidationRow",
    "FairnessValidationReport",
    "FairnessValidationRow",
]
