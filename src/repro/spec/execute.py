"""The single entry point that runs any declarative spec.

:func:`execute` dispatches on the spec's type: a :class:`RunSpec` or
:class:`MultiFlowSpec` goes straight to its backend's engine, the composite
specs fan out into their atomic specs (optionally across a process pool
via ``max_workers``).  Every result carries its originating spec on a
``spec`` attribute — the provenance record that result persistence and
cache keying build on.
"""

from __future__ import annotations

import contextlib
import importlib
from typing import TYPE_CHECKING, Any

from ..errors import ExperimentError
from ..obs.telemetry import (
    RunTelemetry,
    aggregate,
    memory_tracking_enabled,
    telemetry_session,
)
from .scenario import ScenarioSpec
from .specs import ComparisonSpec, MultiFlowSpec, RunSpec, SpecBase, SweepSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..campaign.store import ResultStore

__all__ = ["execute"]


def execute(spec: SpecBase, *, max_workers: int | None = None,
            store: "ResultStore | None" = None) -> Any:
    """Run ``spec`` and return its result.

    * :class:`RunSpec` → ``SingleFlowResult`` (on its ``backend``'s engine);
    * :class:`ComparisonSpec` → ``ComparisonResult``;
    * :class:`MultiFlowSpec` → ``MultiFlowResult``;
    * :class:`SweepSpec` → ``SweepResult``;
    * a :class:`~repro.campaign.CampaignSpec` → ``CampaignResult`` (unit
      results in ``expand()`` order);
    * a bare :class:`ScenarioSpec` → ``MultiFlowResult`` (wrapped in a
      default ``MultiFlowSpec`` carrying the scenario).

    ``max_workers`` controls process fan-out for the composite specs
    (``None`` picks a conservative default, 0/1 run serially in-process);
    workers pickle exactly one spec each.

    ``store`` (a :class:`repro.campaign.ResultStore`) records every
    executed spec-carrying result write-through: the composite (not a
    campaign) *and* its atomic components (one per comparison algorithm /
    sweep point / campaign unit), so campaigns — which address work at the
    flattened per-run granularity — hit them later.
    """
    if isinstance(spec, ScenarioSpec):
        return execute(MultiFlowSpec(scenario=spec), max_workers=max_workers,
                       store=store)
    if isinstance(spec, (RunSpec, MultiFlowSpec)):
        return _stored(store, _execute_on_engine(spec))
    if isinstance(spec, ComparisonSpec):
        return _execute_comparison(spec, max_workers=max_workers, store=store)
    if isinstance(spec, SweepSpec):
        from ..experiments.sweeps import execute_sweep_spec

        result = execute_sweep_spec(spec, max_workers=max_workers, store=store)
        result.spec = spec
        return _stored(store, result)
    if getattr(spec, "kind", None) == "campaign":
        from ..experiments.parallel import map_specs
        from ..experiments.runner import CampaignResult

        runs = map_specs([unit.spec for unit in spec.expand()],
                         max_workers=max_workers, store=store)
        result = CampaignResult(runs=runs, spec=spec)
        result.telemetry = aggregate(runs)
        return result
    raise ExperimentError(
        f"cannot execute {type(spec).__name__}; expected one of RunSpec, "
        "ComparisonSpec, MultiFlowSpec, SweepSpec, CampaignSpec, ScenarioSpec")


def _stored(store: "ResultStore | None", result: Any) -> Any:
    if store is not None:
        telemetry = getattr(result, "telemetry", None)
        if telemetry is not None:
            # The persist span lands on the live result only: the stored
            # document is serialized *inside* the span, so it cannot carry
            # its own persistence cost.
            with telemetry.span("persist"):
                store.put(result)
        else:
            store.put(result)
    return result


@contextlib.contextmanager
def _instrumented():
    """Run a backend under a fresh :class:`RunTelemetry` session.

    Yields the telemetry; the engines report spans (compile / simulate /
    summarize) and counters into it via the ambient-session helpers in
    :mod:`repro.obs.telemetry`, so no backend signature changes.
    """
    telemetry = RunTelemetry(track_memory=memory_tracking_enabled())
    telemetry.begin_memory_tracking()
    try:
        with telemetry_session(telemetry):
            yield telemetry
    finally:
        telemetry.end_memory_tracking()


#: (spec kind, backend) -> the engine entry point running it, imported on
#: first use so building and validating specs never loads an engine.
_ENGINES = {
    ("run", "packet"): ("repro.experiments.runner", "execute_packet_run"),
    ("run", "fluid"): ("repro.fluid.backend", "execute_fluid_run"),
    ("multi_flow", "packet"): ("repro.experiments.runner", "execute_multi_flow_spec"),
    ("multi_flow", "fluid"): ("repro.fluid.backend", "execute_fluid_multi_flow"),
}


def _execute_on_engine(spec: RunSpec | MultiFlowSpec) -> Any:
    module, name = _ENGINES[spec.kind, spec.backend]
    with _instrumented() as telemetry:
        result = getattr(importlib.import_module(module), name)(spec)
    result.spec = spec
    result.telemetry = telemetry
    return result


def _execute_comparison(spec: ComparisonSpec, *,
                        max_workers: int | None = None,
                        store: "ResultStore | None" = None) -> Any:
    from ..experiments.parallel import map_specs
    from ..experiments.runner import ComparisonResult

    run_specs = spec.run_specs()
    runs = dict(zip(run_specs, map_specs(list(run_specs.values()),
                                         max_workers=max_workers, store=store)))
    result = ComparisonResult(baseline=spec.baseline, runs=runs)
    result.spec = spec
    result.telemetry = aggregate(runs.values())
    return _stored(store, result)
