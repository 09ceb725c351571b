"""Workload and scenario builders.

The declarative side lives in :mod:`repro.spec.scenario` (specs and the
factory gallery); :mod:`repro.workloads.compile` turns those specs into the
live objects built here.  ``compile`` is intentionally not imported eagerly
— it depends on :mod:`repro.spec`, which itself imports this package.
"""

from .bulk import BulkFlowSpec
from .scenarios import (
    CROSS_TRAFFIC_PORT_BASE,
    DATA_PORT_BASE,
    PathConfig,
    Scenario,
    anl_lbnl_path,
    build_dumbbell,
)

__all__ = [
    "PathConfig",
    "Scenario",
    "build_dumbbell",
    "anl_lbnl_path",
    "DATA_PORT_BASE",
    "CROSS_TRAFFIC_PORT_BASE",
    "BulkFlowSpec",
    "compile_scenario",
    "compile_topology",
]


def __getattr__(name: str):
    # Lazy re-exports of the scenario compiler (avoids the import cycle
    # workloads -> compile -> repro.spec -> workloads at package-load time).
    if name in ("compile_scenario", "compile_topology"):
        from . import compile as _compile

        return getattr(_compile, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
