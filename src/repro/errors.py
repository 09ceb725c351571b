"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "SimulationError",
    "ScheduleInPastError",
    "ConfigurationError",
    "TopologyError",
    "RoutingError",
    "TCPStateError",
    "ControlError",
    "TuningError",
    "ExperimentError",
    "UnsupportedScenarioError",
    "DocumentError",
]


class ReproError(Exception):
    """Base class for every exception raised by the library."""


class SimulationError(ReproError):
    """Raised for inconsistencies detected by the discrete-event engine."""


class ScheduleInPastError(SimulationError):
    """Raised when an event is scheduled before the current simulation time."""


class ConfigurationError(ReproError):
    """Raised when a user-supplied configuration value is invalid."""


class TopologyError(ReproError):
    """Raised when a topology is malformed (dangling link, duplicate port...)."""


class RoutingError(TopologyError):
    """Raised when a node has no route for a packet's destination."""


class TCPStateError(ReproError):
    """Raised when a TCP connection is driven through an illegal transition."""


class ControlError(ReproError):
    """Raised by the control-theory substrate (PID, filters, process models)."""


class TuningError(ControlError):
    """Raised when an auto-tuning experiment fails to converge."""


class ExperimentError(ReproError):
    """Raised by the experiment harness (bad sweep, missing result...)."""


class UnsupportedScenarioError(ExperimentError):
    """Raised when a backend cannot execute a declared scenario shape.

    The message names the unsupported feature(s) — e.g. a multi-bottleneck
    graph or per-link loss under the single-flow fluid model — so callers
    know which backend to fall back to.
    """


class DocumentError(ExperimentError):
    """Raised when a document does not decode into its type (:mod:`repro.codec`).

    The message names the type and the field: an unknown or missing field,
    a ``null`` where the field has no default meaning, or a value of the
    wrong shape.
    """
