"""Control-theory substrate: PID control, tuning procedures, process models."""

from .pid import PIDController, PIDGains
from .process_models import (
    FirstOrderProcess,
    IntegratingProcess,
    ProcessModel,
    QueueProcessModel,
)
from .relay_tuning import RelayController, RelayExperimentResult, relay_tune
from .simulate import ClosedLoopResult, simulate_closed_loop
from .ziegler_nichols import (
    PAPER_RULE,
    TUNING_RULES,
    OscillationDetector,
    OscillationResult,
    UltimateGainSearch,
    ZNParameters,
    analyze_oscillation,
    gains_from_ultimate,
)

__all__ = [
    "PIDController",
    "PIDGains",
    "ProcessModel",
    "FirstOrderProcess",
    "IntegratingProcess",
    "QueueProcessModel",
    "ClosedLoopResult",
    "simulate_closed_loop",
    "ZNParameters",
    "TUNING_RULES",
    "PAPER_RULE",
    "gains_from_ultimate",
    "OscillationResult",
    "OscillationDetector",
    "analyze_oscillation",
    "UltimateGainSearch",
    "RelayController",
    "RelayExperimentResult",
    "relay_tune",
]
