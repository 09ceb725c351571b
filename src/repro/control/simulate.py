"""Closed-loop simulation helpers for process models.

The Ziegler–Nichols ultimate-gain search needs to run many short closed-loop
experiments ("does proportional gain ``kp`` produce sustained oscillation of
the process variable?").  These helpers run such experiments against any
:class:`~repro.control.process_models.ProcessModel` — the packet-level
equivalent lives in :mod:`repro.core.tuning`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import ControlError
from .pid import PIDController
from .process_models import ProcessModel

__all__ = ["ClosedLoopResult", "simulate_closed_loop"]


@dataclass
class ClosedLoopResult:
    """Trajectories produced by a closed-loop run."""

    times: np.ndarray
    pv: np.ndarray
    outputs: np.ndarray
    setpoint: float

    @property
    def final_pv(self) -> float:
        return float(self.pv[-1]) if self.pv.size else 0.0

    def steady_state_error(self, tail_fraction: float = 0.2) -> float:
        """Mean |setpoint - pv| over the final ``tail_fraction`` of the run."""
        if self.pv.size == 0:
            return 0.0
        n_tail = max(int(self.pv.size * tail_fraction), 1)
        return float(np.mean(np.abs(self.setpoint - self.pv[-n_tail:])))

    def overshoot(self) -> float:
        """Largest excursion of the PV above the set point (0 if none)."""
        if self.pv.size == 0:
            return 0.0
        return float(max(np.max(self.pv) - self.setpoint, 0.0))


def simulate_closed_loop(
    process: ProcessModel,
    controller: PIDController,
    duration: float,
    dt: float,
    disturbance: Callable[[float], float] | None = None,
) -> ClosedLoopResult:
    """Run ``controller`` against ``process`` for ``duration`` seconds.

    ``disturbance(t)`` is added to the controller output before it is applied
    to the process (load disturbances, noise injection in tests).
    """
    if duration <= 0 or dt <= 0:
        raise ControlError("duration and dt must be positive")
    n_steps = int(round(duration / dt))
    times = np.empty(n_steps)
    pv = np.empty(n_steps)
    outputs = np.empty(n_steps)
    t = 0.0
    for i in range(n_steps):
        measurement = process.output
        u = controller.update(measurement, dt)
        if disturbance is not None:
            u = u + disturbance(t)
        process.step(u, dt)
        times[i] = t
        pv[i] = measurement
        outputs[i] = u
        t += dt
    return ClosedLoopResult(times=times, pv=pv, outputs=outputs,
                            setpoint=controller.setpoint)

