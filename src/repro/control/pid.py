"""PID controller.

The paper drives the slow-start window with "a PID control algorithm [whose]
gain is calculated using a first order differential equation", i.e. the
textbook transfer function::

    u(t) = Kp * ( e(t) + 1/Ti * ∫ e dt + Td * de/dt )

This module implements that controller in incremental, discrete-time form
with the features a real deployment needs:

* configurable proportional / integral / derivative gains
  (:class:`PIDGains`, either as ``(kp, ki, kd)`` or as the classical
  ``(Kp, Ti, Td)`` time-constant parametrisation used by Ziegler–Nichols);
* output saturation with **anti-windup** (back-calculation by default, with
  conditional integration available), since the slow-start increment is
  clamped to a small range and the loop spends long stretches saturated;
* derivative-on-measurement with an optional first-order filter, avoiding
  derivative kick when the set point changes and attenuating packet-level
  noise in the queue-occupancy signal.

:meth:`PIDController.update` runs once per ACK (packet engine) or per
sub-round chunk (fluid engines), so it reads the gains from floats cached
when :attr:`PIDController.gains` is assigned.  :class:`PIDGains` is frozen:
change a controller's gains by assigning a new ``PIDGains`` to ``gains``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import ControlError

__all__ = ["PIDGains", "PIDController"]


@dataclass(frozen=True)
class PIDGains:
    """Controller gains in parallel form (``kp``, ``ki``, ``kd``)."""

    kp: float
    ki: float = 0.0
    kd: float = 0.0

    def __post_init__(self) -> None:
        if self.kp < 0 or self.ki < 0 or self.kd < 0:
            raise ControlError("PID gains must be non-negative")

    # ------------------------------------------------------------------
    @classmethod
    def from_time_constants(cls, kp: float, ti: float | None = None, td: float = 0.0) -> "PIDGains":
        """Build gains from the classical ``(Kp, Ti, Td)`` parametrisation.

        ``Ti`` is the integral (reset) time in seconds (``None`` or ``inf``
        disables integral action); ``Td`` is the derivative time in seconds.
        """
        if kp < 0:
            raise ControlError("Kp must be non-negative")
        if ti is not None and ti <= 0 and not math.isinf(ti):
            raise ControlError("Ti must be positive, None or inf")
        if td < 0:
            raise ControlError("Td must be non-negative")
        ki = 0.0 if ti is None or math.isinf(ti) else kp / ti
        kd = kp * td
        return cls(kp=kp, ki=ki, kd=kd)

    @property
    def ti(self) -> float:
        """Integral time constant implied by ``kp``/``ki`` (``inf`` when ki=0)."""
        return math.inf if self.ki == 0 else self.kp / self.ki

    @property
    def td(self) -> float:
        """Derivative time constant implied by ``kp``/``kd`` (0 when kp=0)."""
        return 0.0 if self.kp == 0 else self.kd / self.kp

    def scaled(self, factor: float) -> "PIDGains":
        """Return gains multiplied by ``factor`` (used by tuning sweeps)."""
        return PIDGains(self.kp * factor, self.ki * factor, self.kd * factor)


class PIDController:
    """Discrete-time PID controller with saturation and anti-windup.

    Parameters
    ----------
    gains:
        :class:`PIDGains`.
    setpoint:
        Target value of the process variable.
    output_min, output_max:
        Saturation limits for the controller output (``None`` = unbounded).
    derivative_filter_tau:
        Time constant (seconds) of the first-order filter applied to the
        measured process variable before differentiation; 0 disables it.
    anti_windup:
        ``"back_calculation"`` (default) bleeds the integral toward the value
        consistent with the saturated output at a rate set by
        ``tracking_time``; ``"conditional"`` only integrates when doing so
        does not deepen the saturation; ``"none"`` disables protection.
    tracking_time:
        Back-calculation tracking time constant ``Tt`` in seconds; defaults
        to the integral time ``Ti`` implied by the gains.
    """

    ANTI_WINDUP_MODES = ("back_calculation", "conditional", "none")

    def __init__(
        self,
        gains: PIDGains,
        setpoint: float,
        output_min: float | None = None,
        output_max: float | None = None,
        derivative_filter_tau: float = 0.0,
        anti_windup: str = "back_calculation",
        tracking_time: float | None = None,
    ) -> None:
        if output_min is not None and output_max is not None and output_min > output_max:
            raise ControlError("output_min must not exceed output_max")
        if derivative_filter_tau < 0:
            raise ControlError("derivative_filter_tau must be >= 0")
        if anti_windup not in self.ANTI_WINDUP_MODES:
            raise ControlError(
                f"anti_windup must be one of {self.ANTI_WINDUP_MODES}, got {anti_windup!r}"
            )
        if tracking_time is not None and tracking_time <= 0:
            raise ControlError("tracking_time must be positive")
        self.gains = gains
        self.setpoint = float(setpoint)
        self.output_min = output_min
        self.output_max = output_max
        self.derivative_filter_tau = float(derivative_filter_tau)
        self.anti_windup = anti_windup
        self.tracking_time = tracking_time
        self._integral = 0.0
        self._prev_pv: float | None = None
        self._filtered_pv: float | None = None
        self.last_error = 0.0
        self.last_output = 0.0
        self.last_p = 0.0
        self.last_i = 0.0
        self.last_d = 0.0
        self.updates = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear integral and derivative memory."""
        self._integral = 0.0
        self._prev_pv = None
        self._filtered_pv = None
        self.last_error = 0.0
        self.last_output = 0.0
        self.last_p = self.last_i = self.last_d = 0.0

    # ------------------------------------------------------------------
    @property
    def gains(self) -> PIDGains:
        """Controller gains; assigning new gains takes effect on the next update."""
        return self._gains

    @gains.setter
    def gains(self, gains: PIDGains) -> None:
        self._gains = gains
        self._kp = gains.kp
        self._ki = gains.ki
        self._kd = gains.kd

    def update(self, pv: float, dt: float) -> float:
        """Advance the controller by ``dt`` seconds with measurement ``pv``.

        Returns the saturated controller output.
        """
        if dt <= 0:
            raise ControlError(f"dt must be positive, got {dt!r}")
        error = self.setpoint - pv
        kp = self._kp
        ki = self._ki
        kd = self._kd
        tau = self.derivative_filter_tau
        filtered_pv = self._filtered_pv
        prev_pv = self._prev_pv
        output_min = self.output_min
        output_max = self.output_max

        # -- proportional --------------------------------------------------
        p_term = kp * error

        # -- derivative (on measurement, optionally filtered) --------------
        if tau > 0 and filtered_pv is not None:
            alpha = dt / (tau + dt)
            filtered = filtered_pv + alpha * (pv - filtered_pv)
        else:
            filtered = pv
        if prev_pv is None or kd == 0.0:
            d_term = 0.0
        else:
            prev = filtered_pv if tau > 0 else prev_pv
            d_term = -kd * (filtered - prev) / dt
        self._filtered_pv = filtered
        self._prev_pv = pv

        # -- integral with anti-windup --------------------------------------
        integral = self._integral
        candidate_integral = integral + ki * error * dt
        unsaturated = p_term + candidate_integral + d_term
        if output_max is not None and unsaturated > output_max:
            saturated = output_max
        elif output_min is not None and unsaturated < output_min:
            saturated = output_min
        else:
            saturated = unsaturated
        anti_windup = self.anti_windup
        if anti_windup == "back_calculation" and ki > 0.0:
            # bleed the integral toward consistency with the clamped output;
            # the tracking time defaults to Ti = kp / ki
            tt = self.tracking_time if self.tracking_time is not None else kp / ki
            if tt > 0 and tt != math.inf:
                candidate_integral += (saturated - unsaturated) * dt / tt
            integral = candidate_integral
        elif anti_windup == "conditional" and unsaturated != saturated:
            # output is saturated: only integrate if doing so drives the
            # output back toward the linear region
            if (unsaturated > saturated and error < 0) or (unsaturated < saturated and error > 0):
                integral = candidate_integral
        else:
            integral = candidate_integral
        self._integral = integral
        output = p_term + integral + d_term
        if output_max is not None and output > output_max:
            output = output_max
        elif output_min is not None and output < output_min:
            output = output_min

        self.last_error = error
        self.last_p = p_term
        self.last_i = integral
        self.last_d = d_term
        self.last_output = output
        self.updates += 1
        return output

    # ------------------------------------------------------------------
    @property
    def integral(self) -> float:
        """Current value of the integral term."""
        return self._integral

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PIDController kp={self.gains.kp:.4g} ki={self.gains.ki:.4g} "
            f"kd={self.gains.kd:.4g} sp={self.setpoint:.3g}>"
        )
