"""Ziegler–Nichols auto-tuning of the restricted slow-start gains.

The paper tunes the controller on the real testbed by raising the
proportional gain until the loop oscillates.  This module automates the same
procedure against the simulator, at two levels of fidelity:

* :func:`autotune_gains_fluid` — seconds-fast tuning against the fluid IFQ
  model (:class:`repro.control.process_models.QueueProcessModel`) using
  relay feedback.  Good enough for tests and for seeding the packet-level
  search.
* :func:`autotune_gains` — the full ultimate-gain experiment on the
  packet-level simulator: for each candidate ``Kp`` a short bulk transfer is
  run with a P-only restricted slow-start controller, the IFQ occupancy is
  recorded, and :func:`repro.control.ziegler_nichols.analyze_oscillation`
  decides whether the oscillation is sustained.  The measured ``(Kc, Tc)``
  are then mapped to PID gains with the paper's modified rule (or any other
  rule from :data:`repro.control.ziegler_nichols.TUNING_RULES`).

Both return a :class:`TuningResult` that records the experiments performed,
so the tuning ablation (experiment E7) can report how the rules differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from ..control.pid import PIDGains
from ..control.process_models import QueueProcessModel
from ..control.relay_tuning import relay_tune
from ..control.ziegler_nichols import (
    PAPER_RULE,
    OscillationResult,
    UltimateGainSearch,
    ZNParameters,
    analyze_oscillation,
    gains_from_ultimate,
)
from ..errors import TuningError
from ..workloads.scenarios import PathConfig
from .config import RestrictedSlowStartConfig

__all__ = ["TuningResult", "evaluate_p_gain", "autotune_gains", "autotune_gains_fluid"]


@dataclass
class TuningResult:
    """Outcome of a tuning procedure."""

    gains: PIDGains
    ultimate: ZNParameters
    rule: str
    method: str
    history: list[tuple[float, OscillationResult]] = field(default_factory=list)
    config: PathConfig | None = None

    def summary(self) -> dict:
        """Flat dictionary for reports."""
        return {
            "method": self.method,
            "rule": self.rule,
            "Kc": self.ultimate.kc,
            "Tc": self.ultimate.tc,
            "Kp": self.gains.kp,
            "Ki": self.gains.ki,
            "Kd": self.gains.kd,
            "experiments": len(self.history),
        }


# ---------------------------------------------------------------------------
# packet-level ultimate-gain experiment
# ---------------------------------------------------------------------------

def evaluate_p_gain(
    kp: float,
    config: PathConfig | None = None,
    duration: float = 6.0,
    seed: int = 7,
    setpoint_fraction: float = 0.9,
    sample_interval: float = 0.002,
) -> OscillationResult:
    """Run one P-only closed-loop experiment on the packet simulator.

    A single bulk flow is driven by restricted slow-start with proportional
    gain ``kp`` only (no integral/derivative action) and an effectively
    infinite slow-start threshold, so the controller alone shapes the
    window.  The IFQ occupancy fraction is sampled every
    ``sample_interval`` seconds and classified by
    :func:`analyze_oscillation`.
    """
    from ..spec import RunSpec, execute  # lazy: repro.spec imports repro.core

    cfg = config if config is not None else PathConfig()
    # pure P-only closed loop: no integral/derivative action, no set-point
    # guard — exactly the probing experiment the ZN procedure prescribes
    rss_config = RestrictedSlowStartConfig(
        setpoint_fraction=setpoint_fraction,
        gains=PIDGains(kp=kp),
        hard_setpoint_guard=False,
    )
    run = execute(RunSpec(cc="restricted", config=cfg, duration=duration,
                          seed=seed, rss_config=rss_config,
                          trace_interval=sample_interval))
    times, occupancy = run.ifq_times, run.ifq_occupancy
    capacity = float(cfg.ifq_capacity_packets)
    fractions = occupancy / capacity
    # a genuine ultimate-gain oscillation is a limit cycle about the set
    # point, not the per-round sawtooth of a slowly ramping queue — require
    # repeated set-point crossings and a non-trivial amplitude
    return analyze_oscillation(
        times, fractions, setpoint=setpoint_fraction,
        settle_fraction=0.4,
        min_relative_amplitude=0.05,
        require_setpoint_crossings=6,
    )


def autotune_gains(
    config: PathConfig | None = None,
    rule: str = PAPER_RULE,
    kp_initial: float = 0.4,
    growth: float = 1.6,
    duration: float = 6.0,
    seed: int = 7,
    setpoint_fraction: float = 0.9,
    max_iterations: int = 16,
    refine_steps: int = 3,
) -> TuningResult:
    """Full Ziegler–Nichols tuning against the packet-level simulator."""
    cfg = config if config is not None else PathConfig()
    evaluate = partial(
        evaluate_p_gain,
        config=cfg,
        duration=duration,
        seed=seed,
        setpoint_fraction=setpoint_fraction,
    )
    search = UltimateGainSearch(
        evaluate,
        kp_initial=kp_initial,
        growth=growth,
        max_iterations=max_iterations,
        refine_steps=refine_steps,
    )
    ultimate = search.run()
    gains = gains_from_ultimate(ultimate, rule)
    return TuningResult(
        gains=gains,
        ultimate=ultimate,
        rule=rule,
        method="packet_ultimate_gain",
        history=search.history,
        config=cfg,
    )


# ---------------------------------------------------------------------------
# fluid-model relay tuning (fast)
# ---------------------------------------------------------------------------

def autotune_gains_fluid(
    config: PathConfig | None = None,
    rule: str = PAPER_RULE,
    setpoint_fraction: float = 0.9,
    duration: float = 20.0,
    dt: float = 1e-3,
) -> TuningResult:
    """Relay-feedback tuning against the fluid IFQ model.

    The queue process is normalised (capacity 1.0) so the resulting gains
    are directly usable by :class:`RestrictedSlowStart`, whose process
    variable is the occupancy *fraction*.
    """
    cfg = config if config is not None else PathConfig()
    drain_rate_pps = cfg.bottleneck_rate_bps / (8.0 * cfg.segment_bytes)
    process = QueueProcessModel(
        capacity=1.0,
        drain_rate_pps=drain_rate_pps / cfg.ifq_capacity_packets,
        rtt=cfg.rtt,
        q0=0.0,
    )
    try:
        # The relay output swings the per-ACK window adjustment between +1
        # and -1 segment, matching the saturation range of the deployed
        # controller (which may both grow and trim the window).
        result = relay_tune(
            process,
            setpoint=setpoint_fraction,
            relay_amplitude=1.0,
            bias=0.0,
            duration=duration,
            dt=dt,
        )
    except TuningError as exc:
        raise TuningError(f"fluid relay tuning failed for {cfg!r}: {exc}") from exc
    gains = gains_from_ultimate(result.parameters, rule)
    return TuningResult(
        gains=gains,
        ultimate=result.parameters,
        rule=rule,
        method="fluid_relay",
        history=[],
        config=cfg,
    )
