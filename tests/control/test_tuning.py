"""Tests for oscillation analysis, Ziegler-Nichols rules and relay tuning."""

from __future__ import annotations


import numpy as np
import pytest

from repro.control import (
    PAPER_RULE,
    TUNING_RULES,
    FirstOrderProcess,
    OscillationDetector,
    PIDController,
    PIDGains,
    QueueProcessModel,
    UltimateGainSearch,
    ZNParameters,
    analyze_oscillation,
    gains_from_ultimate,
    relay_tune,
    simulate_closed_loop,
)
from repro.errors import TuningError


class TestTuningRules:
    def test_paper_rule_constants(self):
        assert TUNING_RULES[PAPER_RULE] == (0.33, 0.5, 0.33)

    def test_paper_rule_gain_mapping(self):
        gains = gains_from_ultimate(ZNParameters(kc=3.0, tc=0.2), PAPER_RULE)
        assert gains.kp == pytest.approx(0.99)
        assert gains.ti == pytest.approx(0.1)
        assert gains.td == pytest.approx(0.066)

    def test_classic_rule_differs_from_paper(self):
        zn = ZNParameters(kc=2.0, tc=1.0)
        paper = gains_from_ultimate(zn, PAPER_RULE)
        classic = gains_from_ultimate(zn, "zn_classic_pid")
        assert classic.kp > paper.kp

    def test_p_only_rule_has_no_integral(self):
        gains = gains_from_ultimate(ZNParameters(kc=2.0, tc=1.0), "zn_classic_p")
        assert gains.ki == 0.0

    def test_unknown_rule_rejected(self):
        with pytest.raises(TuningError):
            gains_from_ultimate(ZNParameters(kc=1.0, tc=1.0), "nope")

    def test_invalid_ultimate_parameters(self):
        with pytest.raises(TuningError):
            ZNParameters(kc=0.0, tc=1.0)
        with pytest.raises(TuningError):
            ZNParameters(kc=1.0, tc=0.0)


class TestOscillationAnalysis:
    def _sine(self, periods=10, period=1.0, amplitude=1.0, decay=0.0, n=2000):
        t = np.linspace(0, periods * period, n)
        envelope = np.exp(-decay * t)
        return t, 5.0 + amplitude * envelope * np.sin(2 * np.pi * t / period)

    def test_sustained_sine_detected(self):
        t, v = self._sine()
        result = analyze_oscillation(t, v, setpoint=5.0)
        assert result.sustained
        assert result.period == pytest.approx(1.0, rel=0.05)

    def test_decaying_sine_not_sustained(self):
        t, v = self._sine(decay=0.8)
        result = analyze_oscillation(t, v, setpoint=5.0)
        assert not result.sustained

    def test_flat_signal_not_oscillating(self):
        t = np.linspace(0, 10, 500)
        v = np.full_like(t, 5.0)
        assert not analyze_oscillation(t, v, setpoint=5.0).sustained

    def test_tiny_amplitude_rejected(self):
        t, v = self._sine(amplitude=0.001)
        assert not analyze_oscillation(t, v, setpoint=5.0).sustained

    def test_short_record_not_oscillating(self):
        assert not analyze_oscillation([0, 1], [1, 2], setpoint=1.0).sustained

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(TuningError):
            analyze_oscillation([0, 1, 2], [1, 2], setpoint=1.0)

    def test_detector_accumulates_samples(self):
        t, v = self._sine()
        detector = OscillationDetector(setpoint=5.0)
        for ti, vi in zip(t, v):
            detector.add(ti, vi)
        assert detector.result().sustained
        detector.reset()
        assert len(detector.times) == 0


class TestUltimateGainSearch:
    @staticmethod
    def _evaluate_factory(critical_kp=2.0, period=0.5):
        """Synthetic loop: oscillates iff kp >= critical_kp."""
        def evaluate(kp):
            from repro.control.ziegler_nichols import OscillationResult
            sustained = kp >= critical_kp
            return OscillationResult(sustained=sustained, period=period if sustained else 0.0,
                                     amplitude=1.0 if sustained else 0.0,
                                     decay_ratio=1.0 if sustained else 0.1,
                                     n_peaks=10 if sustained else 1)
        return evaluate

    def test_finds_critical_gain(self):
        search = UltimateGainSearch(self._evaluate_factory(critical_kp=2.0),
                                    kp_initial=0.1, growth=2.0, refine_steps=6)
        params = search.run()
        assert 2.0 <= params.kc <= 2.2
        assert params.tc == pytest.approx(0.5)

    def test_history_recorded(self):
        search = UltimateGainSearch(self._evaluate_factory(), kp_initial=0.1)
        search.run()
        assert len(search.history) >= 2

    def test_failure_when_never_oscillates(self):
        def never(kp):
            from repro.control.ziegler_nichols import OscillationResult
            return OscillationResult(False, 0.0, 0.0, 0.0, 0)
        search = UltimateGainSearch(never, kp_initial=0.1, max_iterations=5)
        with pytest.raises(TuningError):
            search.run()

    def test_parameter_validation(self):
        with pytest.raises(TuningError):
            UltimateGainSearch(lambda kp: None, kp_initial=0.0)
        with pytest.raises(TuningError):
            UltimateGainSearch(lambda kp: None, growth=1.0)

    def test_p_only_search_on_queue_model(self):
        """The fluid IFQ loop (integrator + delay) has a real ultimate gain."""
        def evaluate(kp):
            process = QueueProcessModel(capacity=1.0, drain_rate_pps=86.0, rtt=0.06)
            controller = PIDController(PIDGains(kp=kp), setpoint=0.9,
                                       output_min=-1.0, output_max=1.0)
            result = simulate_closed_loop(process, controller, duration=8.0, dt=0.002)
            return analyze_oscillation(result.times, result.pv, setpoint=0.9)

        search = UltimateGainSearch(evaluate, kp_initial=0.2, growth=1.8,
                                    max_iterations=16, refine_steps=2)
        params = search.run()
        assert params.kc > 0
        assert 0.01 < params.tc < 2.0


class TestRelayTuning:
    def test_relay_tune_first_order_process(self):
        process = FirstOrderProcess(gain=2.0, tau=0.3, dead_time=0.1)
        result = relay_tune(process, setpoint=1.0, relay_amplitude=1.0,
                            duration=20.0, dt=0.005)
        assert result.parameters.kc > 0
        assert result.parameters.tc > 0
        assert result.switches > 4

    def test_relay_tune_queue_model(self):
        process = QueueProcessModel(capacity=1.0, drain_rate_pps=86.0, rtt=0.06)
        result = relay_tune(process, setpoint=0.9, relay_amplitude=1.0, bias=0.0,
                            duration=20.0, dt=0.002)
        assert result.parameters.kc > 0
        # the loop's natural period is a small multiple of the feedback delay
        assert 0.05 < result.parameters.tc < 1.0

    def test_relay_gains_regulate_the_loop(self):
        """Gains from relay tuning + the paper's rule keep the queue loop bounded.

        On an integrator-with-delay process ZN-style gains give a lively but
        bounded limit cycle around the set point (the packet-level controller
        additionally applies a hard set-point guard); here we check the loop
        neither diverges nor collapses to empty.
        """
        process = QueueProcessModel(capacity=1.0, drain_rate_pps=86.0, rtt=0.06)
        tuned = relay_tune(process, setpoint=0.9, relay_amplitude=1.0, bias=0.0,
                           duration=20.0, dt=0.002)
        gains = gains_from_ultimate(tuned.parameters, PAPER_RULE)
        process.reset()
        controller = PIDController(gains, setpoint=0.9, output_min=-1.0, output_max=1.0)
        result = simulate_closed_loop(process, controller, duration=30.0, dt=0.002)
        tail = result.pv[int(0.8 * len(result.pv)):]
        assert float(tail.min()) >= 0.0 and float(tail.max()) <= 1.0
        assert 0.4 < float(tail.mean()) <= 1.0
        assert result.steady_state_error(tail_fraction=0.2) < 0.5

    def test_relay_without_limit_cycle_raises(self):
        process = FirstOrderProcess(gain=0.0, tau=1.0)   # output never moves
        with pytest.raises(TuningError):
            relay_tune(process, setpoint=1.0, relay_amplitude=0.1, duration=2.0, dt=0.01)

    def test_invalid_relay_parameters(self):
        process = FirstOrderProcess(gain=1.0, tau=1.0)
        with pytest.raises(TuningError):
            relay_tune(process, setpoint=1.0, relay_amplitude=0.5, duration=0.0, dt=0.01)


class TestClosedLoopSimulation:
    def test_result_shapes(self):
        process = FirstOrderProcess(gain=1.0, tau=0.2)
        pid = PIDController(PIDGains.from_time_constants(1.0, 0.5), setpoint=1.0)
        result = simulate_closed_loop(process, pid, duration=1.0, dt=0.01)
        assert len(result.times) == len(result.pv) == len(result.outputs) == 100

    def test_pi_controller_tracks_setpoint(self):
        process = FirstOrderProcess(gain=1.0, tau=0.2)
        pid = PIDController(PIDGains.from_time_constants(2.0, 0.3), setpoint=3.0)
        result = simulate_closed_loop(process, pid, duration=10.0, dt=0.01)
        assert result.final_pv == pytest.approx(3.0, rel=0.05)
        assert result.steady_state_error() < 0.1

    def test_overshoot_measure(self):
        process = FirstOrderProcess(gain=1.0, tau=0.2)
        pid = PIDController(PIDGains(kp=50.0, ki=20.0), setpoint=1.0)
        result = simulate_closed_loop(process, pid, duration=5.0, dt=0.01)
        assert result.overshoot() >= 0.0

    def test_disturbance_injection(self):
        process = FirstOrderProcess(gain=1.0, tau=0.2)
        pid = PIDController(PIDGains.from_time_constants(2.0, 0.3), setpoint=1.0)
        result = simulate_closed_loop(process, pid, duration=5.0, dt=0.01,
                                      disturbance=lambda t: 0.5 if t > 2.5 else 0.0)
        assert result.steady_state_error() < 0.2
