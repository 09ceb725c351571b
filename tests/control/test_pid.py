"""Tests for the PID controller and its gains."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.control import PIDController, PIDGains
from repro.errors import ControlError


class TestPIDGains:
    def test_parallel_form_fields(self):
        g = PIDGains(kp=2.0, ki=0.5, kd=0.1)
        assert (g.kp, g.ki, g.kd) == (2.0, 0.5, 0.1)

    def test_from_time_constants(self):
        g = PIDGains.from_time_constants(kp=1.0, ti=0.5, td=0.2)
        assert g.ki == pytest.approx(2.0)
        assert g.kd == pytest.approx(0.2)

    def test_time_constant_roundtrip(self):
        g = PIDGains.from_time_constants(kp=1.5, ti=0.4, td=0.3)
        assert g.ti == pytest.approx(0.4)
        assert g.td == pytest.approx(0.3)

    def test_no_integral_action(self):
        g = PIDGains.from_time_constants(kp=1.0, ti=None)
        assert g.ki == 0.0
        assert math.isinf(g.ti)

    def test_infinite_ti_allowed(self):
        g = PIDGains.from_time_constants(kp=1.0, ti=math.inf)
        assert g.ki == 0.0

    def test_negative_gains_rejected(self):
        with pytest.raises(ControlError):
            PIDGains(kp=-1.0)
        with pytest.raises(ControlError):
            PIDGains.from_time_constants(kp=1.0, ti=-1.0)
        with pytest.raises(ControlError):
            PIDGains.from_time_constants(kp=1.0, td=-0.1)

    def test_scaled(self):
        g = PIDGains(1.0, 2.0, 3.0).scaled(0.5)
        assert (g.kp, g.ki, g.kd) == (0.5, 1.0, 1.5)


class TestProportionalAction:
    def test_output_proportional_to_error(self):
        pid = PIDController(PIDGains(kp=2.0), setpoint=10.0)
        assert pid.update(pv=7.0, dt=0.1) == pytest.approx(6.0)

    def test_zero_error_zero_output(self):
        pid = PIDController(PIDGains(kp=2.0), setpoint=5.0)
        assert pid.update(pv=5.0, dt=0.1) == pytest.approx(0.0)

    def test_negative_error_negative_output(self):
        pid = PIDController(PIDGains(kp=1.0), setpoint=0.0)
        assert pid.update(pv=3.0, dt=0.1) == pytest.approx(-3.0)


class TestIntegralAction:
    def test_integral_accumulates(self):
        pid = PIDController(PIDGains(kp=0.0, ki=1.0), setpoint=1.0)
        out1 = pid.update(pv=0.0, dt=1.0)
        out2 = pid.update(pv=0.0, dt=1.0)
        assert out2 > out1

    def test_integral_eliminates_steady_state_error(self):
        # pure integrator process controlled by PI should converge to setpoint
        from repro.control import IntegratingProcess, simulate_closed_loop
        process = IntegratingProcess(gain=1.0)
        pid = PIDController(PIDGains.from_time_constants(kp=1.0, ti=1.0), setpoint=2.0)
        result = simulate_closed_loop(process, pid, duration=30.0, dt=0.01)
        assert result.steady_state_error() < 0.05

    def test_integral_term_visible(self):
        pid = PIDController(PIDGains(kp=0.0, ki=2.0), setpoint=1.0)
        pid.update(pv=0.0, dt=0.5)
        assert pid.integral == pytest.approx(1.0)


class TestDerivativeAction:
    def test_derivative_opposes_rising_pv(self):
        pid = PIDController(PIDGains(kp=0.0, ki=0.0, kd=1.0), setpoint=0.0)
        pid.update(pv=0.0, dt=0.1)
        out = pid.update(pv=1.0, dt=0.1)
        assert out < 0.0

    def test_derivative_zero_on_first_sample(self):
        pid = PIDController(PIDGains(kp=0.0, kd=1.0), setpoint=0.0)
        assert pid.update(pv=5.0, dt=0.1) == pytest.approx(0.0)

    def test_no_derivative_kick_on_setpoint_change(self):
        # derivative acts on the measurement, so changing the setpoint does
        # not produce a derivative spike
        pid = PIDController(PIDGains(kp=0.0, kd=1.0), setpoint=0.0)
        pid.update(pv=1.0, dt=0.1)
        pid.update(pv=1.0, dt=0.1)
        pid.setpoint = 100.0
        out = pid.update(pv=1.0, dt=0.1)
        assert out == pytest.approx(0.0, abs=1e-9)

    def test_filtered_derivative_smaller_than_raw(self):
        raw = PIDController(PIDGains(kp=0.0, kd=1.0), setpoint=0.0)
        filt = PIDController(PIDGains(kp=0.0, kd=1.0), setpoint=0.0,
                             derivative_filter_tau=1.0)
        for pid in (raw, filt):
            pid.update(pv=0.0, dt=0.1)
        raw_out = raw.update(pv=1.0, dt=0.1)
        filt_out = filt.update(pv=1.0, dt=0.1)
        assert abs(filt_out) < abs(raw_out)


class TestSaturationAndAntiWindup:
    def test_output_clamped(self):
        pid = PIDController(PIDGains(kp=10.0), setpoint=1.0, output_min=0.0, output_max=1.0)
        assert pid.update(pv=0.0, dt=0.1) == 1.0
        assert pid.update(pv=5.0, dt=0.1) == 0.0

    def test_invalid_limits_rejected(self):
        with pytest.raises(ControlError):
            PIDController(PIDGains(kp=1.0), setpoint=0.0, output_min=1.0, output_max=0.0)

    def test_back_calculation_prevents_windup(self):
        gains = PIDGains.from_time_constants(kp=1.0, ti=0.1)
        pid = PIDController(gains, setpoint=1.0, output_min=0.0, output_max=1.0,
                            anti_windup="back_calculation")
        # long saturation at the high limit must not grow the integral unboundedly
        for _ in range(1000):
            pid.update(pv=0.0, dt=0.01)
        assert pid.integral < 5.0
        # once the PV crosses the setpoint the output must react quickly
        outputs = [pid.update(pv=2.0, dt=0.01) for _ in range(20)]
        assert outputs[-1] == 0.0

    def test_conditional_integration_also_bounds_integral(self):
        gains = PIDGains.from_time_constants(kp=1.0, ti=0.1)
        pid = PIDController(gains, setpoint=1.0, output_min=0.0, output_max=1.0,
                            anti_windup="conditional")
        for _ in range(1000):
            pid.update(pv=0.0, dt=0.01)
        with_protection = pid.integral
        naked = PIDController(gains, setpoint=1.0, output_min=0.0, output_max=1.0,
                              anti_windup="none")
        for _ in range(1000):
            naked.update(pv=0.0, dt=0.01)
        assert with_protection < naked.integral

    def test_unknown_anti_windup_rejected(self):
        with pytest.raises(ControlError):
            PIDController(PIDGains(kp=1.0), setpoint=0.0, anti_windup="magic")

    def test_invalid_tracking_time_rejected(self):
        with pytest.raises(ControlError):
            PIDController(PIDGains(kp=1.0), setpoint=0.0, tracking_time=0.0)

    @given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=200),
           st.floats(min_value=0.001, max_value=1.0))
    def test_output_always_within_limits(self, pvs, dt):
        pid = PIDController(PIDGains.from_time_constants(kp=2.0, ti=0.5, td=0.1),
                            setpoint=1.0, output_min=-1.0, output_max=1.0)
        for pv in pvs:
            out = pid.update(pv, dt)
            assert -1.0 <= out <= 1.0


class TestHousekeeping:
    def test_dt_must_be_positive(self):
        pid = PIDController(PIDGains(kp=1.0), setpoint=0.0)
        for dt in (0.0, -0.01):
            with pytest.raises(ControlError):
                pid.update(pv=0.0, dt=dt)
        assert pid.updates == 0

    def test_reset_clears_state(self):
        pid = PIDController(PIDGains.from_time_constants(kp=1.0, ti=0.5, td=0.1),
                            setpoint=1.0)
        pid.update(pv=0.0, dt=0.1)
        pid.update(pv=0.5, dt=0.1)
        pid.reset()
        assert pid.integral == 0.0
        assert pid.last_output == 0.0

    @staticmethod
    def _state(pid):
        # repr tells 0 from 0.0 and -0.0 from 0.0, so equal states are
        # interchangeable bit for bit
        return {name: repr(value) for name, value in vars(pid).items()}

    @pytest.mark.parametrize("kwargs", [
        dict(),
        dict(derivative_filter_tau=0.005, anti_windup="conditional"),
        dict(tracking_time=0.2, output_min=-1.0, output_max=1.0),
    ], ids=["default", "filtered_conditional", "tracking_clamped"])
    def test_reset_of_a_new_controller_changes_nothing(self, kwargs):
        # the vector fluid engine skips on_reduction for a restricted flow
        # whose controller has not updated since it was built or last reset:
        # that is sound only while reset() restores the constructor's state
        def build():
            return PIDController(PIDGains.from_time_constants(kp=2.0, ti=0.5, td=0.1),
                                 setpoint=0.9, **kwargs)

        fresh, reset_once, reset_twice = build(), build(), build()
        reset_once.reset()
        reset_twice.reset()
        reset_twice.reset()
        for name in ("_integral", "_prev_pv", "_filtered_pv", "last_error",
                     "last_output", "last_p", "last_i", "last_d", "updates"):
            assert name in vars(fresh)
        assert self._state(reset_once) == self._state(fresh)
        assert self._state(reset_twice) == self._state(fresh)
        assert reset_twice.updates == 0

    def test_reset_is_idempotent_and_keeps_the_update_count(self):
        def driven():
            pid = PIDController(PIDGains.from_time_constants(kp=2.0, ti=0.5, td=0.1),
                                setpoint=0.9, derivative_filter_tau=0.005)
            for pv in (0.2, 0.7, 1.1):
                pid.update(pv=pv, dt=0.01)
            return pid

        once, twice = driven(), driven()
        once.reset()
        twice.reset()
        twice.reset()
        assert self._state(twice) == self._state(once)
        assert once.updates == 3
        # after a reset the controller acts like a new one
        fresh = PIDController(once.gains, setpoint=0.9, derivative_filter_tau=0.005)
        assert ([once.update(pv, 0.01) for pv in (0.4, 0.95)]
                == [fresh.update(pv, 0.01) for pv in (0.4, 0.95)])

    def test_update_counter(self):
        pid = PIDController(PIDGains(kp=1.0), setpoint=0.0)
        for _ in range(7):
            pid.update(pv=0.0, dt=0.1)
        assert pid.updates == 7

    def test_term_introspection(self):
        pid = PIDController(PIDGains(kp=2.0, ki=1.0, kd=0.0), setpoint=1.0)
        pid.update(pv=0.0, dt=0.5)
        assert pid.last_p == pytest.approx(2.0)
        assert pid.last_i == pytest.approx(0.5)
        assert pid.last_error == pytest.approx(1.0)


class TestPinnedOutputSequence:
    """Exact outputs for a fixed ``(pv, dt)`` trace, recorded before
    :meth:`PIDController.update` was optimised.  Any change to the
    arithmetic or its operand order moves at least one value."""

    PVS = (0.0, 0.35, 0.8, 0.97, 1.1, 0.92, 0.6, 0.85)
    DTS = (0.004, 0.004, 0.006, 0.002, 0.008, 0.004, 0.005, 0.003)
    GAINS = PIDGains(kp=2.0, ki=40.0, kd=0.01)

    #: (anti_windup, derivative_filter_tau, tracking_time) -> outputs
    EXPECTED = {
        ("back_calculation", 0.0, None): [
            1.0, 0.38148000000000015, -0.3695200000000002, -0.8151199999999995,
            -0.4516200000000003, 0.51768, 1.0, -0.6004213333333333],
        ("back_calculation", 0.0, 0.2): [
            1.0, 0.4381200000000002, -0.31288000000000016, -0.7584799999999996,
            -0.39498000000000033, 0.57432, 1.0, -0.5146213333333334],
        ("back_calculation", 0.005, None): [
            1.0, 0.8675911111111112, -0.20537858585858604, -0.6264475613275609,
            -0.6434767543567546, 0.07081513646846974, 1.0, 0.1532349733229733],
        ("back_calculation", 0.005, 0.2): [
            1.0, 0.9242311111111112, -0.14873858585858601, -0.5698075613275608,
            -0.5868367543567545, 0.12745513646846973, 1.0, 0.21515254094054087],
        ("conditional", 0.0, None): [
            1.0, 0.3130000000000003, -0.43800000000000017, -0.8835999999999995,
            -0.5201000000000002, 0.44920000000000004, 1.0, -0.6881333333333333],
        ("conditional", 0.005, None): [
            1.0, 0.7991111111111113, -0.273858585858586, -0.694927561327561,
            -0.7119567543567545, 0.00233513646846973, 0.960767568234235,
            0.03367973014639675],
        ("none", 0.0, None): [
            1.0, 0.4570000000000002, -0.29400000000000015, -0.7395999999999996,
            -0.3761000000000003, 0.5932000000000001, 1.0, -0.4841333333333333],
        ("none", 0.005, None): [
            1.0, 0.9431111111111112, -0.129858585858586, -0.5509275613275608,
            -0.5679567543567545, 0.14633513646846974, 1.0, 0.23767973014639676],
    }

    def _trace(self, pid):
        return [pid.update(pv, dt) for pv, dt in zip(self.PVS, self.DTS)]

    def _controller(self, gains, **kwargs):
        return PIDController(gains, setpoint=0.9, output_min=-1.0, output_max=1.0,
                             **kwargs)

    @pytest.mark.parametrize("mode", sorted(EXPECTED, key=repr))
    def test_output_sequence_is_pinned(self, mode):
        anti_windup, tau, tracking_time = mode
        pid = self._controller(self.GAINS, anti_windup=anti_windup,
                               derivative_filter_tau=tau, tracking_time=tracking_time)
        assert self._trace(pid) == self.EXPECTED[mode]
        assert pid.updates == len(self.PVS)

    def test_assigned_gains_act_like_a_fresh_controller(self):
        fresh = self._controller(self.GAINS, derivative_filter_tau=0.005)
        reassigned = self._controller(PIDGains(kp=0.5), derivative_filter_tau=0.005)
        reassigned.gains = self.GAINS
        assert reassigned.gains is self.GAINS
        assert self._trace(reassigned) == self._trace(fresh)

    def test_gains_assigned_mid_run_take_effect_on_the_next_update(self):
        pid = self._controller(PIDGains(kp=0.5, ki=1.0))
        self._trace(pid)
        pid.reset()
        pid.gains = self.GAINS
        expected = self.EXPECTED[("back_calculation", 0.0, None)]
        assert self._trace(pid) == expected

    def test_assigned_anti_windup_and_tracking_time_take_effect(self):
        # update() resolves its anti-windup branch when these are assigned,
        # not per call: an assignment must still act like a fresh controller
        pid = self._controller(self.GAINS, anti_windup="none")
        pid.anti_windup = "back_calculation"
        assert self._trace(pid) == self.EXPECTED[("back_calculation", 0.0, None)]
        pid.reset()
        pid.tracking_time = 0.2
        assert self._trace(pid) == self.EXPECTED[("back_calculation", 0.0, 0.2)]
        pid.reset()
        pid.anti_windup = "conditional"
        pid.tracking_time = None
        assert self._trace(pid) == self.EXPECTED[("conditional", 0.0, None)]
        with pytest.raises(ControlError):
            pid.anti_windup = "magic"
        with pytest.raises(ControlError):
            pid.tracking_time = 0.0

    def test_zero_kp_disables_back_calculation(self):
        # the implied tracking time kp/ki is 0: no bleed, same as "none"
        gains = PIDGains(kp=0.0, ki=400.0)
        back = self._controller(gains, anti_windup="back_calculation")
        naked = self._controller(gains, anti_windup="none")
        self._trace(back)
        self._trace(naked)
        assert back.integral == naked.integral
