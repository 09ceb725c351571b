"""Differential test: the fluid restricted rule's own PID recurrence against
:class:`~repro.control.pid.PIDController`.

:class:`~repro.fluid.model.RestrictedFluid` runs the controller recurrence on
rule-local state instead of driving a controller object.  For any config and
any sequence of samples and reductions, its increment must equal the hard
set-point guard applied to ``PIDController.update``'s output for the same
inputs, bit for bit.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.pid import PIDController, PIDGains
from repro.core.config import RestrictedSlowStartConfig
from repro.errors import ControlError
from repro.fluid.model import RestrictedFluid


class ReferenceRule:
    """The restricted rule as it was built on a ``PIDController``."""

    def __init__(self, config: RestrictedSlowStartConfig, ack_quantum: float) -> None:
        self.config = config
        self.ack_quantum = ack_quantum
        self.pid = PIDController(
            config.resolved_gains(),
            setpoint=config.setpoint_fraction,
            output_min=config.min_increment_per_ack,
            output_max=config.max_increment_per_ack,
            derivative_filter_tau=config.derivative_filter_tau,
        )

    def increment(self, acked, occupancy_fraction, capacity, dt):
        output = self.pid.update(occupancy_fraction, dt)
        guard = self.config.hard_setpoint_guard
        setpoint = self.config.setpoint_fraction
        if guard and occupancy_fraction >= setpoint and output > 0.0:
            output = 0.0
        delta = output * acked
        if guard and delta > 0.0 and capacity > 0:
            headroom = (setpoint - occupancy_fraction) * capacity
            if headroom < 0.0:
                headroom = 0.0
            bound = headroom + output * self.ack_quantum
            if bound < delta:
                delta = bound
        return delta

    def on_reduction(self):
        if self.config.reset_integral_on_congestion:
            self.pid.reset()


def _gain():
    # zero, or a magnitude a tuned loop can have (a subnormal kp makes the
    # tracking time kp / ki so small that both implementations overflow)
    return st.one_of(st.just(0.0), st.floats(1e-4, 200.0))


@st.composite
def configs(draw):
    out_max = draw(st.one_of(st.just(1.0), st.floats(0.01, 5.0)))
    out_min = draw(st.one_of(st.just(-1.0), st.just(0.0), st.floats(-5.0, out_max)))
    return RestrictedSlowStartConfig(
        setpoint_fraction=draw(st.floats(0.05, 1.0)),
        gains=PIDGains(kp=draw(_gain()), ki=draw(_gain()), kd=draw(_gain())),
        max_increment_per_ack=out_max,
        min_increment_per_ack=out_min,
        derivative_filter_tau=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.1))),
        hard_setpoint_guard=draw(st.booleans()),
        reset_integral_on_congestion=draw(st.booleans()),
    )


#: one chunk ``(acked, occupancy fraction, capacity, dt)``, or ``None`` for a
#: window reduction
_steps = st.lists(
    st.one_of(
        st.none(),
        st.tuples(st.floats(0.0, 16.0), st.floats(0.0, 1.3),
                  st.integers(0, 300), st.floats(1e-6, 0.2)),
    ),
    min_size=1, max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(config=configs(), ack_quantum=st.floats(0.5, 4.0), steps=_steps)
def test_increment_equals_guarded_controller_output(config, ack_quantum, steps):
    rule = RestrictedFluid(config, ack_quantum=ack_quantum)
    reference = ReferenceRule(config, ack_quantum)
    for step in steps:
        if step is None:
            rule.on_reduction()
            reference.on_reduction()
            continue
        acked, pv, capacity, dt = step
        got = rule.increment(acked, 10.0, pv, capacity, dt)
        want = reference.increment(acked, pv, capacity, dt)
        assert got == want
        assert repr(got) == repr(want)  # signed zeros too


@pytest.mark.parametrize("overrides", [
    {}, {"derivative_filter_tau": 0.0}, {"min_increment_per_ack": 0.0},
    {"hard_setpoint_guard": False}, {"reset_integral_on_congestion": False},
], ids=["default", "unfiltered", "grow_only", "unguarded", "no_reset"])
@pytest.mark.parametrize("rtt", [0.01, 0.06, 0.2])
def test_path_configs_follow_the_controller_on_a_long_walk(rtt, overrides):
    # The configs the fluid backend builds, on a seeded random walk of the
    # occupancy with occasional reductions.  Thousands of arbitrary samples
    # expose a reordered operation that short generated sequences can miss:
    # the integral drifts by an ulp and the drift reaches the output.
    config = RestrictedSlowStartConfig.for_path(rtt, **overrides)
    rule = RestrictedFluid(config, ack_quantum=2.0)
    reference = ReferenceRule(config, 2.0)
    rng = random.Random(f"{rtt}-{sorted(overrides.items())}")
    pv = 0.0
    for _ in range(3000):
        if rng.random() < 0.01:
            rule.on_reduction()
            reference.on_reduction()
        pv = min(max(pv + rng.uniform(-0.08, 0.1), 0.0), 1.2)
        acked, dt = rng.uniform(0.5, 4.0), rng.uniform(1e-4, rtt / 4)
        assert (rule.increment(acked, 10.0, pv, 100, dt)
                == reference.increment(acked, pv, 100, dt))


@pytest.mark.parametrize("dt", [0.0, -0.01])
def test_non_positive_dt_raises(dt):
    rule = RestrictedFluid(RestrictedSlowStartConfig())
    with pytest.raises(ControlError, match="dt must be positive"):
        rule.increment(1.0, 10.0, 0.5, 100, dt)
