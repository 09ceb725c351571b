"""Differential test: the single-flow engine's inline restricted recurrence
against :meth:`RestrictedFluid.increment`.

:class:`~repro.fluid.model.FluidFlowModel` runs the recurrence of a rule that
is exactly a :class:`~repro.fluid.model.RestrictedFluid` on locals in its
chunk loop; a subclass keeps calling ``increment``.  Both must give the same
run, bit for bit, for any path, controller configuration, send-stall policy
and transfer shape.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.pid import PIDGains
from repro.core.config import RestrictedSlowStartConfig
from repro.fluid.model import FluidFlowModel, RestrictedFluid
from repro.tcp.state import LocalCongestionPolicy
from repro.testing import SMALL_PATH
from repro.workloads.scenarios import PathConfig


class _ViaIncrement(RestrictedFluid):
    """Not exactly ``RestrictedFluid``: the engine calls ``increment``."""


def _refuse_call(*args):
    raise AssertionError("the inline path must not call increment")


_paths = st.builds(
    PathConfig,
    bottleneck_rate_bps=st.floats(1e6, 1e8),
    rtt=st.floats(0.005, 0.2),
    # small queues stall often, large ones regulate
    ifq_capacity_packets=st.one_of(st.integers(1, 20), st.integers(1, 500)),
    router_buffer_packets=st.integers(1, 300),
)


def _gain():
    return st.one_of(st.just(0.0), st.floats(1e-3, 50.0))


@st.composite
def rss_configs(draw):
    out_max = draw(st.one_of(st.just(1.0), st.floats(0.05, 3.0)))
    out_min = draw(st.one_of(st.just(-1.0), st.just(0.0),
                             st.floats(-3.0, out_max)))
    return RestrictedSlowStartConfig(
        setpoint_fraction=draw(st.one_of(st.just(1.0), st.floats(0.1, 1.0))),
        gains=PIDGains(kp=draw(_gain()), ki=draw(_gain()), kd=draw(_gain())),
        max_increment_per_ack=out_max,
        min_increment_per_ack=out_min,
        derivative_filter_tau=draw(st.one_of(st.just(0.0), st.floats(1e-4, 0.1))),
        hard_setpoint_guard=draw(st.booleans()),
        reset_integral_on_congestion=draw(st.booleans()),
    )


@st.composite
def runs(draw):
    config = draw(_paths)
    rss = draw(st.one_of(
        rss_configs(),
        st.builds(RestrictedSlowStartConfig.for_path, st.just(config.rtt))))
    rtt = config.rtt
    start_time = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0 * rtt)))
    # up to ~30 rounds; a fractional count leaves a partial last round
    duration = start_time + rtt * draw(st.floats(2.0, 30.0))
    # data flows one round trip after the start
    stop_time = draw(st.one_of(
        st.none(), st.floats(start_time + 1.25 * rtt, duration + rtt)))
    return {
        "config": config,
        "rss": rss,
        "ack_quantum": draw(st.sampled_from((1.0, 2.0, 3.0))),
        "policy": draw(st.sampled_from(LocalCongestionPolicy)),
        "total_bytes": draw(st.one_of(st.none(), st.integers(1, 5_000_000))),
        "start_time": start_time,
        "stop_time": stop_time,
        "duration": duration,
        "past_duration": draw(st.booleans()),
    }


def _run(case, rule):
    """The run's result, or the error it ends in.

    A tracking time ``kp / ki`` far below the chunk length makes the
    back-calculation diverge to NaN on both paths; they must then fail
    alike.
    """
    config = case["config"]
    options = config.tcp_options().replace(local_congestion_policy=case["policy"])
    model = FluidFlowModel(config, rule, options=options,
                           total_bytes=case["total_bytes"],
                           start_time=case["start_time"],
                           stop_time=case["stop_time"])
    try:
        return model.run(case["duration"],
                         run_past_duration_until_complete=case["past_duration"])
    except ValueError as exc:
        return repr(exc)


def _same(a, b):
    if isinstance(a, np.ndarray):
        a, b = a.tolist(), b.tolist()
    return a == b and repr(a) == repr(b)  # repr: signed zeros too


def _assert_same_run(case):
    inline = RestrictedFluid(case["rss"], ack_quantum=case["ack_quantum"])
    inline.increment = _refuse_call  # type: ignore[method-assign]
    called = _ViaIncrement(case["rss"], ack_quantum=case["ack_quantum"])

    got = _run(case, inline)
    want = _run(case, called)

    if isinstance(want, str):
        assert got == want
    else:
        for f in dataclasses.fields(got):
            assert _same(getattr(got, f.name), getattr(want, f.name)), f.name
        # the rule state the run leaves behind matches too
        assert _same(inline._integral, called._integral)
        assert _same(inline._last, called._last)
    return want


@settings(max_examples=150, deadline=None)
@given(case=runs())
def test_inline_recurrence_equals_increment_calls(case):
    _assert_same_run(case)


@pytest.mark.parametrize("reset", [True, False], ids=["reset", "no_reset"])
@pytest.mark.parametrize("ifq", [2, 10])
def test_state_survives_reductions_inside_the_chunk_loop(ifq, reset):
    # CLAMP_ONLY keeps the flow in slow-start after a stall, so the rule
    # state the reduction leaves (reset or kept) drives the next chunks
    config = SMALL_PATH.replace(ifq_capacity_packets=ifq)
    rss = RestrictedSlowStartConfig.for_path(
        config.rtt, setpoint_fraction=1.0, reset_integral_on_congestion=reset)
    result = _assert_same_run({
        "config": config, "rss": rss, "ack_quantum": 2.0,
        "policy": LocalCongestionPolicy.CLAMP_ONLY, "total_bytes": None,
        "start_time": 0.0, "stop_time": None, "duration": 3.0,
        "past_duration": False,
    })
    assert result.send_stalls > 0
