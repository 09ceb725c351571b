"""Tests for the packet-level and fluid-model gain auto-tuning."""

from __future__ import annotations

import pytest

from repro.control import (
    PAPER_RULE,
    TUNING_RULES,
    OscillationResult,
    PIDGains,
    ZNParameters,
)
from repro.core import RestrictedSlowStartConfig, autotune_gains, autotune_gains_fluid
from repro.core.tuning import evaluate_p_gain
from repro.spec import RunSpec, execute
from repro.units import Mbps
from repro.workloads import PathConfig

#: A very small path so the packet-level tuning experiments stay fast.
TINY_PATH = PathConfig(
    bottleneck_rate_bps=Mbps(5),
    rtt=0.02,
    ifq_capacity_packets=15,
    router_buffer_packets=60,
    ack_path_buffer_packets=200,
    receiver_ifq_capacity_packets=200,
    rwnd_factor=5.0,
)


class TestFluidTuning:
    def test_returns_positive_gains(self, small_path):
        result = autotune_gains_fluid(small_path)
        assert result.gains.kp > 0
        assert result.gains.ki > 0
        assert result.gains.kd > 0
        assert result.method == "fluid_relay"

    def test_rule_applied(self, small_path):
        result = autotune_gains_fluid(small_path, rule=PAPER_RULE)
        a, b, c = TUNING_RULES[PAPER_RULE]
        assert result.gains.kp == pytest.approx(a * result.ultimate.kc)
        assert result.gains.ti == pytest.approx(b * result.ultimate.tc)

    def test_period_scales_with_rtt(self):
        short = autotune_gains_fluid(PathConfig(rtt=0.02))
        long = autotune_gains_fluid(PathConfig(rtt=0.1))
        assert long.ultimate.tc > short.ultimate.tc

    def test_summary_dict(self, small_path):
        result = autotune_gains_fluid(small_path)
        summary = result.summary()
        assert {"Kc", "Tc", "Kp", "Ki", "Kd", "rule", "method"} <= set(summary)

    def test_fluid_gains_work_end_to_end(self, small_path):
        """Gains from the fluid tuner avoid stalls on the packet simulator."""
        tuned = autotune_gains_fluid(small_path)
        run = execute(RunSpec(cc="restricted", config=small_path, duration=4.0,
                              seed=4, rss_config=RestrictedSlowStartConfig(
                                  gains=tuned.gains)))
        assert run.flow.send_stalls == 0
        assert run.flow.goodput_bps > 0.5 * small_path.bottleneck_rate_bps


class TestPacketLevelTuning:
    def test_low_gain_does_not_oscillate(self):
        result = evaluate_p_gain(0.05, config=TINY_PATH, duration=2.0)
        assert not result.sustained

    def test_high_gain_produces_queue_activity(self):
        # With a very high proportional gain the queue repeatedly overshoots
        # and drains; the analyzer must at least find peaks.
        result = evaluate_p_gain(8.0, config=TINY_PATH, duration=3.0)
        assert result.n_peaks >= 1

    @pytest.mark.slow
    def test_autotune_gains_converges(self):
        result = autotune_gains(config=TINY_PATH, duration=3.0, kp_initial=0.5,
                                max_iterations=10, refine_steps=1)
        assert result.gains.kp > 0
        assert result.ultimate.tc > 0
        assert len(result.history) >= 1


#: kp -> (duration, OscillationResult) of ``evaluate_p_gain`` on TINY_PATH
#: at its default seed; recorded when the experiment built its dumbbell by
#: hand, before it ran as a RunSpec.
P_GAIN_PINS = {
    0.05: (2.0, OscillationResult(sustained=False, period=0.0, amplitude=0.0,
                                  decay_ratio=0.0, n_peaks=0)),
    0.4: (3.0, OscillationResult(sustained=True, period=0.008393939393938916,
                                 amplitude=0.2777093012230966,
                                 decay_ratio=1.5196078431372546, n_peaks=199)),
    2.0: (3.0, OscillationResult(sustained=True, period=0.008094786729857303,
                                 amplitude=0.2291342952275249,
                                 decay_ratio=7.345070422535221, n_peaks=212)),
    8.0: (3.0, OscillationResult(sustained=True, period=0.0079999999999995,
                                 amplitude=0.22361349342481404,
                                 decay_ratio=11.19230769230773, n_peaks=220)),
}


class TestPacketLevelTuningPins:
    @pytest.mark.parametrize("kp", sorted(P_GAIN_PINS))
    def test_p_gain_experiment_is_pinned(self, kp):
        duration, expected = P_GAIN_PINS[kp]
        assert evaluate_p_gain(kp, config=TINY_PATH, duration=duration) == expected

    def test_autotune_search_is_pinned(self):
        result = autotune_gains(config=TINY_PATH, duration=3.0, kp_initial=0.5,
                                max_iterations=10, refine_steps=1)
        assert result.history == [(0.5, OscillationResult(
            sustained=True, period=0.007948717948717526,
            amplitude=0.2774928839460312, decay_ratio=1.1866970576046414,
            n_peaks=196))]
        assert result.ultimate == ZNParameters(kc=0.5, tc=0.007948717948717526)
        assert result.gains == PIDGains(kp=0.165, ki=41.516129032260274,
                                        kd=0.0004328076923076693)
