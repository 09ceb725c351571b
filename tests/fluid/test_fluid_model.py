"""Tests for the fluid difference-equation model.

Two layers of coverage:

* **golden-tolerance** — the fluid backend must land where the packet
  engine lands (goodput, stall behaviour, IFQ peak) across the whole
  cross-validation grid, within the tolerances documented in
  :mod:`repro.fluid.validate`;
* **determinism** — the model is pure arithmetic, so identical inputs must
  produce bit-identical series (mirroring ``tests/sim/test_randomness.py``
  for the packet engine's seeded streams).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ExperimentError
from repro.fluid import (
    DEFAULT_TOLERANCE,
    FluidFlowModel,
    cross_validate,
    default_grid,
    fluid_growth_rule,
)
from repro.spec import RunSpec, execute
from repro.testing import SMALL_PATH
from repro.units import Mbps


# ---------------------------------------------------------------------------
# golden tolerance: fluid vs packet across the grid
# ---------------------------------------------------------------------------

class TestGoldenTolerance:
    @pytest.fixture(scope="class")
    def report(self):
        # One shared grid run for the whole class (21 packet runs dominate).
        return cross_validate(duration=3.0, seed=2)

    def test_grid_has_enough_points(self, report):
        grid = default_grid()
        assert len(grid) >= 6
        assert len(report.rows) == len(grid) * 3

    def test_goodput_within_documented_tolerance(self, report):
        for row in report.rows:
            assert row.goodput_rel_error <= DEFAULT_TOLERANCE.goodput_rtol, (
                row.algorithm, row.config, row.goodput_rel_error)

    def test_stall_and_ifq_peak_agreement(self, report):
        assert report.ok, "\n".join(report.failures())

    def test_stall_regime_matches_exactly_for_restricted(self, report):
        # The paper's claim (no stalls at the canonical operating points)
        # must hold identically on both backends.
        for row in report.rows:
            if row.algorithm != "restricted":
                continue
            assert (row.fluid_send_stalls == 0) == (row.packet_send_stalls == 0), (
                row.config, row.fluid_send_stalls, row.packet_send_stalls)

    def test_fluid_is_cheaper_than_packet(self, report):
        # Even at test scale (tiny paths, where the packet engine is at its
        # cheapest) the fluid step count stays well below the event count;
        # at full scale the ratio is >100x (see bench_fluid_vs_packet.py).
        for row in report.rows:
            assert row.fluid_steps < row.packet_events / 3


class TestQualitativeShape:
    def test_reno_stalls_and_restricted_does_not(self):
        reno = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=3.0,
                               seed=2, backend="fluid"))
        restricted = execute(RunSpec(cc="restricted", config=SMALL_PATH, duration=3.0,
                                     seed=2, backend="fluid"))
        assert reno.flow.send_stalls >= 1
        assert restricted.flow.send_stalls == 0
        assert restricted.goodput_bps > reno.goodput_bps

    def test_large_ifq_removes_reno_stalls(self):
        cfg = SMALL_PATH.replace(ifq_capacity_packets=400,
                                 router_buffer_packets=600)
        result = execute(RunSpec(cc="reno", config=cfg, duration=3.0, backend="fluid"))
        assert result.flow.send_stalls == 0

    def test_goodput_bounded_by_link_rate(self):
        result = execute(RunSpec(cc="restricted", config=SMALL_PATH, duration=3.0,
                                 backend="fluid"))
        assert result.goodput_bps <= SMALL_PATH.bottleneck_rate_bps

    def test_restricted_holds_ifq_near_setpoint(self):
        result = execute(RunSpec(cc="restricted", config=SMALL_PATH, duration=5.0,
                                 backend="fluid"))
        cap = SMALL_PATH.ifq_capacity_packets
        assert result.ifq_peak <= cap
        # the regulated queue settles near 90% of the capacity
        assert result.ifq_occupancy[-1] == pytest.approx(0.9 * cap, abs=2.0)

    def test_limited_slow_start_throttles_growth(self):
        # RFC 3742 caps the per-round growth at max_ssthresh/2, so the
        # throttled flow reaches the IFQ limit (its first stall) later than
        # plain exponential slow-start.
        plain = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=3.0,
                                backend="fluid"))
        limited = execute(RunSpec(cc="limited_slow_start", config=SMALL_PATH,
                                  duration=3.0,
                                  cc_kwargs=dict(max_ssthresh_segments=10.0),
                                  backend="fluid"))
        assert plain.flow.stall_times, "reno must stall on the small path"
        assert limited.flow.stall_times, "throttled flow still hits the IFQ limit"
        assert limited.flow.stall_times[0] > plain.flow.stall_times[0]

    def test_finite_transfer_completes(self):
        result = execute(RunSpec(cc="restricted", config=SMALL_PATH, duration=20.0,
                                 total_bytes=1_000_000, backend="fluid"))
        assert result.flow.completion_time is not None
        assert result.flow.bytes_acked >= 1_000_000

    def test_unsupported_algorithm_rejected(self):
        with pytest.raises(ExperimentError):
            execute(RunSpec(cc="cubic", config=SMALL_PATH, duration=1.0, backend="fluid"))

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError):
            execute(RunSpec(cc="reno", config=SMALL_PATH, duration=1.0, backend="quantum"))

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ExperimentError):
            execute(RunSpec(cc="reno", config=SMALL_PATH, duration=0.0, backend="fluid"))


# ---------------------------------------------------------------------------
# determinism (mirrors tests/sim/test_randomness.py for the fluid backend)
# ---------------------------------------------------------------------------

class TestDeterminism:
    @pytest.mark.parametrize("cc", ["reno", "restricted", "limited_slow_start"])
    def test_same_seed_identical_series(self, cc):
        a = execute(RunSpec(cc=cc, config=SMALL_PATH, duration=2.0, seed=7, backend="fluid"))
        b = execute(RunSpec(cc=cc, config=SMALL_PATH, duration=2.0, seed=7, backend="fluid"))
        assert a.flow.bytes_acked == b.flow.bytes_acked
        assert a.flow.send_stalls == b.flow.send_stalls
        assert np.array_equal(a.cwnd_segments, b.cwnd_segments)
        assert np.array_equal(a.ifq_occupancy, b.ifq_occupancy)
        assert np.array_equal(a.acked_bytes, b.acked_bytes)
        assert a.flow.stall_times == b.flow.stall_times

    def test_model_is_arithmetically_deterministic_across_seeds(self):
        # The fluid model consumes no random numbers: the seed is carried
        # through for interface parity only (documented behaviour).
        a = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=2.0, seed=1,
                            backend="fluid"))
        b = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=2.0, seed=999,
                            backend="fluid"))
        assert np.array_equal(a.cwnd_segments, b.cwnd_segments)
        assert a.seed == 1 and b.seed == 999

    @settings(max_examples=20, deadline=None)
    @given(st.floats(min_value=0.5, max_value=4.0),
           st.integers(min_value=0, max_value=2 ** 31))
    def test_rerun_reproducibility_property(self, duration, seed):
        a = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=duration,
                            seed=seed, backend="fluid"))
        b = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=duration,
                            seed=seed, backend="fluid"))
        assert a.flow.bytes_acked == b.flow.bytes_acked
        assert np.array_equal(a.ifq_occupancy, b.ifq_occupancy)


# ---------------------------------------------------------------------------
# model-level unit behaviour
# ---------------------------------------------------------------------------

class TestModelInternals:
    def test_series_lengths_consistent(self):
        rule = fluid_growth_rule("reno", SMALL_PATH)
        raw = FluidFlowModel(SMALL_PATH, rule, seed=1).run(2.0)
        assert len(raw.times) == len(raw.cwnd_segments)
        assert len(raw.times) == len(raw.ifq_occupancy)
        assert len(raw.times) == len(raw.acked_bytes)
        assert raw.steps > 0
        assert (np.diff(raw.acked_bytes) >= 0).all()

    def test_cost_scales_with_rounds_not_packets(self):
        rule = fluid_growth_rule("reno", SMALL_PATH)
        raw = FluidFlowModel(SMALL_PATH, rule, seed=1).run(2.0)
        rounds = 2.0 / SMALL_PATH.rtt
        # a couple hundred chunks at most for a 50-round run
        assert raw.steps < rounds * 300

    def test_faster_link_same_step_count(self):
        fast = SMALL_PATH.replace(bottleneck_rate_bps=Mbps(200))
        a = FluidFlowModel(SMALL_PATH, fluid_growth_rule("reno", SMALL_PATH)).run(2.0)
        b = FluidFlowModel(fast, fluid_growth_rule("reno", fast)).run(2.0)
        # packet cost would grow 10x with the rate; fluid cost must not
        assert b.steps < a.steps * 3

    def test_unknown_rule_lists_supported(self):
        with pytest.raises(ExperimentError, match="restricted"):
            fluid_growth_rule("hystart", SMALL_PATH)
