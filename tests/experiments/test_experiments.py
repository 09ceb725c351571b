"""Tests for the per-experiment modules (scaled-down configurations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    all_experiments,
    flow_mix,
    get_experiment,
    render_baselines,
    render_fairness,
    render_figure1,
    render_sweep,
    render_throughput,
    render_tuning_ablation,
)
from repro.experiments.baselines import baselines_from_comparison, baselines_spec
from repro.experiments.fairness import fairness_from_campaign, fairness_spec
from repro.experiments.figure1 import figure1_from_comparison, figure1_spec
from repro.experiments.sweeps import ifq_sweep_spec, setpoint_sweep_spec
from repro.experiments.throughput import throughput_from_comparison, throughput_spec
from repro.experiments.tuning_ablation import (
    tuning_ablation_from_campaign,
    tuning_ablation_spec,
)
from repro.errors import ExperimentError
from repro.spec import execute

from repro.testing import SMALL_PATH

#: E7 rows (rule, goodput_bps, utilization, ifq_tail_mean) for
#: ``tuning_ablation_spec(duration=2.0, config=SMALL_PATH, seed=2)``.
E7_PINNED_ROWS = [
    ("allcock_modified", 15899040.0, 0.794952, 18.65),
    ("zn_classic_pid", 16345024.0, 0.8172512, 18.65),
    ("zn_classic_pi", 16692544.0, 0.8346272, 18.65),
    ("tyreus_luyben", 16356608.0, 0.8178304, 19.05),
    ("no_overshoot", 16084384.0, 0.8042192, 19.0),
    ("relay_tuned+allcock_modified", 16049632.0, 0.8024816, 19.0),
]

#: E8 rows (algorithm, goodput_bps, utilization, send_stalls,
#: max_cwnd_segments) for ``baselines_spec(duration=2.0, config=SMALL_PATH,
#: seed=2)``.
E8_PINNED_ROWS = [
    ("reno", 10344512.0, 0.5172256, 1, 63.40400552486188),
    ("newreno", 10344512.0, 0.5172256, 1, 63.40400552486188),
    ("limited_slow_start", 10344512.0, 0.5172256, 1, 63.40400552486188),
    ("hystart", 10344512.0, 0.5172256, 1, 63.40400552486188),
    ("cubic", 10553024.0, 0.5276512, 1, 54.9585635359116),
    ("restricted", 15974336.0, 0.7987168, 0, 89.18577348066299),
]


class TestFigure1:
    def test_shape_of_figure1(self):
        result = figure1_from_comparison(
            execute(figure1_spec(duration=3.0, config=SMALL_PATH, seed=2)),
            sample_interval=0.5)
        assert result.shape_holds()
        assert result.standard_total >= 1
        assert result.proposed_total == 0
        # cumulative series are monotone and end at the totals
        assert (np.diff(result.standard_cumulative_stalls) >= 0).all()
        assert result.standard_cumulative_stalls[-1] == result.standard_total
        assert result.proposed_cumulative_stalls[-1] == result.proposed_total

    def test_render_mentions_both_algorithms(self):
        result = figure1_from_comparison(
            execute(figure1_spec(duration=2.0, config=SMALL_PATH, seed=2)))
        text = render_figure1(result)
        assert "standard" in text.lower()
        assert "restricted" in text.lower() or "proposed" in text.lower()


class TestThroughput:
    def test_restricted_wins(self, fast_kwargs):
        result = throughput_from_comparison(execute(throughput_spec(**fast_kwargs)))
        assert result.shape_holds()
        assert result.improvement_percent > 10.0

    def test_render_reports_improvement(self, fast_kwargs):
        result = throughput_from_comparison(execute(throughput_spec(**fast_kwargs)))
        text = render_throughput(result)
        assert "improvement" in text
        assert "40%" in text or "40" in text


class TestSweeps:
    def test_ifq_sweep_rows(self):
        result = execute(ifq_sweep_spec(sizes=(10, 60), duration=2.0, seed=2,
                                        base_config=SMALL_PATH), max_workers=1)
        assert len(result.rows) == 2
        small = result.row_for(10)
        large = result.row_for(60)
        # a tiny IFQ hurts standard TCP; a large one (>= BDP) removes stalls
        assert small["reno_send_stalls"] >= large["reno_send_stalls"]
        assert {"improvement_percent", "restricted_goodput_bps"} <= set(small)
        assert "ifq_capacity_packets" in render_sweep(result)

    def test_setpoint_sweep_rows(self):
        result = execute(setpoint_sweep_spec(setpoints=(0.5, 0.9), duration=2.0, seed=2,
                                             base_config=SMALL_PATH), max_workers=1)
        assert len(result.rows) == 2
        low = result.row_for(0.5)
        high = result.row_for(0.9)
        assert low["restricted_goodput_bps"] <= high["restricted_goodput_bps"] * 1.05
        assert high["restricted_send_stalls"] == 0

    def test_row_for_unknown_value(self):
        result = execute(setpoint_sweep_spec(setpoints=(0.9,), duration=1.0, seed=2,
                                             base_config=SMALL_PATH), max_workers=1)
        with pytest.raises(ExperimentError):
            result.row_for(0.1)

    def test_column_accessor(self):
        result = execute(setpoint_sweep_spec(setpoints=(0.8, 0.9), duration=1.0, seed=2,
                                             base_config=SMALL_PATH), max_workers=1)
        assert len(result.column("restricted_goodput_bps")) == 2


class TestTuningAblation:
    def test_rules_compared(self):
        rules = ("allcock_modified", "zn_classic_pid")
        spec = tuning_ablation_spec(rules=rules, include_relay_tuned=True,
                                    duration=2.5, config=SMALL_PATH, seed=2)
        result = tuning_ablation_from_campaign(execute(spec, max_workers=1),
                                               rules=rules)
        assert len(result.rows) == 3
        labels = {row["rule"] for row in result.rows}
        assert "allcock_modified" in labels
        assert any(label.startswith("relay_tuned") for label in labels)
        assert result.best_rule() in labels
        assert "tuning" in render_tuning_ablation(result).lower()

    def test_rows_pinned(self):
        # exact row values of the default rule set on the small path; any
        # change to how E7 builds or runs its specs shows up here
        result = tuning_ablation_from_campaign(execute(
            tuning_ablation_spec(duration=2.0, config=SMALL_PATH, seed=2),
            max_workers=0))
        assert result.rows == [
            dict(rule=rule, goodput_bps=goodput, send_stalls=0,
                 utilization=utilization, ifq_peak=20, ifq_tail_mean=tail,
                 setpoint_packets=18.0)
            for rule, goodput, utilization, tail in E7_PINNED_ROWS]

    def test_unknown_rule_rejected(self):
        with pytest.raises(ExperimentError):
            tuning_ablation_spec(rules=("nope",), config=SMALL_PATH, duration=1.0)

    def test_pinned_relay_gains_equal_the_tuner(self):
        # the registry's E7 spec uses the pinned constant so that importing
        # the registry runs no tuner; it must be exactly what the tuner gives
        from repro.control.ziegler_nichols import PAPER_RULE
        from repro.core.tuning import autotune_gains_fluid
        from repro.experiments.tuning_ablation import DEFAULT_RELAY_GAINS
        from repro.workloads import PathConfig

        assert DEFAULT_RELAY_GAINS == autotune_gains_fluid(
            PathConfig(), rule=PAPER_RULE).gains
        assert tuning_ablation_spec() == tuning_ablation_spec(config=PathConfig())

    def test_fold_rejects_a_mismatched_grid(self):
        result = execute(tuning_ablation_spec(
            rules=("allcock_modified",), include_relay_tuned=False,
            duration=1.0, config=SMALL_PATH, seed=2), max_workers=0)
        with pytest.raises(ValueError, match="zip"):
            tuning_ablation_from_campaign(result)


class TestBaselines:
    def test_all_algorithms_run(self):
        result = baselines_from_comparison(execute(baselines_spec(
            algorithms=("reno", "limited_slow_start", "restricted"),
            duration=2.5, config=SMALL_PATH, seed=2), max_workers=1))
        assert len(result.rows) == 3
        assert result.row_for("restricted")["send_stalls"] == 0
        ranking = result.ranking()
        assert ranking[0] == "restricted"
        assert "ranking" in render_baselines(result)

    def test_rows_pinned(self):
        # exact row values of the default algorithm set on the small path
        result = baselines_from_comparison(execute(
            baselines_spec(duration=2.0, config=SMALL_PATH, seed=2),
            max_workers=0))
        assert result.rows == [
            dict(algorithm=algorithm, goodput_bps=goodput, utilization=utilization,
                 send_stalls=stalls, congestion_signals=0, retrans=0,
                 max_cwnd_segments=max_cwnd)
            for algorithm, goodput, utilization, stalls, max_cwnd in E8_PINNED_ROWS]

    def test_row_for_unknown(self):
        result = baselines_from_comparison(execute(baselines_spec(
            algorithms=("reno",), duration=1.0, config=SMALL_PATH),
            max_workers=1))
        with pytest.raises(ExperimentError):
            result.row_for("cubic")

    def test_registry_spec_is_the_default_comparison(self):
        from repro.experiments.baselines import DEFAULT_BASELINES
        from repro.spec import ComparisonSpec, RunSpec

        assert get_experiment("E8").spec == ComparisonSpec(
            base=RunSpec(duration=15.0), algorithms=DEFAULT_BASELINES)


class TestFairness:
    def test_flow_mix_construction(self):
        specs = flow_mix(4, "half")
        assert [s.cc for s in specs] == ["restricted", "reno", "restricted", "reno"]
        assert [s.cc for s in flow_mix(2, "standard")] == ["reno", "reno"]
        with pytest.raises(ExperimentError):
            flow_mix(2, "nonsense")
        with pytest.raises(ExperimentError):
            flow_mix(0, "standard")

    def test_fairness_rows(self):
        grid = dict(flow_counts=(2,), mixes=("standard", "half"))
        result = fairness_from_campaign(execute(fairness_spec(
            **grid, duration=2.5, config=SMALL_PATH, seed=2)), **grid)
        assert len(result.rows) == 2
        half = result.row_for(2, "half")
        assert 0.3 <= half["jain_index"] <= 1.0
        assert half["restricted_share"] is not None
        assert "Jain" in render_fairness(result)

    def test_path_override_matches_the_builder(self):
        # E9 applies path flags through with_config; the canonical dumbbell
        # re-derives its topology exactly as from_bulk_flows would
        assert (get_experiment("E9").spec.with_config(SMALL_PATH)
                == fairness_spec(config=SMALL_PATH))


class TestRegistry:
    def test_every_experiment_registered(self):
        from repro.experiments.registry import _supports_fluid

        ids = {spec.experiment_id for spec in all_experiments()}
        packet_ids = {f"E{i}" for i in range(1, 14)}
        assert packet_ids <= ids
        # every fluid-capable experiment also has a fluid fast-path
        # variant; packet-only entries (E8's cubic/hystart, E11's parking
        # lot, E13's AQM cells) have none
        fluid_ids = {i for i in ids if i.endswith("F")}
        assert fluid_ids == {f"{spec.experiment_id}F" for spec in all_experiments()
                             if spec.base_id is None and _supports_fluid(spec.spec)}
        assert fluid_ids == {f"E{i}F" for i in (1, 2, 3, 4, 5, 6, 7, 9, 10, 12)}
        assert ids == packet_ids | fluid_ids

    def test_lookup_case_insensitive(self):
        assert get_experiment("e1").paper_artifact == "Figure 1"

    def test_unknown_experiment(self):
        with pytest.raises(ExperimentError):
            get_experiment("E99")

    def test_specs_point_to_existing_benchmarks(self):
        import pathlib
        root = pathlib.Path(__file__).resolve().parents[2]
        for spec in all_experiments():
            assert (root / spec.benchmark).exists(), spec.benchmark
