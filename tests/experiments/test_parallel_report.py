"""Tests for parallel sweep execution and report rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign import CampaignSpec
from repro.errors import ExperimentError
from repro.experiments import (
    comparison_table,
    cumulative_stall_series,
    default_worker_count,
    map_specs,
    multi_flow_table,
    render_series,
)
from repro.spec import ComparisonSpec, MultiFlowSpec, RunSpec, execute, from_bulk_flows
from repro.workloads import BulkFlowSpec

from repro.testing import SMALL_PATH


class TestMapRuns:
    def test_serial_execution(self):
        specs = [RunSpec(cc=cc, config=SMALL_PATH, duration=0.5, backend="fluid")
                 for cc in ("reno", "restricted")]
        results = map_specs(specs, max_workers=1)
        assert [r.flow.algorithm for r in results] == ["reno", "restricted"]
        assert [r.spec for r in results] == specs

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            map_specs([], max_workers=1)

    def test_default_worker_count_positive(self):
        assert default_worker_count() >= 1

    def test_parallel_single_flow_batch(self):
        # two very short runs across two worker processes
        specs = [RunSpec(cc="reno", config=SMALL_PATH, duration=0.8, seed=s)
                 for s in (1, 2)]
        results = map_specs(specs, max_workers=2)
        assert len(results) == 2
        assert all(r.flow.bytes_acked > 0 for r in results)

    def test_parallel_matches_serial(self):
        specs = [RunSpec(cc="reno", config=SMALL_PATH, duration=0.8, seed=7),
                 RunSpec(cc="reno", config=SMALL_PATH, duration=0.8, seed=8)]
        serial = map_specs(specs, max_workers=1)[0]
        parallel = map_specs(specs, max_workers=2)[0]
        assert serial.flow.bytes_acked == parallel.flow.bytes_acked


class TestReportRendering:
    def test_comparison_table(self):
        comparison = execute(ComparisonSpec(
            base=RunSpec(config=SMALL_PATH, duration=2.0, seed=2),
            algorithms=("reno", "restricted")))
        table = comparison_table(comparison, title="headline")
        text = table.render()
        assert "reno" in text and "restricted" in text
        assert "baseline" in text
        assert "%" in text

    def test_multi_flow_table(self):
        result = execute(MultiFlowSpec(
            scenario=from_bulk_flows([BulkFlowSpec(cc="reno"), BulkFlowSpec(cc="reno")],
                                     config=SMALL_PATH),
            duration=2.0))
        text = multi_flow_table(result).render()
        assert "aggregate" in text
        assert "jain" in text.lower()

    def test_cumulative_stall_series(self):
        run = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=2.0, seed=2))
        times, series = cumulative_stall_series(run, sample_interval=0.5)
        assert len(times) == len(series)
        assert series[-1] == run.flow.send_stalls
        assert (np.diff(series) >= 0).all()

    def test_render_series_compact(self):
        text = render_series("stalls", np.array([0.0, 1.0, 2.0]),
                             np.array([0.0, 1.0, 1.0]))
        assert text.startswith("stalls:")
        assert "0s:0" in text

    def test_render_series_empty(self):
        assert "empty" in render_series("x", np.array([]), np.array([]))


class TestMaxWorkersEnv:
    """REPRO_MAX_WORKERS caps fan-out without code changes."""

    def test_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert default_worker_count() == 3

    def test_zero_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "0")
        assert default_worker_count() == 0
        # map_specs treats <= 1 as serial in-process execution
        results = map_specs([RunSpec(config=SMALL_PATH, duration=0.5,
                                     backend="fluid")])
        assert results[0].flow.bytes_acked > 0

    def test_non_integer_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "many")
        with pytest.raises(ExperimentError, match="REPRO_MAX_WORKERS"):
            default_worker_count()

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "-2")
        with pytest.raises(ExperimentError, match="REPRO_MAX_WORKERS"):
            default_worker_count()

    @pytest.mark.parametrize("spec", [
        ComparisonSpec(base=RunSpec(config=SMALL_PATH, duration=0.5,
                                    backend="fluid")),
        CampaignSpec(units=(RunSpec(config=SMALL_PATH, duration=0.5,
                                    backend="fluid"),) * 2),
    ], ids=["comparison", "campaign"])
    def test_composites_take_the_default_worker_count(self, monkeypatch, spec):
        # max_workers=None means default_worker_count() for every composite,
        # as for sweeps: a REPRO_MAX_WORKERS of 2 sends a comparison's and a
        # campaign's runs through the pool
        import repro.experiments.parallel as parallel

        pools = []

        class RecordingPool(parallel.ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setenv("REPRO_MAX_WORKERS", "2")
        result = execute(spec)
        assert pools == [2]
        assert len(result.runs) == 2 and result.telemetry is not None

    def test_unset_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert default_worker_count() >= 1
