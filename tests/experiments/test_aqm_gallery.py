"""Tests for E13 — the AQM + ECN congestion-control gallery."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments import EXPERIMENTS, aqm_gallery_spec, get_experiment, render_aqm_gallery
from repro.experiments.aqm_gallery import aqm_gallery_from_campaign, aqm_gallery_grid_spec
from repro.spec import MultiFlowSpec, execute
from repro.testing import SMALL_PATH


@pytest.fixture(scope="module")
def small_gallery():
    """A 1x2 gallery (prague over droptail vs dualpi2), run serially.

    The router buffer is shallow enough that the rwnd-capped flows still
    overshoot it on the drop-tail baseline.
    """
    grid = dict(ccs=("prague",), disciplines=("droptail", "dualpi2"))
    spec = aqm_gallery_grid_spec(
        **grid, n_flows=2, duration=3.0,
        config=SMALL_PATH.replace(router_buffer_packets=30), seed=2)
    return aqm_gallery_from_campaign(execute(spec, max_workers=1), **grid)


class TestGallerySpec:
    def test_cell_is_an_ordinary_multi_flow_spec(self):
        spec = aqm_gallery_spec("prague", "dualpi2", config=SMALL_PATH,
                                duration=2.0)
        assert isinstance(spec, MultiFlowSpec)
        assert spec.scenario.name == "aqm_dualpi2_prague"
        assert all(f.ecn for f in spec.scenario.flows)
        assert spec.cache_key()  # addressable like any other run

    def test_droptail_cell_disables_ecn(self):
        spec = aqm_gallery_spec("reno", "droptail", config=SMALL_PATH)
        assert not any(f.ecn for f in spec.scenario.flows)

    def test_empty_grid_rejected(self):
        with pytest.raises(ExperimentError, match="empty campaign"):
            aqm_gallery_grid_spec(ccs=(), disciplines=("red",))

    def test_grid_is_a_campaign_of_cells(self):
        spec = aqm_gallery_grid_spec(ccs=("reno", "prague"),
                                     disciplines=("droptail", "red"),
                                     config=SMALL_PATH, duration=2.0)
        assert list(spec.units) == [
            aqm_gallery_spec(cc, discipline, config=SMALL_PATH, duration=2.0)
            for cc in ("reno", "prague") for discipline in ("droptail", "red")]


class TestGalleryRun:
    def test_grid_shape(self, small_gallery):
        assert len(small_gallery.rows) == 2
        assert set(small_gallery.runs) == {("prague", "droptail"),
                                           ("prague", "dualpi2")}

    def test_l4s_cell_marks_without_drops(self, small_gallery):
        row = small_gallery.row_for("prague", "dualpi2")
        assert row["ecn"] is True
        assert row["bottleneck_marks"] > 0
        assert row["bottleneck_drops"] == 0

    def test_droptail_cell_drops_without_marks(self, small_gallery):
        row = small_gallery.row_for("prague", "droptail")
        assert row["ecn"] is False
        assert row["bottleneck_marks"] == 0
        assert row["bottleneck_drops"] > 0

    def test_both_cells_carry_goodput(self, small_gallery):
        for row in small_gallery.rows:
            assert row["aggregate_goodput_bps"] > 0
            assert 0.0 < row["utilization"] <= 1.0

    def test_unknown_row_raises(self, small_gallery):
        with pytest.raises(ExperimentError, match="no row"):
            small_gallery.row_for("bbr", "droptail")

    def test_render(self, small_gallery):
        text = render_aqm_gallery(small_gallery)
        assert "E13" in text and "dualpi2" in text and "prague" in text


class TestRegistry:
    def test_e13_runs_through_the_registry(self):
        result = get_experiment("E13").run(
            config=SMALL_PATH, duration=0.5, seed=3, max_workers=0)
        assert len(result.rows) == 16
        assert result.row_for("prague", "dualpi2")["ecn"] is True
        assert result.telemetry is not None

    def test_e13_has_no_fluid_variant(self):
        # AQM cells are packet-engine territory; the fluid gate rejects
        # them eagerly, so no derived E13F entry exists
        assert "E13" in EXPERIMENTS and "E13F" not in EXPERIMENTS
