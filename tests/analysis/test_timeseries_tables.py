"""Tests for time-series helpers and the table renderer."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis import (
    Table,
    cumulative_count_series,
    downsample,
    kv_table,
    resample_step,
)
from repro.errors import ExperimentError


class TestResampleStep:
    def test_step_semantics(self):
        out = resample_step([1.0, 2.0], [10.0, 20.0], [0.5, 1.0, 1.5, 2.5])
        assert list(out) == [0.0, 10.0, 10.0, 20.0]

    def test_custom_left_value(self):
        out = resample_step([1.0], [5.0], [0.0], left=-1.0)
        assert list(out) == [-1.0]

    def test_empty_series(self):
        out = resample_step([], [], [0.0, 1.0], left=3.0)
        assert list(out) == [3.0, 3.0]

    def test_length_mismatch(self):
        with pytest.raises(ExperimentError):
            resample_step([0.0], [], [0.0])


class TestCumulativeCountSeries:
    def test_matches_manual_count(self):
        out = cumulative_count_series([0.5, 1.5, 1.5, 3.0], [0.0, 1.0, 2.0, 3.0, 4.0])
        assert list(out) == [0.0, 1.0, 3.0, 4.0, 4.0]

    @given(st.lists(st.floats(min_value=0, max_value=10), max_size=30))
    def test_final_value_is_total(self, events):
        out = cumulative_count_series(events, [10.0])
        assert out[-1] == len(events)


class TestDownsample:
    def test_no_change_when_short(self):
        t, v = downsample([0, 1, 2], [1, 2, 3], max_points=10)
        assert len(t) == 3

    def test_reduces_long_series(self):
        t, v = downsample(np.arange(1000), np.arange(1000), max_points=100)
        assert len(t) <= 100
        assert len(t) == len(v)

    def test_invalid_max_points(self):
        with pytest.raises(ExperimentError):
            downsample([0, 1], [0, 1], max_points=1)


class TestTable:
    def test_render_contains_header_and_rows(self):
        table = Table(["name", "value"], title="demo")
        table.add_row("alpha", 1.5)
        table.add_row("beta", 2)
        text = table.render()
        assert "demo" in text
        assert "alpha" in text and "beta" in text
        assert "1.500" in text

    def test_markdown_rendering(self):
        table = Table(["a", "b"])
        table.add_row(1, 2)
        md = table.render_markdown()
        assert md.splitlines()[0] == "| a | b |"
        assert "| 1 | 2 |" in md

    def test_named_cells(self):
        table = Table(["x", "y"])
        table.add_row(y=2, x=1)
        assert table.rows[0] == ["1", "2"]

    def test_column_access(self):
        table = Table(["x", "y"])
        table.add_row(1, 2)
        table.add_row(3, 4)
        assert table.column("y") == ["2", "4"]
        with pytest.raises(ExperimentError):
            table.column("z")

    def test_wrong_cell_count_rejected(self):
        table = Table(["x", "y"])
        with pytest.raises(ExperimentError):
            table.add_row(1)

    def test_unknown_named_column_rejected(self):
        table = Table(["x"])
        with pytest.raises(ExperimentError):
            table.add_row(z=1)

    def test_mixed_cells_rejected(self):
        table = Table(["x", "y"])
        with pytest.raises(ExperimentError):
            table.add_row(1, y=2)

    def test_empty_columns_rejected(self):
        with pytest.raises(ExperimentError):
            Table([])

    def test_len(self):
        table = Table(["x"])
        table.add_row(1)
        assert len(table) == 1

    def test_kv_table(self):
        table = kv_table([("flows", 3), ("jain", 0.5)], title="summary")
        assert table.columns == ["metric", "value"]
        assert table.column("metric") == ["flows", "jain"]
        assert "summary" in table.render()
