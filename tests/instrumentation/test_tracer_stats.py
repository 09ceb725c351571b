"""Tests for time series and the periodic time-series tracer."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.instrumentation import TimeSeries, TimeSeriesTracer


class TestTimeSeries:
    def test_append_and_arrays(self):
        s = TimeSeries("x")
        s.append(0.0, 1.0)
        s.append(1.0, 2.0)
        t, v = s.as_arrays()
        assert list(t) == [0.0, 1.0]
        assert list(v) == [1.0, 2.0]
        assert len(s) == 2

    def test_last(self):
        s = TimeSeries("x")
        assert s.last() is None
        s.append(0.0, 5.0)
        assert s.last() == 5.0

    def test_value_at(self):
        s = TimeSeries("x")
        s.append(1.0, 10.0)
        s.append(2.0, 20.0)
        assert s.value_at(0.5) == 0.0
        assert s.value_at(1.5) == 10.0
        assert s.value_at(2.5) == 20.0


class TestTimeSeriesTracer:
    def test_probes_sampled_periodically(self, sim):
        values = {"x": 0.0}
        tracer = TimeSeriesTracer(sim, interval=0.1)
        tracer.add_probe("x", lambda: values["x"])
        tracer.start(fire_now=True)
        sim.schedule(0.25, lambda: values.update(x=5.0))
        sim.run(until=0.5)
        t, v = tracer.series("x").as_arrays()
        assert len(t) == 6  # t=0.0 .. 0.5
        assert v[-1] == 5.0

    def test_duplicate_probe_rejected(self, sim):
        tracer = TimeSeriesTracer(sim, interval=0.1)
        tracer.add_probe("x", lambda: 0.0)
        with pytest.raises(ConfigurationError):
            tracer.add_probe("x", lambda: 1.0)

    def test_unknown_series_rejected(self, sim):
        tracer = TimeSeriesTracer(sim, interval=0.1)
        with pytest.raises(ConfigurationError):
            tracer.series("nope")

    def test_stop(self, sim):
        tracer = TimeSeriesTracer(sim, interval=0.1)
        tracer.add_probe("x", lambda: 1.0)
        tracer.start()
        sim.run(until=0.3)
        tracer.stop()
        n = len(tracer.series("x"))
        sim.run(until=1.0)
        assert len(tracer.series("x")) == n

    def test_as_dict(self, sim):
        tracer = TimeSeriesTracer(sim, interval=0.1)
        tracer.add_probe("a", lambda: 1.0)
        tracer.add_probe("b", lambda: 2.0)
        tracer.start()
        sim.run(until=0.2)
        d = tracer.as_dict()
        assert set(d) == {"a", "b"}

    def test_invalid_interval(self, sim):
        with pytest.raises(ConfigurationError):
            TimeSeriesTracer(sim, interval=0.0)
