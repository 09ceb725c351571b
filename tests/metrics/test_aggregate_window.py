"""Oracle: an aggregate goodput cannot exceed the bottleneck.

The aggregate of a multi-flow run is the bits its flows delivered over one
measurement window, the summary horizon.  Whatever the engine, those bits
cannot exceed what the bottleneck carries in the window: ``rate × window``.
The fluid engines integrate a rate, so they get a small relative slack.
A sum of per-flow goodputs, each over its own flow's lifetime, breaks this
bound as soon as flows do not all span the run.
"""

from __future__ import annotations

import pytest

from repro.experiments.aqm_gallery import GALLERY_CCS, GALLERY_DISCIPLINES, aqm_gallery_spec
from repro.experiments.sweeps import fairness_sweep_spec
from repro.fluid import FlowArrivalSpec
from repro.spec import MultiFlowSpec, dumbbell, execute
from repro.testing import SMALL_PATH

#: Relative slack for the fluid engines' integrated delivery.
FLUID_EPS = 1e-6


def _e12_point(backend):
    (_, by_algo), = fairness_sweep_spec(start_times=(0.5,), duration=2.0, seed=1,
                                        base_config=SMALL_PATH,
                                        backend=backend).point_specs()
    (spec,) = by_algo.values()
    return spec


def _churn_point():
    return MultiFlowSpec(
        scenario=dumbbell(SMALL_PATH, 2, ccs="restricted"),
        churn=FlowArrivalSpec(rate_per_s=40.0, mean_size_bytes=50_000,
                              size_dist="lognormal", cc="restricted"),
        duration=3.0, seed=1, backend="fluid")


def _assert_within_capacity(result, eps):
    summary = result.summary
    window = summary.horizon
    rate = result.config.bottleneck_rate_bps
    delivered_bits = summary.total_bytes_acked * 8.0
    assert delivered_bits > 0
    assert delivered_bits <= rate * window * (1.0 + eps)
    assert result.aggregate_goodput_bps == pytest.approx(delivered_bits / window, rel=1e-12)
    assert summary.aggregate_goodput_bps == pytest.approx(delivered_bits / window, rel=1e-12)
    assert result.link_utilization == pytest.approx(result.aggregate_goodput_bps / rate)
    assert result.link_utilization <= 1.0 + eps
    for group in (*summary.by_class.values(), *summary.by_cc.values()):
        assert group.aggregate_goodput_bps == pytest.approx(
            group.bytes_acked * 8.0 / window, rel=1e-12)


@pytest.mark.parametrize("backend,eps", [("packet", 0.0), ("fluid", FLUID_EPS)])
def test_e12_point_delivers_at_most_capacity(backend, eps):
    _assert_within_capacity(execute(_e12_point(backend)), eps)


@pytest.mark.parametrize("discipline", GALLERY_DISCIPLINES)
@pytest.mark.parametrize("cc", GALLERY_CCS)
def test_e13_cell_delivers_at_most_capacity(cc, discipline):
    spec = aqm_gallery_spec(cc, discipline, config=SMALL_PATH, n_flows=2,
                            duration=0.5, seed=1)
    _assert_within_capacity(execute(spec), 0.0)


def test_churned_population_delivers_at_most_capacity():
    result = execute(_churn_point())
    # a population of short flows, most of which span a fraction of the run
    assert result.summary.n_flows > 50
    _assert_within_capacity(result, FLUID_EPS)
