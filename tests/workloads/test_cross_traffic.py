"""Tests for cross traffic declared on a scenario (``CrossTrafficSpec``)."""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.host import CBRSource, OnOffSource, PoissonSource
from repro.spec import CrossTrafficSpec, RunSpec, dumbbell, execute
from repro.workloads.compile import compile_scenario


def _with_cross_traffic(config, *cross_traffic, n_pairs=1):
    """One reno flow on pair 0 of an ``n_pairs`` dumbbell, plus cross traffic."""
    scenario = dumbbell(config, n_pairs)
    return scenario.replace(flows=scenario.flows[:1], cross_traffic=cross_traffic)


class TestAddCrossTraffic:
    def test_dedicated_host_pair_created(self, sim, small_path):
        spec = _with_cross_traffic(
            small_path, CrossTrafficSpec("sender1", "receiver1", kind="cbr",
                                         rate_fraction=0.2), n_pairs=2)
        scen = compile_scenario(sim, spec)
        (source,) = scen.cross_traffic
        assert isinstance(source, CBRSource)
        # its own pair: it shares the bottleneck with the flow, not the IFQ
        assert source.host.name == "sender1"
        assert source.host is not scen.sender(0)

    def test_shared_sender_nic(self, sim, small_path):
        spec = _with_cross_traffic(
            small_path, CrossTrafficSpec("sender0", "receiver0", kind="cbr",
                                         rate_fraction=0.1))
        scen = compile_scenario(sim, spec)
        (source,) = scen.cross_traffic
        assert source.host is scen.sender(0)

    def test_traffic_actually_flows(self, sim, small_path):
        spec = _with_cross_traffic(
            small_path, CrossTrafficSpec("sender1", "receiver1", kind="cbr",
                                         rate_fraction=0.3), n_pairs=2)
        scen = compile_scenario(sim, spec)
        sim.run(until=1.0)
        assert scen.topology.node("receiver1").udp_bytes_received > 0

    def test_poisson_and_onoff_kinds(self, sim, small_path):
        spec = _with_cross_traffic(
            small_path,
            CrossTrafficSpec("sender0", "receiver0", kind="poisson", rate_fraction=0.1),
            CrossTrafficSpec("sender0", "receiver0", kind="onoff", rate_fraction=0.1))
        poisson, onoff = compile_scenario(sim, spec).cross_traffic
        assert isinstance(poisson, PoissonSource)
        assert isinstance(onoff, OnOffSource)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="kind"):
            CrossTrafficSpec("sender0", "receiver0", kind="bursty")

    def test_invalid_rate_fraction(self):
        with pytest.raises(ExperimentError, match="rate_fraction"):
            CrossTrafficSpec("sender0", "receiver0", rate_fraction=0.0)
        with pytest.raises(ExperimentError, match="rate_fraction"):
            CrossTrafficSpec("sender0", "receiver0", rate_fraction=1.5)

    def test_cross_traffic_shares_sender_ifq_and_causes_stalls(self, small_path):
        """Cross traffic on the sending host competes for the IFQ — the
        host-level congestion scenario the paper's introduction describes."""
        scenario = dumbbell(small_path, 1).replace(cross_traffic=(
            CrossTrafficSpec("sender0", "receiver0", rate_fraction=0.9),))
        run = execute(RunSpec(cc="reno", duration=3.0, scenario=scenario))
        assert run.flow.send_stalls >= 1
