"""Tests for path configuration and scenario builders."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, ExperimentError, TopologyError
from repro.net import Router
from repro.sim import Simulator
from repro.spec import from_bulk_flows
from repro.units import Mbps
from repro.workloads import (
    BulkFlowSpec,
    PathConfig,
    anl_lbnl_path,
    build_dumbbell,
)
from repro.workloads.compile import compile_scenario


class TestPathConfig:
    def test_paper_defaults(self):
        cfg = PathConfig()
        assert cfg.bottleneck_rate_bps == Mbps(100)
        assert cfg.rtt == pytest.approx(0.060)
        assert cfg.ifq_capacity_packets == 100

    def test_bdp_properties(self):
        cfg = PathConfig()
        assert cfg.bdp_bytes == pytest.approx(750_000)
        assert cfg.bdp_packets == pytest.approx(500, rel=0.01)

    def test_rwnd_exceeds_bdp(self):
        cfg = PathConfig()
        assert cfg.rwnd_bytes > cfg.bdp_bytes

    def test_sender_nic_rate_defaults_to_bottleneck(self):
        cfg = PathConfig()
        assert cfg.sender_nic_rate_bps == cfg.bottleneck_rate_bps
        cfg2 = cfg.replace(access_rate_bps=Mbps(1000))
        assert cfg2.sender_nic_rate_bps == Mbps(1000)

    def test_delays_add_up_to_rtt(self):
        cfg = PathConfig()
        one_way = cfg.bottleneck_delay + 2 * cfg.access_delay
        assert 2 * one_way == pytest.approx(cfg.rtt)

    def test_tcp_options_match_path(self):
        cfg = PathConfig()
        opts = cfg.tcp_options()
        assert opts.mss == cfg.mss
        assert opts.rwnd_bytes == cfg.rwnd_bytes

    def test_tcp_options_overrides(self):
        opts = PathConfig().tcp_options(delayed_ack=False)
        assert not opts.delayed_ack

    def test_replace(self):
        cfg = PathConfig().replace(rtt=0.1)
        assert cfg.rtt == 0.1

    @pytest.mark.parametrize("kwargs", [
        dict(bottleneck_rate_bps=0),
        dict(rtt=0.0),
        dict(ifq_capacity_packets=0),
        dict(router_buffer_packets=0),
        dict(rwnd_factor=0.0),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PathConfig(**kwargs)


class TestBuildDumbbell:
    def test_single_flow_structure(self, sim, small_path):
        scen = build_dumbbell(sim, small_path, n_flows=1)
        assert scen.n_paths == 1
        assert len(scen.routers) == 2
        assert all(isinstance(r, Router) for r in scen.routers)
        # sender/receiver/2 routers
        assert len(scen.topology.nodes) == 4

    def test_multi_flow_structure(self, sim, small_path):
        scen = build_dumbbell(sim, small_path, n_flows=3)
        assert scen.n_paths == 3
        assert len(scen.topology.nodes) == 2 + 2 * 3

    def test_invalid_flow_count(self, sim, small_path):
        with pytest.raises(ConfigurationError):
            build_dumbbell(sim, small_path, n_flows=0)

    def test_sender_ifq_capacity_matches_config(self, sim, small_path):
        scen = build_dumbbell(sim, small_path, n_flows=1)
        assert scen.sender_ifq(0).capacity_packets == small_path.ifq_capacity_packets

    def test_bottleneck_interface_is_r1_to_r2(self, sim, small_path):
        scen = build_dumbbell(sim, small_path, n_flows=1)
        iface = scen.bottleneck_interface()
        assert iface.node is scen.routers[0]
        assert iface.rate_bps == small_path.bottleneck_rate_bps

    def test_anl_lbnl_path_defaults(self):
        sim = Simulator(seed=1)
        scen = anl_lbnl_path(sim)
        assert scen.config.bottleneck_rate_bps == Mbps(100)
        assert scen.n_paths == 1

    def test_anl_lbnl_path_overrides(self):
        sim = Simulator(seed=1)
        scen = anl_lbnl_path(sim, rtt=0.03)
        assert scen.config.rtt == 0.03

    def test_propagation_rtt_close_to_config(self, sim, small_path):
        scen = build_dumbbell(sim, small_path, n_flows=1)
        rtt = scen.topology.path_rtt("sender0", "receiver0")
        assert rtt == pytest.approx(small_path.rtt, rel=0.01)


class TestAddBulkFlow:
    def test_creates_app_and_sink(self, sim, small_path):
        scen = build_dumbbell(sim, small_path, n_flows=1)
        app, sink = scen.add_bulk_flow_between("sender0", "receiver0", cc="reno",
                                               total_bytes=10_000)
        sim.run(until=2.0)
        assert app.completed
        assert sink.bytes_received == 10_000

    def test_cc_by_name_requires_registration(self, sim, small_path):
        scen = build_dumbbell(sim, small_path, n_flows=1)
        with pytest.raises(ConfigurationError):
            scen.add_bulk_flow_between("sender0", "receiver0",
                                       cc="definitely_not_registered")

    def test_invalid_flow_index(self, sim, small_path):
        # a pair the dumbbell does not have is an unknown host
        scen = build_dumbbell(sim, small_path, n_flows=1)
        with pytest.raises(TopologyError):
            scen.add_bulk_flow_between("sender5", "receiver5")

    def test_restricted_by_name(self, sim, small_path):
        import repro.core  # noqa: F401 - registers "restricted"
        scen = build_dumbbell(sim, small_path, n_flows=1)
        app, _ = scen.add_bulk_flow_between("sender0", "receiver0", cc="restricted")
        sim.run(until=1.0)
        assert app.bytes_acked > 0

    def test_run_helper(self, sim, small_path):
        scen = build_dumbbell(sim, small_path, n_flows=1)
        scen.add_bulk_flow_between("sender0", "receiver0", cc="reno", total_bytes=5000)
        end = scen.run(1.0)
        assert end == 1.0


class TestBulkFlowSpecs:
    """``MultiFlowSpec(flows=...)`` placement, through ``from_bulk_flows``."""

    def test_attach_assigns_paths_round_robin(self, sim, small_path):
        specs = [BulkFlowSpec(cc="reno"), BulkFlowSpec(cc="reno")]
        scen = compile_scenario(sim, from_bulk_flows(specs, small_path))
        assert len(scen.flows) == 2
        senders = [app.connection.host.name for app, _ in scen.flows]
        assert senders == ["sender0", "sender1"]

    def test_explicit_path_index(self, sim, small_path):
        specs = [BulkFlowSpec(cc="reno", path_index=1), BulkFlowSpec(cc="reno")]
        scen = compile_scenario(sim, from_bulk_flows(specs, small_path))
        senders = [app.connection.host.name for app, _ in scen.flows]
        assert senders == ["sender1", "sender1"]

    def test_empty_specs_rejected(self, small_path):
        with pytest.raises(ExperimentError, match="at least one flow"):
            from_bulk_flows([], small_path)

    def test_invalid_spec_values(self):
        with pytest.raises(ConfigurationError):
            BulkFlowSpec(start_time=-1.0)
        with pytest.raises(ConfigurationError):
            BulkFlowSpec(total_bytes=0)
