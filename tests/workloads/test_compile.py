"""Tests for the scenario compiler (declared spec → live simulation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.results_io import result_document
from repro.net import Router
from repro.sim import Simulator
from repro.spec import (
    CrossTrafficSpec,
    MultiFlowSpec,
    RunSpec,
    asymmetric_path,
    dumbbell,
    execute,
    from_bulk_flows,
    lossy_link,
    parking_lot,
    shared_path,
)
from repro.testing import SMALL_PATH, TINY_PATH
from repro.workloads import BulkFlowSpec, build_dumbbell
from repro.workloads.compile import compile_scenario, compile_topology, core_drops


class TestCompileTopology:
    def test_dumbbell_structure_matches_legacy_builder(self):
        """The compiled canonical dumbbell is structurally identical to the
        legacy ``build_dumbbell`` output: same names, addresses, queue
        capacities and link ordering."""
        legacy = build_dumbbell(Simulator(seed=1), SMALL_PATH, n_flows=2)
        sim = Simulator(seed=1)
        topo, nodes = compile_topology(sim, dumbbell(SMALL_PATH, 2).topology)
        assert list(topo.nodes) == list(legacy.topology.nodes)
        for name in topo.nodes:
            assert topo.nodes[name].address == legacy.topology.nodes[name].address
        assert len(topo.links) == len(legacy.topology.links)
        for built, old in zip(topo.links, legacy.topology.links):
            assert built.rate_bps == old.rate_bps
            assert built.delay_s == old.delay_s
            assert (built.iface_ab.queue.capacity_packets
                    == old.iface_ab.queue.capacity_packets)
            assert (built.iface_ba.queue.capacity_packets
                    == old.iface_ba.queue.capacity_packets)

    def test_roles_map_to_node_classes(self):
        sim = Simulator(seed=1)
        _topo, nodes = compile_topology(sim, parking_lot(SMALL_PATH, 2).topology)
        assert isinstance(nodes["r0"], Router)
        assert not isinstance(nodes["src0"], Router)

    def test_asymmetric_reverse_rate_lands_on_reverse_interface(self):
        sim = Simulator(seed=1)
        spec = asymmetric_path(SMALL_PATH, reverse_rate_fraction=0.5)
        topo, _nodes = compile_topology(sim, spec.topology)
        bottleneck = topo.links[0]
        assert bottleneck.iface_ab.rate_bps == SMALL_PATH.bottleneck_rate_bps
        assert bottleneck.iface_ba.rate_bps == pytest.approx(
            0.5 * SMALL_PATH.bottleneck_rate_bps)


def _payload(spec):
    return result_document(execute(spec, max_workers=0))["payload"]


def _payload_and_flow_name(spec):
    payload = _payload(spec)
    return payload, payload["flow"].pop("name")


def _assert_bare_runs_as_declared_dumbbell(cc, seed, backend):
    """A scenario-less RunSpec runs as ``dumbbell(cfg, 1)``: the whole
    payload matches but for the flow's name."""
    base = RunSpec(cc=cc, config=SMALL_PATH, duration=2.0, seed=seed,
                   backend=backend)
    bare, bare_name = _payload_and_flow_name(base)
    declared, declared_name = _payload_and_flow_name(
        base.replace(scenario=dumbbell(SMALL_PATH, 1)))
    assert bare == declared
    assert bare_name == "flow0"
    assert declared_name == ("flow0" if backend == "fluid" else f"flow0:{cc}")


#: flow lists of the dumbbell ``flows=`` form -> shared_paths; the packet
#: engine used to place these by hand and ignored path_index and a
#: restricted flow's cc_kwargs
BULK_FLOW_FORMS = {
    "staggered": ((BulkFlowSpec(cc="restricted"),
                   BulkFlowSpec(cc="reno", start_time=0.1)), False),
    "path_index": ((BulkFlowSpec(cc="reno", path_index=1),
                    BulkFlowSpec(cc="reno", path_index=1)), False),
    "cc_kwargs": ((BulkFlowSpec(cc="restricted",
                                cc_kwargs={"setpoint_fraction": 0.3}),
                   BulkFlowSpec(cc="reno")), False),
    "shared_paths": ((BulkFlowSpec(cc="restricted"),
                      BulkFlowSpec(cc="reno", start_time=0.2),
                      BulkFlowSpec(cc="limited_slow_start")), True),
}


class TestCanonicalEquivalence:
    """Each spec form runs exactly as the scenario it converts to."""

    @pytest.mark.parametrize("backend", ["packet", "fluid"])
    def test_run_spec_with_canonical_scenario_is_bit_for_bit(self, backend):
        _assert_bare_runs_as_declared_dumbbell("reno", 3, backend)

    @pytest.mark.parametrize("backend", ["packet", "fluid"])
    def test_restricted_run_with_scenario_is_bit_for_bit(self, backend):
        _assert_bare_runs_as_declared_dumbbell("restricted", 2, backend)

    @pytest.mark.parametrize("backend", ["packet", "fluid"])
    @pytest.mark.parametrize("form", sorted(BULK_FLOW_FORMS))
    def test_multi_flow_scenario_matches_legacy_flows_form(self, form, backend):
        flows, shared = BULK_FLOW_FORMS[form]
        bulk = MultiFlowSpec(flows=flows, config=SMALL_PATH, duration=2.0, seed=1,
                             shared_paths=shared, backend=backend)
        declared = MultiFlowSpec(
            scenario=from_bulk_flows(flows, config=SMALL_PATH, shared_paths=shared),
            duration=2.0, seed=1, backend=backend)
        assert _payload(bulk) == _payload(declared)


class TestScenarioExecution:
    def test_parking_lot_runs_with_mixed_ccs(self):
        spec = MultiFlowSpec(
            scenario=parking_lot(TINY_PATH, 3, long_cc="reno",
                                 cross_ccs=("restricted", "reno", "cubic")),
            duration=1.5, seed=1)
        result = execute(spec)
        assert len(result.flows) == 4
        assert [f.algorithm for f in result.flows] == [
            "reno", "restricted", "reno", "cubic"]
        assert all(np.isfinite(f.goodput_bps) and f.goodput_bps > 0
                   for f in result.flows)
        assert 0.0 < result.jain_index <= 1.0
        assert result.spec == spec

    def test_multi_bottleneck_utilization_stays_bounded(self):
        # aggregate goodput spans several core links; the reported
        # utilisation is normalised by the total core capacity
        result = execute(MultiFlowSpec(
            scenario=parking_lot(TINY_PATH, 3), duration=2.0, seed=1))
        assert 0.0 < result.link_utilization <= 1.0

    def test_long_flow_sees_more_contention_than_cross_flows(self):
        result = execute(MultiFlowSpec(
            scenario=parking_lot(TINY_PATH, 3), duration=2.0, seed=1))
        long_flow, cross = result.flows[0], result.flows[1:]
        # the long flow crosses all three bottlenecks, so it cannot beat the
        # best single-hop cross flow
        assert long_flow.goodput_bps <= 1.05 * max(f.goodput_bps for f in cross)

    def test_lossy_link_drops_packets(self):
        result = execute(RunSpec(duration=2.0, seed=1,
                                 scenario=lossy_link(TINY_PATH, loss=0.05)))
        # corruption loss shows up as retransmissions, not queue drops
        assert result.flow.pkts_retrans > 0

    def test_shared_path_flows_share_one_ifq(self):
        result = execute(MultiFlowSpec(
            scenario=shared_path(TINY_PATH, 2, ccs="reno"),
            duration=1.5, seed=1))
        assert len(result.flows) == 2
        assert all(f.bytes_acked > 0 for f in result.flows)

    def test_cross_traffic_reduces_goodput(self):
        quiet = execute(RunSpec(duration=1.5, seed=1,
                                scenario=dumbbell(TINY_PATH, 1)))
        noisy_scenario = dumbbell(TINY_PATH, 1).replace(cross_traffic=(
            CrossTrafficSpec(src="sender0", dst="receiver0", kind="cbr",
                             rate_fraction=0.5),))
        noisy = execute(RunSpec(duration=1.5, seed=1, scenario=noisy_scenario))
        assert noisy.flow.goodput_bps < quiet.flow.goodput_bps

    def test_scenario_results_save_and_reload(self, tmp_path):
        from repro.experiments.results_io import load_result, save_result
        from repro.spec import load_spec

        spec = MultiFlowSpec(scenario=parking_lot(TINY_PATH, 2),
                             duration=1.0, seed=1)
        result = execute(spec)
        path = save_result(result, tmp_path / "pl.json")
        document = load_result(path)
        assert document["cache_key"] == spec.cache_key()
        assert load_spec(path) == spec

    def test_bare_scenario_executes_as_multi_flow(self):
        import dataclasses

        scenario = dumbbell(TINY_PATH, 2)
        scenario = scenario.replace(flows=tuple(
            dataclasses.replace(f, total_bytes=20_000) for f in scenario.flows))
        result = execute(scenario)
        assert len(result.flows) == 2
        assert all(f.bytes_acked == 20_000 for f in result.flows)

    def test_core_drops_sums_router_router_queues(self):
        sim = Simulator(seed=1)
        scenario = compile_scenario(sim, parking_lot(TINY_PATH, 2))
        sim.run(until=1.0)
        assert core_drops(scenario.topology) >= 0

    def test_routerless_direct_link_scenario_runs(self):
        from repro.spec import FlowSpec, LinkSpec, NodeSpec, ScenarioSpec, TopologySpec

        spec = ScenarioSpec(
            name="direct", config=TINY_PATH,
            topology=TopologySpec(
                nodes=(NodeSpec("a"), NodeSpec("b")),
                links=(LinkSpec("a", "b", TINY_PATH.bottleneck_rate_bps, 0.005,
                                queue_ab_packets=TINY_PATH.ifq_capacity_packets),)),
            flows=(FlowSpec("a", "b"),))
        result = execute(MultiFlowSpec(scenario=spec, duration=1.0, seed=1))
        assert result.flows[0].bytes_acked > 0
        assert 0.0 < result.link_utilization <= 1.0

    def test_two_router_utilization_uses_declared_link_rate(self):
        import dataclasses

        # halve the declared bottleneck rate without touching the config;
        # utilisation must be computed against the declared link
        spec = dumbbell(TINY_PATH, 1)
        links = list(spec.topology.links)
        links[0] = dataclasses.replace(links[0],
                                       rate_bps=links[0].rate_bps / 2)
        spec = spec.replace(topology=dataclasses.replace(
            spec.topology, links=tuple(links)))
        result = execute(MultiFlowSpec(scenario=spec, duration=1.5, seed=1))
        assert 0.0 < result.link_utilization <= 1.0
        # at half the capacity the link should be reasonably busy
        assert result.link_utilization > 0.3

    def test_restricted_flow_cc_kwargs_override_controller_config(self):
        from repro.spec import FlowSpec
        import dataclasses

        base = dumbbell(SMALL_PATH, 1, ccs="restricted")
        tuned = base.replace(flows=(dataclasses.replace(
            base.flows[0], cc_kwargs={"setpoint_fraction": 0.4}),))
        default = execute(MultiFlowSpec(scenario=base, duration=2.0, seed=1))
        lowered = execute(MultiFlowSpec(scenario=tuned, duration=2.0, seed=1))
        # a lower set point keeps the queue emptier, so the runs must differ
        assert (lowered.flows[0].bytes_acked != default.flows[0].bytes_acked
                or lowered.flows[0].max_cwnd_bytes
                != default.flows[0].max_cwnd_bytes)
        with pytest.raises(Exception, match="RestrictedSlowStartConfig"):
            execute(MultiFlowSpec(scenario=base.replace(flows=(
                dataclasses.replace(base.flows[0],
                                    cc_kwargs={"warp": 9}),)),
                duration=1.0, seed=1))


class TestFlowDurationStopHook:
    """``FlowSpec.duration`` must actually stop the sender (the historical
    bug: a declared stop time validated at spec time but changed nothing
    at compile time — a spec that changes nothing must never load
    silently)."""

    def _scenario_with_duration(self, duration):
        import dataclasses

        base = dumbbell(TINY_PATH, 1)
        return base.replace(flows=(
            dataclasses.replace(base.flows[0], duration=duration),))

    def test_packet_flow_stops_at_declared_duration(self):
        stopped = execute(MultiFlowSpec(
            scenario=self._scenario_with_duration(1.0), duration=4.0, seed=1))
        unbounded = execute(MultiFlowSpec(
            scenario=dumbbell(TINY_PATH, 1), duration=4.0, seed=1))
        flow = stopped.flows[0]
        # the transfer is over (and counted complete) right after the stop
        assert flow.completion_time is not None
        assert flow.completion_time == pytest.approx(1.0, abs=0.5)
        assert flow.bytes_acked < unbounded.flows[0].bytes_acked / 2

    def test_primary_run_spec_flow_honours_duration(self):
        result = execute(RunSpec(
            scenario=self._scenario_with_duration(1.0), duration=4.0, seed=1))
        assert result.flow.completion_time == pytest.approx(1.0, abs=0.5)

    def test_packet_and_fluid_agree_on_stopped_transfer(self):
        scenario = self._scenario_with_duration(1.5)
        packet = execute(RunSpec(scenario=scenario, duration=4.0, seed=1))
        fluid = execute(RunSpec(scenario=scenario, duration=4.0,
                                backend="fluid"))
        assert fluid.flow.completion_time == pytest.approx(
            packet.flow.completion_time, abs=0.5)
        assert fluid.flow.bytes_acked == pytest.approx(
            packet.flow.bytes_acked, rel=0.3)

    def test_second_flow_keeps_running_after_first_stops(self):
        import dataclasses

        base = dumbbell(TINY_PATH, 2, ccs="reno")
        scenario = base.replace(flows=(
            dataclasses.replace(base.flows[0], duration=1.0),
            base.flows[1]))
        result = execute(MultiFlowSpec(scenario=scenario, duration=4.0,
                                       seed=1))
        stopped, running = result.flows
        assert running.bytes_acked > stopped.bytes_acked

    def test_flow_duration_validation(self):
        import dataclasses

        base = dumbbell(TINY_PATH, 1)
        with pytest.raises(Exception, match="duration must be positive"):
            dataclasses.replace(base.flows[0], duration=-1.0)
        flow = dataclasses.replace(base.flows[0], duration=2.5)
        assert flow.stop_time == pytest.approx(flow.start_time + 2.5)

    def test_stop_inside_handshake_still_completes(self):
        # a duration shorter than the handshake RTT must not leave the flow
        # dangling: it completes at the stop with zero payload on every
        # engine (regression: on_all_acked never fires once stop() has
        # emptied the send buffer during the handshake)
        scenario = self._scenario_with_duration(0.001)
        packet = execute(RunSpec(scenario=scenario, duration=2.0, seed=1))
        fluid = execute(RunSpec(scenario=scenario, duration=2.0,
                                backend="fluid"))
        multi = execute(MultiFlowSpec(scenario=scenario, duration=2.0,
                                      backend="fluid"))
        for completion, bytes_acked in (
                (packet.flow.completion_time, packet.flow.bytes_acked),
                (fluid.flow.completion_time, fluid.flow.bytes_acked),
                (multi.flows[0].completion_time, multi.flows[0].bytes_acked)):
            assert completion == pytest.approx(0.001)
            assert bytes_acked == 0
