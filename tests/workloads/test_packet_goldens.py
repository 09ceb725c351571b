"""Golden pins for the packet engine: results and work counts, exactly.

Each case runs a short packet-engine spec and compares the sha256 of its
result document (telemetry sidecar removed) and the exact ``events``,
``events_scheduled`` and ``packets_forwarded`` counters with values
recorded before the forwarding path was optimised.  A change that only
makes the engine faster leaves every pin unchanged; one that reorders
simultaneous events, adds or removes an event, or perturbs a random stream
moves at least one of them.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.aqm_gallery import aqm_gallery_spec
from repro.experiments.results_io import result_document
from repro.experiments.sweeps import fairness_sweep_spec
from repro.host import BulkSenderApp, SinkApp
from repro.net.lossmodels import BernoulliLoss
from repro.sim import Simulator
from repro.spec import ComparisonSpec, RunSpec, execute, lossy_link
from repro.tcp.cc import cc_factory
from repro.testing import SMALL_PATH
from repro.workloads import build_dumbbell


def _e12_point():
    (_, by_algo), = fairness_sweep_spec(start_times=(0.5,), duration=2.0, seed=1,
                                        base_config=SMALL_PATH).point_specs()
    (spec,) = by_algo.values()
    return spec


def _aqm_cell(cc, discipline):
    return aqm_gallery_spec(cc, discipline, config=SMALL_PATH, n_flows=2,
                            duration=1.0, seed=1)


#: name -> (spec factory, document sha256, events, events_scheduled,
#: packets_forwarded)
GOLDENS = {
    "reno_vs_restricted": (
        lambda: ComparisonSpec(base=RunSpec(config=SMALL_PATH, duration=2.0, seed=1),
                               algorithms=("reno", "restricted")),
        "362201f42b608a3b6f626bc7026b62e1e1783066a753121bb8506a8d27c15e01",
        41793, 46480, 20863),
    "e12_point": (
        _e12_point,
        "f8582d6a8c6e002e2be3302308e337a66b32072d7c10b1c405d30dd7fa4baeb4",
        22521, 25048, 11284),
    "prague_dualpi2": (
        lambda: _aqm_cell("prague", "dualpi2"),
        "adb5cc500f203ed066e2f4984c1ede2245d075cf492905bd8497c6224f3c9734",
        1630, 1804, 816),
    "reno_red": (
        lambda: _aqm_cell("reno", "red"),
        "7412c3738539c12da361fe256f6d22488db1377f399dce716fa9ba97b5bbc0a1",
        11043, 12198, 5535),
    "lossy_link": (
        lambda: RunSpec(duration=2.0, seed=1, scenario=lossy_link(SMALL_PATH, loss=0.01)),
        "a1e4dd8613dd379c611b6fcaad4205377533ab3bf79982566aab6b6b6bed41a2",
        4923, 5355, 2426),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_packet_result_and_counts_are_pinned(name):
    factory, digest, events, scheduled, forwarded = GOLDENS[name]
    document = result_document(execute(factory(), max_workers=0))
    counters = document.pop("telemetry")["counters"]
    text = json.dumps(document, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert (counters["events"], counters["events_scheduled"],
            counters["packets_forwarded"]) == (events, scheduled, forwarded)


def test_bottleneck_loss_assigned_after_wiring_is_pinned():
    # build_dumbbell installs its loss model on an already wired interface;
    # the drops must come from the same "loss:<iface>" stream, same draws
    sim = Simulator(seed=7)
    scenario = build_dumbbell(sim, SMALL_PATH, n_flows=1,
                              bottleneck_loss=BernoulliLoss(0.01))
    opts = SMALL_PATH.tcp_options()
    sink = SinkApp(scenario.receivers[0], 7000, options=opts)
    app = BulkSenderApp(sim, scenario.senders[0], scenario.receivers[0].address, 7000,
                        total_bytes=400_000, options=opts, cc_factory=cc_factory("reno"))
    sim.run(until=5.0)
    stats = scenario.bottleneck_interface().stats
    assert (stats.packets_sent, stats.packets_delivered, stats.packets_lost,
            stats.bytes_delivered) == (282, 279, 3, 414508)
    assert stats.busy_time == 0.167603200000004
    assert (sink.bytes_received, app.completed, app.stats.PktsRetrans,
            app.stats.Timeouts) == (400_000, True, 3, 0)
    assert (sim.events_processed, sim.events_scheduled) == (2705, 2924)
