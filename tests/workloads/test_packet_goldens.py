"""Golden pins for the packet engine: results and work counts, exactly.

Each case runs a short packet-engine spec and compares the sha256 of its
result document (telemetry sidecar removed) and the exact ``events``,
``events_scheduled`` and ``packets_forwarded`` counters.  A change that
only makes the engine faster leaves every digest and ``packets_forwarded``
unchanged; one that reorders simultaneous events or perturbs a random
stream moves a digest.  One that adds or removes events moves the event
counts, which are re-pinned with a note when that is the point.
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
#: packets_forwarded).  The event counts were re-pinned when the interface
#: went to one event per packet-hop and timers started re-arming lazily (a
#: stopped timer's entry now lapses as an event instead of being skipped
#: as cancelled); before that they were, in order, (41793, 46480), (22521, 25048),
#: (1630, 1804), (11043, 12198) and (4923, 5355).  No digest and no
#: ``packets_forwarded`` moved.
GOLDENS = {
    "reno_vs_restricted": (
        lambda: ComparisonSpec(base=RunSpec(config=SMALL_PATH, duration=2.0, seed=1),
                               algorithms=("reno", "restricted")),
        # schema 4; at schema_version 3 this document hashed to 4be2562965a6a7d1…
        "296efdf4888e6f06de48582ba23ad4068ce00cb9fdec84508bb154ec787cfbf0",
        26018, 26127, 20863),
    "e12_point": (
        _e12_point,
        # schema 4; at schema_version 3 this document hashed to 97accd51ad82c21d…
        "b3e9aa92277ce3cafec8d4e1f59b8f27c24a134ed7894ca594ca800ef7282930",
        14894, 14955, 11284),
    "prague_dualpi2": (
        lambda: _aqm_cell("prague", "dualpi2"),
        # schema 4; at schema_version 3 this document hashed to 72367a3cd7e95e62…
        "f2f736aae102267100d1feaf38c193a80da717d37a0337db69a8a0ace2b6c455",
        1043, 1060, 816),
    "reno_red": (
        lambda: _aqm_cell("reno", "red"),
        # schema 4; at schema_version 3 this document hashed to fdcee1b002fc0eb1…
        "9ca217d2e151dc6c1f7663497955a2f691664d2e4f1a60c7081a8578a02b4674",
        7162, 7201, 5535),
    "lossy_link": (
        lambda: RunSpec(duration=2.0, seed=1, scenario=lossy_link(SMALL_PATH, loss=0.01)),
        # schema 4; at schema_version 3 this document hashed to c0c257bf31bd18ba…
        "99295a6dbf980e556d90ad31f94560a6641cb4e44138988d340ffb2d3ca12570",
        2891, 2901, 2426),
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
    # (2705, 2924) with a completion event per packet-hop and a cancel plus
    # reschedule per timer re-arm
    assert (sim.events_processed, sim.events_scheduled) == (1565, 1566)
