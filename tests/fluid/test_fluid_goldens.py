"""Golden pins for the scalar fluid engines: results and step counts, exactly.

Each case runs a short fluid spec and compares the sha256 of its result
document (telemetry sidecar removed) and the exact ``fluid_steps`` and
``send_stalls`` counters with values recorded before the restricted
slow-start chunk loop was optimised.  Together the cases drive every branch
of :meth:`repro.fluid.model.FluidFlowModel._run_round`: slow-start growth
under each rule, controller trimming, in-round stalls under each local
congestion policy, the sustained-queue rejection, congestion avoidance
above a preset ``ssthresh``, a transfer completing mid-round and a delayed
start with a stop hook.  One restricted :class:`FluidMultiFlowModel` run
covers the growth rule and controller it shares with the single-flow model.

A change that only makes the engines faster leaves every pin unchanged; one
that reorders floating-point operations or adds or drops a controller call
moves at least one of them.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.experiments.results_io import result_document
from repro.experiments.sweeps import fairness_sweep_spec
from repro.fluid import FluidFlowModel, fluid_growth_rule
from repro.spec import MultiFlowSpec, RunSpec, dumbbell, execute
from repro.testing import SMALL_PATH

#: A 3-packet IFQ: less headroom above the set point than one delayed
#: ACK's grant, so the restricted controller stalls inside the chunk loop
#: under every local congestion policy, and in the sustained-queue check.
TINY_IFQ = SMALL_PATH.replace(ifq_capacity_packets=3)


def _fluid_run(cc="restricted", config=SMALL_PATH, duration=3.0, **kwargs):
    return RunSpec(cc=cc, config=config, duration=duration, seed=1,
                   backend="fluid", **kwargs)


def _start_stop_run():
    scenario = dumbbell(SMALL_PATH, 1, ccs="restricted")
    flow = dataclasses.replace(scenario.flows[0], start_time=0.25, duration=1.5)
    return _fluid_run(scenario=dataclasses.replace(scenario, flows=(flow,)))


def _e12f_point():
    (_, by_algo), = fairness_sweep_spec(start_times=(0.5,), duration=3.0, seed=1,
                                        base_config=SMALL_PATH,
                                        backend="fluid").point_specs()
    (spec,) = by_algo.values()
    scenario = spec.scenario
    late = dataclasses.replace(scenario.flows[1], duration=1.5)
    return spec.replace(scenario=dataclasses.replace(
        scenario, flows=(scenario.flows[0], late)))


#: name -> (spec factory, document sha256, fluid_steps, send_stalls)
GOLDENS = {
    "restricted": (
        lambda: _fluid_run(),
        # schema 3; at schema_version 2 this document hashed to 9d52405b0a577c70…
        "b77c757454a97c38230617645e0b095bb4e92471d55e47fe780b9cdb788940b4",
        4670, 0),
    "reno": (
        lambda: _fluid_run("reno"),
        # schema 3; at schema_version 2 this document hashed to de71a665aea8374c…
        "9db2ae8f5ea9a1d08748af0366d2317bede1ace5b02f5aa5dcd182e92485139a",
        287, 2),
    "limited_slow_start": (
        lambda: _fluid_run("limited_slow_start",
                           cc_kwargs={"max_ssthresh_segments": 10.0}),
        # schema 3; at schema_version 2 this document hashed to 8f9001c7c6e24f90…
        "4fbc7897af037f25a6aac510c6216b6216e90ac81a81f829b101e03a466305d3",
        287, 2),
    "restricted_default_path": (
        lambda: RunSpec(cc="restricted", duration=5.0, seed=1, backend="fluid"),
        # schema 3; at schema_version 2 this document hashed to 37526f41e52b3c29…
        "1939b858bbdc775257f5eb90c991f5a075eb5eedb096689726a5ec748c1369f9",
        7553, 0),
    "restricted_tiny_ifq": (
        lambda: _fluid_run(config=TINY_IFQ),
        # schema 3; at schema_version 2 this document hashed to 964e3590b4c8996c…
        "3131fc82d86ee77cd37051ab0eeda200a76d0f7b9964f641921f90dc5c33e9a3",
        2787, 2),
    "restricted_ignore": (
        lambda: _fluid_run(config=TINY_IFQ, local_congestion_policy="ignore"),
        # schema 3; at schema_version 2 this document hashed to 925ea2e0d718b955…
        "c9f0ae73a602c04dd24df33ba07fda281f651784b9c1b2b3e206a1840932cf1c",
        4118, 1590),
    "reno_ignore": (
        lambda: _fluid_run("reno", local_congestion_policy="ignore"),
        # schema 3; at schema_version 2 this document hashed to 36ae7ffc23741ec4…
        "31bf892db7f59c66953b4e57552c8a73636917eac6f0c6a91cf2a2365df8d5b3",
        292, 91),
    "restricted_clamp_only": (
        lambda: _fluid_run(config=TINY_IFQ, local_congestion_policy="clamp_only"),
        # schema 3; at schema_version 2 this document hashed to 46426f03b1b2cebd…
        "8e4a13cc572eabda5ec4a4b1979963ef47bd1c3b3b794e38a682f2ad3fa94847",
        3864, 56),
    "restricted_finite_transfer": (
        lambda: _fluid_run(duration=5.0, total_bytes=1_000_000),
        # schema 3; at schema_version 2 this document hashed to c68d05c45e3c93c6…
        "487df5d25fcb7afa583cac82ad4b47958682decb1c20249efde7d1be59e2df01",
        697, 0),
    "restricted_start_stop": (
        _start_stop_run,
        # schema 3; at schema_version 2 this document hashed to 569cdaa56785787b…
        "6d7b06a770806a4bee7afe8093ee7d6eaec7ec6e97600d2d64b711c82f7520e5",
        2158, 0),
    "e12f_point": (
        _e12f_point,
        # schema 3; at schema_version 2 this document hashed to ea729b82a7fef654…
        "f02e3fa2cbb1e96e0fa243f3bb624780471bd43bb246909cfa0c2a2a5dd251be",
        440, 2),
    "restricted_multiflow": (
        lambda: MultiFlowSpec(scenario=dumbbell(SMALL_PATH, 2, ccs="restricted",
                                                start_times=(0.0, 0.5)),
                              duration=3.0, seed=1, backend="fluid"),
        # schema 3; at schema_version 2 this document hashed to 7909ae1b1ec5acd1…
        "fa23170cf49daa11ec7f05c13868f5222f415f6654b47650de4d23b65ff95319",
        5550, 0),
}


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_fluid_result_and_counts_are_pinned(name):
    factory, digest, steps, stalls = GOLDENS[name]
    document = result_document(execute(factory(), max_workers=0))
    counters = document.pop("telemetry")["counters"]
    text = json.dumps(document, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    # a zero counter is left out of the sidecar
    assert (counters["fluid_steps"], counters.get("send_stalls", 0)) == (steps, stalls)


def _run_digest(raw):
    fields = {f.name: getattr(raw, f.name) for f in dataclasses.fields(raw)
              if f.name != "config"}
    text = json.dumps({k: v.tolist() if isinstance(v, np.ndarray) else v
                       for k, v in fields.items()}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


#: cc -> (FluidRunResult sha256, steps, send_stalls)
CA_GOLDENS = {
    "reno": (
        "c0cc18d09dde3523f6309bdf6c2a5dff177a0bbb0b5a7c42c6c5339013664665",
        296, 0),
    "restricted": (
        "cfc581add7b0228ca3363738b534f0e8cd8e5f5dd69bf99a4f2ceda4a8bd3ee3",
        3297, 0),
}


@pytest.mark.parametrize("cc", sorted(CA_GOLDENS))
def test_congestion_avoidance_above_preset_ssthresh_is_pinned(cc):
    # No spec sets ssthresh: drive the model directly so the window crosses
    # into congestion avoidance (the crossover and the linear branch).
    options = SMALL_PATH.tcp_options().replace(initial_ssthresh_segments=13.0)
    model = FluidFlowModel(SMALL_PATH, fluid_growth_rule(cc, SMALL_PATH),
                           options=options, seed=1)
    raw = model.run(3.0)
    digest, steps, stalls = CA_GOLDENS[cc]
    assert _run_digest(raw) == digest
    assert (raw.steps, raw.send_stalls) == (steps, stalls)

