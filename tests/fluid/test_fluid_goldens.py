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
        # schema 4; at schema_version 3 this document hashed to b77c757454a97c38…
        "b1ceea0474efe63e1cc02ae53ab7417c371dd7719db658aca0b2ee35f7347bdd",
        4670, 0),
    "reno": (
        lambda: _fluid_run("reno"),
        # schema 4; at schema_version 3 this document hashed to 9db2ae8f5ea9a1d0…
        "69ffc7a94aa8a37b9f2fbe96d72a80e638d81eccae7db94b8856014fb3cc6073",
        287, 2),
    "limited_slow_start": (
        lambda: _fluid_run("limited_slow_start",
                           cc_kwargs={"max_ssthresh_segments": 10.0}),
        # schema 4; at schema_version 3 this document hashed to 4fbc7897af037f25…
        "9a7c71e5b93e1adfc648f81edfcd3156a485e3843da115e7df63188a103de360",
        287, 2),
    "restricted_default_path": (
        lambda: RunSpec(cc="restricted", duration=5.0, seed=1, backend="fluid"),
        # schema 4; at schema_version 3 this document hashed to 1939b858bbdc7752…
        "f5bc1d0d5a0daeec9a1a280c053c6f1b143377280db1501aa0acd94c7e633508",
        7553, 0),
    "restricted_tiny_ifq": (
        lambda: _fluid_run(config=TINY_IFQ),
        # schema 4; at schema_version 3 this document hashed to 3131fc82d86ee77c…
        "e597e5fc3f11d8d41dd74469f385258aa95d4b96bd0c905857893280e1816198",
        2787, 2),
    "restricted_ignore": (
        lambda: _fluid_run(config=TINY_IFQ, local_congestion_policy="ignore"),
        # schema 4; at schema_version 3 this document hashed to c9f0ae73a602c04d…
        "fe33c6fbf9228118c4c0abd2e102311d6631b3a6e82581fd903dd49967e6a1da",
        4118, 1590),
    "reno_ignore": (
        lambda: _fluid_run("reno", local_congestion_policy="ignore"),
        # schema 4; at schema_version 3 this document hashed to 31bf892db7f59c66…
        "095aa298ce57d2f19f708f546ddc7000d6bc5107c74d1040d6bdea662ce9df5f",
        292, 91),
    "restricted_clamp_only": (
        lambda: _fluid_run(config=TINY_IFQ, local_congestion_policy="clamp_only"),
        # schema 4; at schema_version 3 this document hashed to 8e4a13cc572eabda…
        "d2a9e6461738b44149990a7486b8d0bd55166ceb811db6c112f5327bd9eef4f0",
        3864, 56),
    "restricted_finite_transfer": (
        lambda: _fluid_run(duration=5.0, total_bytes=1_000_000),
        # schema 4; at schema_version 3 this document hashed to 487df5d25fcb7afa…
        "9a70f69969f1982dcda4bfb3b82a055d6174706d51a21536192b9127cb8e9ca9",
        697, 0),
    "restricted_start_stop": (
        _start_stop_run,
        # schema 4; at schema_version 3 this document hashed to 6d7b06a770806a4b…
        "1be36a9daa76fba3dc0519d0adbc45147566fc10270be2e395b506cdd01e1c8a",
        2158, 0),
    "e12f_point": (
        _e12f_point,
        # schema 4; at schema_version 3 this document hashed to f02e3fa2cbb1e96e…
        "55669aa690cd6b593a62b32b0d9c9fc85a40be66d8894b17472488a3c87b976d",
        440, 2),
    "restricted_multiflow": (
        lambda: MultiFlowSpec(scenario=dumbbell(SMALL_PATH, 2, ccs="restricted",
                                                start_times=(0.0, 0.5)),
                              duration=3.0, seed=1, backend="fluid"),
        # schema 4; at schema_version 3 this document hashed to fa23170cf49daa11…
        "88913bfccd6a853280d58219f48ec325c3ebbcdad704a0f87435d5d409c5d882",
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

