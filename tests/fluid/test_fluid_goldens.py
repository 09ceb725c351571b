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
        "9d52405b0a577c700872be4a0829f003b872931b6c2741efe1bf8840a14aca6e",
        4670, 0),
    "reno": (
        lambda: _fluid_run("reno"),
        "de71a665aea8374cd22745c7c5469514296550d2db70877286ade79da132440a",
        287, 2),
    "limited_slow_start": (
        lambda: _fluid_run("limited_slow_start",
                           cc_kwargs={"max_ssthresh_segments": 10.0}),
        "8f9001c7c6e24f90ef1f338e33f41a92e9fa0d545fbd85dbcead6b13b38d1e45",
        287, 2),
    "restricted_default_path": (
        lambda: RunSpec(cc="restricted", duration=5.0, seed=1, backend="fluid"),
        "37526f41e52b3c2974a57153d4d77402f7a18eec2dd73424db43957e58b8ab85",
        7553, 0),
    "restricted_tiny_ifq": (
        lambda: _fluid_run(config=TINY_IFQ),
        "964e3590b4c8996cc6600f098aad16967ccb8cae5dec84172c3635696af8d685",
        2787, 2),
    "restricted_ignore": (
        lambda: _fluid_run(config=TINY_IFQ, local_congestion_policy="ignore"),
        "925ea2e0d718b955aeca6033db460ccea12df81c2c2a8298fcd31087c53fce3c",
        4118, 1590),
    "reno_ignore": (
        lambda: _fluid_run("reno", local_congestion_policy="ignore"),
        "36ae7ffc23741ec4bdcc267b06a3ae560bb5e2f224a7486242b0f71b36f81cb0",
        292, 91),
    "restricted_clamp_only": (
        lambda: _fluid_run(config=TINY_IFQ, local_congestion_policy="clamp_only"),
        "46426f03b1b2cebd34078692875f1d756684b62c6a3e96f8e93e8046387ff8c8",
        3864, 56),
    "restricted_finite_transfer": (
        lambda: _fluid_run(duration=5.0, total_bytes=1_000_000),
        "c68d05c45e3c93c6c21e4fc983cbb68e20a31f30976591a2380b7d3ee55c9a9d",
        697, 0),
    "restricted_start_stop": (
        _start_stop_run,
        "569cdaa56785787b786235c27c0b018fa815cb96778cdda875f27216416d92d2",
        2158, 0),
    "e12f_point": (
        _e12f_point,
        "ea729b82a7fef6548681dcc774dab47f402b31d377cacad65c27048a56495c80",
        440, 2),
    "restricted_multiflow": (
        lambda: MultiFlowSpec(scenario=dumbbell(SMALL_PATH, 2, ccs="restricted",
                                                start_times=(0.0, 0.5)),
                              duration=3.0, seed=1, backend="fluid"),
        "7909ae1b1ec5acd1f63e785b7ab9ec28fcabaf46fc906bbc272e4dc18e067709",
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

