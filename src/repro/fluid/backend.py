"""Fluid fast-path backend with the packet backend's result interface.

:func:`execute_fluid_run` is the ``"fluid"`` engine of
:func:`repro.spec.execute`: it takes a :class:`repro.spec.RunSpec` and
returns the same :class:`~repro.experiments.runner.SingleFlowResult`
dataclass as the packet engine, so renderers, sweeps, parallel batches and
JSON persistence work identically on both backends.  Quantities the fluid
abstraction does not model (RTO timeouts, per-segment retransmission
detail) are reported as zero; the cross-validation harness
(:mod:`repro.fluid.validate`) documents which fields are comparable and
within what tolerance.

The fluid traces are sampled once per round trip — the model's native
resolution.  A spec that requests an explicit ``trace_interval`` therefore
triggers a :class:`UserWarning` (the value cannot be honoured); leave it at
``None`` or resample the returned per-RTT series.
"""

from __future__ import annotations

import warnings

import numpy as np

from ..core.config import RestrictedSlowStartConfig
from ..errors import ExperimentError, UnsupportedScenarioError
from ..obs import telemetry as obs
from ..spec import RunSpec
from ..workloads.scenarios import PathConfig
from .model import (
    FluidFlowInput,
    FluidFlowModel,
    FluidFlowOutcome,
    FluidMultiFlowModel,
    FluidRunResult,
    RestrictedFluid,
    fluid_growth_rule,
)

__all__ = [
    "execute_fluid_run",
    "execute_fluid_multi_flow",
    "FLUID_BACKEND",
    "VECTOR_FLOW_THRESHOLD",
]

#: Backend name used throughout the experiment harness.
FLUID_BACKEND = "fluid"

#: Flow count above which :func:`execute_fluid_multi_flow` dispatches to the
#: vectorized :class:`~repro.fluid.vector.FluidPopulationModel` instead of
#: the per-flow :class:`~repro.fluid.model.FluidMultiFlowModel`.  The two
#: engines integrate the same round structure (see the parity suite), so the
#: threshold is a pure performance knob: below it the scalar model's lower
#: constant factors win, above it the array passes do.  Churned specs always
#: run vectorized regardless of count.
VECTOR_FLOW_THRESHOLD = 32


def execute_fluid_run(spec: RunSpec):
    """Run one bulk transfer on the per-RTT fluid model.

    A declared ``scenario`` is one flow on the canonical dumbbell: a
    fluid ``RunSpec`` cannot be built on any other shape (see
    :func:`~repro.spec.scenario.fluid_unsupported_features`).
    """
    from ..experiments.runner import SingleFlowResult

    if spec.trace_interval is not None:
        warnings.warn(
            "the fluid backend samples its traces once per round trip; "
            f"trace_interval={spec.trace_interval!r} cannot be honoured and "
            "is ignored — leave trace_interval=None (the default) or "
            "resample the returned per-RTT series",
            UserWarning, stacklevel=3)

    with obs.span("compile"):
        cfg = spec.config
        options = cfg.tcp_options()
        if spec.local_congestion_policy is not None:
            options = options.replace(
                local_congestion_policy=spec.local_congestion_policy)

        # the scenario's first flow places the transfer; its declared start
        # (delayed app launch) and duration (stop hook) are honoured exactly
        # like the packet backend does
        primary = spec.resolved_scenario().flows[0]
        rule = fluid_growth_rule(spec.cc, cfg, cc_kwargs=spec.cc_kwargs or None,
                                 rss_config=spec.rss_config)
        model = FluidFlowModel(cfg, rule, options=options, seed=spec.seed,
                               total_bytes=spec.total_bytes,
                               start_time=primary.start_time,
                               stop_time=primary.stop_time)
    with obs.span("simulate"):
        raw: FluidRunResult = model.run(
            spec.duration,
            run_past_duration_until_complete=spec.run_past_duration_until_complete)
    obs.add_counter("events", raw.steps)
    obs.add_counter("fluid_steps", raw.steps)
    obs.add_counter("send_stalls", raw.send_stalls)

    with obs.span("summarize"):
        result = SingleFlowResult(
            config=cfg,
            duration=raw.duration,
            seed=spec.seed,
            flow=_flow_result(raw, cfg, name="flow0", algorithm=spec.cc,
                              start_time=0.0),
            ifq_times=np.asarray(raw.times, dtype=float),
            ifq_occupancy=np.asarray(raw.ifq_occupancy, dtype=float),
            ifq_peak=int(round(raw.ifq_peak)),
            # each modelled stall is (at least) one rejected enqueue; reporting
            # it here keeps fluid sweep rows from reading as "no drops" at
            # operating points where the packet engine rejects packets
            ifq_drops=raw.send_stalls,
            bottleneck_drops=raw.pkts_retrans,
            cwnd_times=np.asarray(raw.times, dtype=float),
            cwnd_segments=np.asarray(raw.cwnd_segments, dtype=float),
            acked_times=np.asarray(raw.times, dtype=float),
            acked_bytes=np.asarray(raw.acked_bytes, dtype=float),
            backend=FLUID_BACKEND,
        )
    return result


def _flow_result(raw: FluidRunResult | FluidFlowOutcome, cfg: PathConfig, *,
                 name: str, algorithm: str, start_time: float):
    """One flow's :class:`~repro.experiments.runner.FlowResult` from the
    counters a fluid model measured for it.

    The fluid models do not time out or measure RTTs, so ``timeouts`` is
    zero and both RTT fields report the path's propagation RTT.
    """
    from ..experiments.runner import FlowResult

    max_cwnd_bytes = int(raw.max_cwnd * cfg.mss)
    return FlowResult(
        name=name,
        algorithm=algorithm,
        duration=raw.duration,
        start_time=start_time,
        bytes_acked=raw.bytes_acked,
        goodput_bps=raw.goodput_bps,
        send_stalls=raw.send_stalls,
        stall_times=list(raw.stall_times),
        congestion_signals=raw.congestion_signals,
        timeouts=0,
        fast_retransmits=raw.fast_retransmits,
        pkts_retrans=raw.pkts_retrans,
        other_reductions=raw.other_reductions,
        max_cwnd_bytes=max_cwnd_bytes,
        final_cwnd_segments=raw.final_cwnd,
        final_ssthresh_segments=raw.final_ssthresh,
        smoothed_rtt=cfg.rtt,
        min_rtt=cfg.rtt,
        completion_time=raw.completion_time,
        web100={
            "backend": FLUID_BACKEND,
            "ThruBytesAcked": raw.bytes_acked,
            "SendStall": raw.send_stalls,
            "OtherReductions": raw.other_reductions,
            "CongestionSignals": raw.congestion_signals,
            "FastRetran": raw.fast_retransmits,
            "MaxCwnd": max_cwnd_bytes,
        },
    )


def _multiflow_rule(flow, cfg: PathConfig):
    """Fluid growth rule for one declared scenario flow.

    ``restricted`` flows resolve their controller configuration through the
    same :func:`repro.workloads.compile.resolve_restricted_config` the
    packet compiler uses, so both engines accept exactly the same
    declarations; other algorithms forward ``cc_kwargs`` to the rule
    factory.
    """
    if flow.cc == "restricted":
        from ..workloads.compile import resolve_restricted_config

        rss = resolve_restricted_config(cfg, flow.cc_kwargs)
        return fluid_growth_rule(flow.cc, cfg, rss_config=rss)
    return fluid_growth_rule(flow.cc, cfg, cc_kwargs=flow.cc_kwargs or None)


def _churn_inputs(churn, cfg: PathConfig, duration: float, seed: int,
                  n_pairs: int) -> list[FluidFlowInput]:
    """Sample a :class:`~repro.fluid.vector.FlowArrivalSpec` population.

    Stateless growth rules (Reno, limited slow-start) are shared across the
    whole population; stateful controllers (restricted) get one instance per
    flow, all built from one frozen controller configuration and one
    delayed-ACK quantum resolved here once.  Arrivals carry ``quantize_start=True`` so the vector engine
    activates them at round boundaries instead of cutting per-arrival
    rounds (see :class:`~repro.fluid.model.FluidFlowInput`).
    """
    from ..sim.randomness import RandomStreams

    arrivals = churn.sample(duration, RandomStreams(seed), n_pairs=n_pairs)
    shared_rule = rss = None
    if churn.cc == "restricted":
        rss = RestrictedSlowStartConfig.for_path(cfg.rtt)
        quantum = float(cfg.tcp_options().delack_segments)
    else:
        shared_rule = fluid_growth_rule(churn.cc, cfg)
    return [
        FluidFlowInput(
            name=f"churn{i}:{churn.cc}",
            cc=churn.cc,
            rule=(shared_rule if shared_rule is not None
                  else RestrictedFluid(rss, ack_quantum=quantum)),
            ifq=arrival.pair,
            start_time=arrival.start_time,
            total_bytes=arrival.total_bytes,
            quantize_start=True,
        )
        for i, arrival in enumerate(arrivals)
    ]


def execute_fluid_multi_flow(spec, engine: str | None = None):
    """Run a :class:`~repro.spec.MultiFlowSpec` on the coupled fluid model.

    The model runs the spec's
    :meth:`~repro.spec.MultiFlowSpec.resolved_scenario`, which a fluid
    ``MultiFlowSpec`` guarantees is a canonical dumbbell; each flow injects
    into the IFQ of the pair :func:`~repro.spec.scenario.dumbbell_shape`
    places it on.  Returns the same
    :class:`~repro.experiments.runner.MultiFlowResult` the packet engine
    produces, tagged ``backend="fluid"``.

    ``engine`` selects the integrator: ``"scalar"``
    (:class:`FluidMultiFlowModel`), ``"vector"``
    (:class:`~repro.fluid.vector.FluidPopulationModel`), or ``None`` (the
    default) to dispatch automatically — vectorized whenever the spec
    declares churn or the flow count exceeds
    :data:`VECTOR_FLOW_THRESHOLD`.  A declared ``churn`` population
    (:class:`~repro.fluid.vector.FlowArrivalSpec`) is sampled here,
    deterministically from the spec's seed, and appended to the declared
    flows round-robin over the topology's dumbbell pairs.
    """
    from ..experiments.runner import MultiFlowResult, multi_flow_aggregates
    from ..spec.scenario import dumbbell_shape

    if spec.backend != FLUID_BACKEND:
        raise UnsupportedScenarioError(
            "the fluid engine runs MultiFlowSpecs built with backend='fluid', "
            f"which are checked when built; got backend={spec.backend!r}")
    with obs.span("compile"):
        scenario = spec.resolved_scenario()
        shape = dumbbell_shape(scenario)

        cfg = scenario.config
        inputs = [
            FluidFlowInput(
                name=f"flow{i}:{flow.cc}",
                cc=flow.cc,
                rule=_multiflow_rule(flow, cfg),
                ifq=pair,
                start_time=flow.start_time,
                stop_time=flow.stop_time,
                total_bytes=flow.total_bytes,
            )
            for i, (flow, pair) in enumerate(zip(scenario.flows, shape.pairs))]

        churn = getattr(spec, "churn", None)
        if churn is not None:
            inputs.extend(_churn_inputs(churn, cfg, spec.duration, spec.seed,
                                        n_pairs=shape.n_pairs))

        if engine is None:
            engine = ("vector" if churn is not None
                      or len(inputs) > VECTOR_FLOW_THRESHOLD else "scalar")
        if engine == "vector":
            from .vector import FluidPopulationModel

            # Churned populations stream: each churned flow folds into the
            # summary accumulator when it departs instead of materialising a
            # per-flow outcome object, so memory stays bounded however many
            # flows arrive.  Declared flows always materialise.
            model = FluidPopulationModel(cfg, inputs, seed=spec.seed,
                                         stream_churned=churn is not None)
        elif engine == "scalar":
            model = FluidMultiFlowModel(cfg, inputs, seed=spec.seed)
        else:
            raise ExperimentError(
                f"unknown fluid multi-flow engine {engine!r}; "
                "use 'scalar', 'vector' or None (auto)")
    with obs.span("simulate"):
        raw = model.run(spec.duration)
    obs.add_counter("events", raw.steps)
    obs.add_counter("fluid_steps", raw.steps)
    obs.add_counter("send_stalls", raw.total_send_stalls)

    with obs.span("summarize"):
        flows = [_flow_result(outcome, cfg, name=outcome.name,
                              algorithm=outcome.algorithm,
                              start_time=outcome.start_time)
                 for outcome in raw.flows]
        summary = raw.summary
        streamed = summary if churn is not None else None
        aggregate, jain, link_utilization = multi_flow_aggregates(
            flows, cfg.bottleneck_rate_bps,
            window=summary.horizon if summary is not None else raw.duration,
            streamed=streamed)
        result = MultiFlowResult(
            config=cfg,
            duration=raw.duration,
            seed=spec.seed,
            flows=flows,
            aggregate_goodput_bps=aggregate,
            jain_index=jain,
            link_utilization=link_utilization,
            # each synchronized overflow episode rejects (at least) one packet
            # per reduced flow; reporting it keeps fluid rows from reading as
            # "no drops" at operating points where the packet engine drops
            bottleneck_drops=(streamed.total_retransmits if streamed is not None
                              else sum(f.pkts_retrans for f in flows)),
            total_send_stalls=raw.total_send_stalls,
            backend=FLUID_BACKEND,
            records=raw.records,
            summary=summary,
        )
    return result
