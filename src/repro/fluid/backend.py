"""Fluid fast-path backend with the packet backend's result interface.

:func:`execute_fluid_run` is the engine registered as ``"fluid"`` in
:mod:`repro.spec.backends`: it takes a :class:`repro.spec.RunSpec` and
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
from ..errors import ExperimentError
from ..obs import telemetry as obs
from ..spec import RunSpec, execute
from ..tcp.state import LocalCongestionPolicy
from ..workloads.scenarios import PathConfig
from .model import (
    FluidFlowInput,
    FluidFlowModel,
    FluidMultiFlowModel,
    FluidRunResult,
    fluid_growth_rule,
)

__all__ = [
    "run_single_flow_fluid",
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

    A declared ``scenario`` must be the canonical single-flow dumbbell: any
    other shape (multi-bottleneck graph, extra flows, cross traffic,
    per-link loss, asymmetric rates) raises
    :class:`~repro.errors.UnsupportedScenarioError` naming the feature —
    eagerly, before any model step.  ``RunSpec`` already performs the same
    check at construction time; repeating it here keeps the backend safe
    for callers invoking it directly.
    """
    from ..experiments.runner import FlowResult, SingleFlowResult

    if spec.scenario is not None:
        from ..spec.scenario import ensure_fluid_scenario

        ensure_fluid_scenario(spec.scenario)

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
        start_time = (spec.scenario.flows[0].start_time
                      if spec.scenario is not None else 0.0)
        stop_time = (spec.scenario.flows[0].stop_time
                     if spec.scenario is not None else None)
        rule = fluid_growth_rule(spec.cc, cfg, cc_kwargs=spec.cc_kwargs or None,
                                 rss_config=spec.rss_config)
        model = FluidFlowModel(cfg, rule, options=options, seed=spec.seed,
                               total_bytes=spec.total_bytes,
                               start_time=start_time, stop_time=stop_time)
    with obs.span("simulate"):
        raw: FluidRunResult = model.run(
            spec.duration,
            run_past_duration_until_complete=spec.run_past_duration_until_complete)
    obs.add_counter("events", raw.steps)
    obs.add_counter("fluid_steps", raw.steps)
    obs.add_counter("send_stalls", raw.send_stalls)

    with obs.span("summarize"):
        flow = FlowResult(
            name="flow0",
            algorithm=spec.cc,
            duration=raw.duration,
            bytes_acked=raw.bytes_acked,
            goodput_bps=raw.goodput_bps,
            send_stalls=raw.send_stalls,
            stall_times=list(raw.stall_times),
            congestion_signals=raw.congestion_signals,
            timeouts=0,
            fast_retransmits=raw.fast_retransmits,
            pkts_retrans=raw.pkts_retrans,
            other_reductions=raw.other_reductions,
            max_cwnd_bytes=int(raw.max_cwnd * cfg.mss),
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
                "MaxCwnd": int(raw.max_cwnd * cfg.mss),
            },
        )
        result = SingleFlowResult(
            config=cfg,
            duration=raw.duration,
            seed=spec.seed,
            flow=flow,
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
            events_processed=raw.steps,
            backend=FLUID_BACKEND,
        )
    return result


def run_single_flow_fluid(
    cc: str = "reno",
    config: PathConfig | None = None,
    duration: float = 25.0,
    seed: int = 1,
    total_bytes: int | None = None,
    cc_kwargs: dict | None = None,
    rss_config: RestrictedSlowStartConfig | None = None,
    local_congestion_policy: LocalCongestionPolicy | None = None,
    trace_interval: float | None = None,
    run_past_duration_until_complete: bool = False,
):
    """Fluid-model equivalent of :func:`repro.experiments.runner.run_single_flow`.

    .. deprecated::
        Thin wrapper over ``execute(RunSpec(..., backend="fluid"))``.

    ``trace_interval=None`` (the default) samples once per round trip — the
    model's native resolution; an explicit value triggers a ``UserWarning``
    because the fluid series cannot honour it.
    """
    spec = RunSpec(
        cc=cc,
        config=config if config is not None else PathConfig(),
        duration=duration,
        seed=seed,
        total_bytes=total_bytes,
        cc_kwargs=dict(cc_kwargs) if cc_kwargs else {},
        rss_config=rss_config,
        local_congestion_policy=local_congestion_policy,
        trace_interval=trace_interval,
        run_past_duration_until_complete=run_past_duration_until_complete,
        backend=FLUID_BACKEND,
    )
    return execute(spec)


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
    flow, all built from one frozen controller configuration resolved here
    once.  Arrivals carry ``quantize_start=True`` so the vector engine
    activates them at round boundaries instead of cutting per-arrival
    rounds (see :class:`~repro.fluid.model.FluidFlowInput`).
    """
    from ..sim.randomness import RandomStreams

    arrivals = churn.sample(duration, RandomStreams(seed), n_pairs=n_pairs)
    shared_rule = rss = None
    if churn.cc == "restricted":
        rss = RestrictedSlowStartConfig.for_path(cfg.rtt)
    else:
        shared_rule = fluid_growth_rule(churn.cc, cfg)
    return [
        FluidFlowInput(
            name=f"churn{i}:{churn.cc}",
            cc=churn.cc,
            rule=(shared_rule if shared_rule is not None
                  else fluid_growth_rule(churn.cc, cfg, rss_config=rss)),
            ifq=arrival.pair,
            start_time=arrival.start_time,
            total_bytes=arrival.total_bytes,
            quantize_start=True,
        )
        for i, arrival in enumerate(arrivals)
    ]


def execute_fluid_multi_flow(spec, engine: str | None = None):
    """Run a :class:`~repro.spec.MultiFlowSpec` on the coupled fluid model.

    Accepts both spec forms: a declared ``scenario`` (which must pass
    :func:`~repro.spec.scenario.ensure_fluid_multiflow_scenario`) and the
    legacy dumbbell form (``flows=``/``shared_paths=``), which is converted
    through :func:`~repro.spec.scenario.from_bulk_flows` first so there is
    exactly one mapping from declarations to model inputs.  Returns the
    same :class:`~repro.experiments.runner.MultiFlowResult` the packet
    engine produces, tagged ``backend="fluid"``.

    ``engine`` selects the integrator: ``"scalar"``
    (:class:`FluidMultiFlowModel`), ``"vector"``
    (:class:`~repro.fluid.vector.FluidPopulationModel`), or ``None`` (the
    default) to dispatch automatically — vectorized whenever the spec
    declares churn or the flow count exceeds
    :data:`VECTOR_FLOW_THRESHOLD`.  A declared ``churn`` population
    (:class:`~repro.fluid.vector.FlowArrivalSpec`) is sampled here,
    deterministically from the spec's seed, and appended to the declared
    flows round-robin over the scenario's dumbbell pairs.
    """
    from ..analysis.metrics import jain_fairness_index, utilization
    from ..experiments.runner import FlowResult, MultiFlowResult
    from ..spec.scenario import (
        _dumbbell_pair_index,
        ensure_fluid_multiflow_scenario,
        from_bulk_flows,
    )

    with obs.span("compile"):
        scenario = spec.scenario
        if scenario is None:
            scenario = from_bulk_flows(spec.flows, config=spec.config,
                                       shared_paths=spec.shared_paths)
        ensure_fluid_multiflow_scenario(scenario)

        cfg = scenario.config
        inputs = []
        pairs = []
        for i, flow in enumerate(scenario.flows):
            pair = _dumbbell_pair_index(flow)
            pairs.append(pair)
            inputs.append(FluidFlowInput(
                name=f"flow{i}:{flow.cc}",
                cc=flow.cc,
                rule=_multiflow_rule(flow, cfg),
                ifq=pair,
                start_time=flow.start_time,
                stop_time=flow.stop_time,
                total_bytes=flow.total_bytes,
            ))

        churn = getattr(spec, "churn", None)
        if churn is not None:
            inputs.extend(_churn_inputs(churn, cfg, spec.duration, spec.seed,
                                        n_pairs=max(pairs) + 1))

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
        flows = []
        for outcome in raw.flows:
            flows.append(FlowResult(
                name=outcome.name,
                algorithm=outcome.algorithm,
                duration=outcome.duration,
                start_time=outcome.start_time,
                bytes_acked=outcome.bytes_acked,
                goodput_bps=outcome.goodput_bps,
                send_stalls=outcome.send_stalls,
                stall_times=list(outcome.stall_times),
                congestion_signals=outcome.congestion_signals,
                timeouts=0,
                fast_retransmits=outcome.fast_retransmits,
                pkts_retrans=outcome.pkts_retrans,
                other_reductions=outcome.other_reductions,
                max_cwnd_bytes=int(outcome.max_cwnd * cfg.mss),
                final_cwnd_segments=outcome.final_cwnd,
                final_ssthresh_segments=outcome.final_ssthresh,
                smoothed_rtt=cfg.rtt,
                min_rtt=cfg.rtt,
                completion_time=outcome.completion_time,
                web100={
                    "backend": FLUID_BACKEND,
                    "ThruBytesAcked": outcome.bytes_acked,
                    "SendStall": outcome.send_stalls,
                    "OtherReductions": outcome.other_reductions,
                    "CongestionSignals": outcome.congestion_signals,
                    "FastRetran": outcome.fast_retransmits,
                    "MaxCwnd": int(outcome.max_cwnd * cfg.mss),
                },
            ))
        summary = raw.summary
        if churn is not None and summary is not None:
            # Streamed churn: the materialised flows cover declared flows only,
            # so the population-wide figures come from the summary (which saw
            # every flow, streamed or not).
            aggregate = summary.aggregate_goodput_bps
            jain = summary.jain_index if summary.jain_index is not None else 1.0
            drops = summary.total_retransmits
        else:
            goodputs = [f.goodput_bps for f in flows]
            aggregate = float(sum(goodputs))
            jain = jain_fairness_index(goodputs)
            drops = sum(f.pkts_retrans for f in flows)
        result = MultiFlowResult(
            config=cfg,
            duration=raw.duration,
            seed=spec.seed,
            flows=flows,
            aggregate_goodput_bps=aggregate,
            jain_index=jain,
            link_utilization=utilization(aggregate, cfg.bottleneck_rate_bps),
            # each synchronized overflow episode rejects (at least) one packet
            # per reduced flow; reporting it keeps fluid rows from reading as
            # "no drops" at operating points where the packet engine drops
            bottleneck_drops=drops,
            total_send_stalls=raw.total_send_stalls,
            backend=FLUID_BACKEND,
            records=raw.records,
            summary=summary,
        )
    return result
