"""Experiment runner.

The harness every experiment and benchmark in this repository is built on.
The unit of work is a declarative, serializable spec (:mod:`repro.spec`):
:class:`~repro.spec.RunSpec` describes one bulk transfer,
:class:`~repro.spec.ComparisonSpec` the same transfer under several
algorithms with identical seeds, and :class:`~repro.spec.MultiFlowSpec` N
concurrent flows sharing a bottleneck.  :func:`repro.spec.execute`
dispatches each to its backend's engine; this module implements the
``packet`` backend (the event-driven ground truth) and the result
containers every backend returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..analysis.metrics import improvement_percent, jain_fairness_index, utilization
from ..codec import PROVENANCE
from ..host.apps import BulkSenderApp
from ..host.ifq import IFQMonitor
from ..instrumentation.tracer import TimeSeriesTracer
from ..metrics import FlowRecord, PopulationSummary, SummaryAccumulator
from ..obs import telemetry as obs
from ..sim.engine import Simulator
from ..spec import ComparisonSpec, MultiFlowSpec, RunSpec, SpecBase
from ..workloads.compile import (
    attach_workload,
    compile_scenario,
    core_capacity_bps,
    core_drops,
    core_marks,
    scenario_cc_factory,
)
from ..workloads.scenarios import PathConfig, Scenario

__all__ = [
    "FlowResult",
    "SingleFlowResult",
    "MultiFlowResult",
    "ComparisonResult",
    "CampaignResult",
    "execute_packet_run",
    "execute_multi_flow_spec",
    "multi_flow_aggregates",
    "DEFAULT_PACKET_TRACE_INTERVAL",
]

#: Native trace sampling period of the packet engine (seconds); used when a
#: spec leaves ``trace_interval`` unset.
DEFAULT_PACKET_TRACE_INTERVAL = 0.05


# ---------------------------------------------------------------------------
# result containers
# ---------------------------------------------------------------------------

@dataclass
class FlowResult:
    """Per-flow outcome extracted from the Web100 counters."""

    name: str
    algorithm: str
    duration: float
    bytes_acked: int
    goodput_bps: float
    send_stalls: int
    stall_times: list[float]
    congestion_signals: int
    timeouts: int
    fast_retransmits: int
    pkts_retrans: int
    other_reductions: int
    max_cwnd_bytes: int
    final_cwnd_segments: float
    final_ssthresh_segments: float
    smoothed_rtt: float
    min_rtt: float
    completion_time: float | None
    #: Absolute sim time the transfer began (same clock as completion_time).
    start_time: float = 0.0
    web100: dict = field(default_factory=dict)

    @classmethod
    def from_app(cls, app: BulkSenderApp, algorithm: str, duration: float) -> "FlowResult":
        stats = app.stats
        cc = app.connection.cc
        return cls(
            name=app.name,
            algorithm=algorithm,
            duration=duration,
            start_time=app.start_time,
            bytes_acked=stats.ThruBytesAcked,
            goodput_bps=app.goodput_bps(),
            send_stalls=stats.SendStall,
            stall_times=stats.stall_times(),
            congestion_signals=stats.CongestionSignals,
            timeouts=stats.Timeouts,
            fast_retransmits=stats.FastRetran,
            pkts_retrans=stats.PktsRetrans,
            other_reductions=stats.OtherReductions,
            max_cwnd_bytes=stats.MaxCwnd,
            final_cwnd_segments=cc.cwnd,
            final_ssthresh_segments=cc.ssthresh,
            smoothed_rtt=stats.SmoothedRTT,
            min_rtt=stats.MinRTT if np.isfinite(stats.MinRTT) else 0.0,
            completion_time=app.completion_time,
            web100=stats.snapshot(),
        )


@dataclass
class SingleFlowResult:
    """Outcome of one single-flow run (flow metrics plus traces)."""

    config: PathConfig
    duration: float
    seed: int
    flow: FlowResult
    ifq_times: np.ndarray
    ifq_occupancy: np.ndarray
    ifq_peak: int
    ifq_drops: int
    bottleneck_drops: int
    cwnd_times: np.ndarray
    cwnd_segments: np.ndarray
    acked_times: np.ndarray
    acked_bytes: np.ndarray
    #: Which engine produced this result ("packet" or "fluid").
    backend: str = "packet"
    #: The declarative spec that produced this result (provenance; the
    #: basis for spec-keyed result caching).
    spec: RunSpec | None = field(default=None, metadata=PROVENANCE)
    #: CE marks applied by the bottleneck queue (0 unless it runs an
    #: ECN-marking AQM).
    bottleneck_marks: int = 0

    @property
    def goodput_bps(self) -> float:
        return self.flow.goodput_bps

    @property
    def send_stalls(self) -> int:
        return self.flow.send_stalls

    @property
    def link_utilization(self) -> float:
        return utilization(self.flow.goodput_bps, self.config.bottleneck_rate_bps)


@dataclass
class ComparisonResult:
    """Paired single-flow runs of several algorithms (same seed and path)."""

    baseline: str
    runs: dict[str, SingleFlowResult]
    #: The declarative spec that produced this result (provenance).
    spec: ComparisonSpec | None = field(default=None, metadata=PROVENANCE)

    def improvement_percent(self, algorithm: str) -> float:
        """Goodput improvement of ``algorithm`` over the baseline, percent."""
        base = self.runs[self.baseline].goodput_bps
        return improvement_percent(base, self.runs[algorithm].goodput_bps)

    def stall_counts(self) -> dict[str, int]:
        return {name: run.send_stalls for name, run in self.runs.items()}


@dataclass
class CampaignResult:
    """The unit results of an executed campaign, in ``expand()`` order."""

    runs: list
    #: The campaign spec that produced this result (provenance).
    spec: SpecBase | None = field(default=None, metadata=PROVENANCE)


@dataclass
class MultiFlowResult:
    """Outcome of one multi-flow run."""

    config: PathConfig
    duration: float
    seed: int
    flows: list[FlowResult]
    aggregate_goodput_bps: float
    jain_index: float
    link_utilization: float
    bottleneck_drops: int
    total_send_stalls: int
    #: Which engine produced this result ("packet" or "fluid").
    backend: str = "packet"
    #: The declarative spec that produced this result (provenance).
    spec: MultiFlowSpec | None = field(default=None, metadata=PROVENANCE)
    #: CE marks applied by the bottleneck queue (0 unless it runs an
    #: ECN-marking AQM).
    bottleneck_marks: int = 0
    #: Canonical per-flow records (departure order, incompletes last).
    #: Under streamed churn this holds declared flows only — churned flows
    #: exist solely inside ``summary``.
    records: list[FlowRecord] = field(default_factory=list)
    #: Population statistics over *all* flows, streamed or not.
    summary: PopulationSummary | None = None


def _population_outcomes(
    flows: Sequence[FlowResult],
    endpoints: Sequence[tuple[str, str]],
    completion_order: Sequence[int],
    horizon: float,
) -> tuple[list[FlowRecord], PopulationSummary]:
    """Fold per-flow results into canonical records + a population summary.

    Records come out in departure order (the order the completion hooks
    fired), with never-completed flows appended in declaration order — the
    same order a streaming engine folds flows, so batch and streamed
    summaries are directly comparable.
    """
    seen = set(completion_order)
    order = list(completion_order) + [i for i in range(len(flows)) if i not in seen]
    acc = SummaryAccumulator(horizon)
    records: list[FlowRecord] = []
    for i in order:
        src, dst = endpoints[i]
        record = FlowRecord.from_flow(flows[i], src=src, dst=dst)
        acc.add(record)
        records.append(record)
    return records, acc.finalize()


def _report_packet_counters(sim: Simulator, scenario: Scenario,
                            flows: Sequence[FlowResult]) -> None:
    """Feed the ambient telemetry the packet engine's work counters."""
    telemetry = obs.active_telemetry()
    if telemetry is None:
        return
    telemetry.count("events", sim.events_processed)
    telemetry.count("events_scheduled", sim.events_scheduled)
    telemetry.count("packets_forwarded",
                    sum(iface.stats.packets_sent
                        for iface in scenario.topology.interfaces()))
    telemetry.count("rto_timer_fires", sum(f.timeouts for f in flows))
    telemetry.count("send_stalls", sum(f.send_stalls for f in flows))


def multi_flow_aggregates(
    flows: Sequence[FlowResult],
    capacity_bps: float,
    window: float,
    streamed: PopulationSummary | None = None,
) -> tuple[float, float, float]:
    """Aggregate goodput, Jain index and link utilization of a multi-flow run.

    Every engine reports its multi-flow figures through this function.  The
    aggregate is the bits delivered (acknowledged) by all flows over one
    measurement ``window`` — the run's summary horizon — not a sum of
    per-flow goodputs, each of which is taken over its own flow's lifetime.
    Under streamed churn the materialised ``flows`` cover declared flows
    only, so the delivered bytes and Jain index come from the ``streamed``
    summary, which saw every flow.  Utilization is the aggregate over
    ``capacity_bps``; Jain's index stays per-flow.
    """
    if streamed is not None:
        delivered = streamed.total_bytes_acked
        jain = streamed.jain_index if streamed.jain_index is not None else 1.0
    else:
        delivered = sum(f.bytes_acked for f in flows)
        jain = jain_fairness_index([f.goodput_bps for f in flows])
    aggregate = delivered * 8.0 / window if window > 0 else 0.0
    return aggregate, jain, utilization(aggregate, capacity_bps)


# ---------------------------------------------------------------------------
# packet backend (the "packet" engine of repro.spec.execute)
# ---------------------------------------------------------------------------

def execute_packet_run(spec: RunSpec) -> SingleFlowResult:
    """Run one bulk transfer on the event-driven packet engine.

    The compiler instantiates the spec's scenario
    (:meth:`~repro.spec.RunSpec.resolved_scenario`).  Its first flow places
    the measured transfer (the spec's ``cc``/``total_bytes`` pick the
    algorithm and size); later flows and cross traffic run as declared.
    """
    with obs.span("compile"):
        scn = spec.resolved_scenario()
        cfg = spec.config
        sim = Simulator(seed=spec.seed)
        scenario = compile_scenario(sim, scn, attach_flows=False)

        primary = scn.flows[0]
        options = cfg.tcp_options()
        if spec.local_congestion_policy is not None:
            options = options.replace(local_congestion_policy=spec.local_congestion_policy)
        if primary.ecn:
            options = options.replace(ecn=True)

        # restricted takes its controller from rss_config; other algorithms
        # take cc_kwargs through the registry
        factory = scenario_cc_factory(spec.cc, cfg, rss_config=spec.rss_config)
        app, _sink = scenario.add_bulk_flow_between(
            primary.src, primary.dst,
            cc=factory if factory is not None else spec.cc,
            total_bytes=spec.total_bytes, start_time=primary.start_time,
            stop_time=primary.stop_time, options=options,
            cc_kwargs=(spec.cc_kwargs or None) if factory is None else None,
            port=primary.port,
            # a scenario-less spec's documents have always named it "flow0"
            name="flow0" if spec.scenario is None else f"flow0:{spec.cc}",
        )
        attach_workload(scenario, scn, skip_first_flow=True)
        primary_ifq = scenario.topology.node(primary.src).default_interface

        trace_interval = (spec.trace_interval if spec.trace_interval is not None
                          else DEFAULT_PACKET_TRACE_INTERVAL)
        conn = app.connection
        monitor = IFQMonitor(sim, primary_ifq, interval=trace_interval)
        monitor.start()
        tracer = TimeSeriesTracer(sim, interval=trace_interval)
        tracer.add_probe("cwnd", lambda: conn.cc.cwnd)
        tracer.add_probe("acked", lambda: conn.stats.ThruBytesAcked)
        tracer.start()

    with obs.span("simulate"):
        sim.run(until=spec.duration)
        if (spec.run_past_duration_until_complete and spec.total_bytes is not None
                and not app.completed):
            sim.run(until=spec.duration * 10.0)

    with obs.span("summarize"):
        elapsed = sim.now
        flow = FlowResult.from_app(app, algorithm=spec.cc, duration=elapsed)
        ifq_times, ifq_occ = monitor.as_arrays()
        cwnd_times, cwnd_vals = tracer.series("cwnd").as_arrays()
        acked_times, acked_vals = tracer.series("acked").as_arrays()
        ifq_queue = primary_ifq.queue
        drops, marks, _capacity = _bottleneck_counters(scenario)
        result = SingleFlowResult(
            config=cfg,
            duration=elapsed,
            seed=spec.seed,
            flow=flow,
            ifq_times=ifq_times,
            ifq_occupancy=ifq_occ,
            ifq_peak=ifq_queue.stats.peak_packets,
            ifq_drops=ifq_queue.stats.dropped,
            bottleneck_drops=drops,
            bottleneck_marks=marks,
            cwnd_times=cwnd_times,
            cwnd_segments=cwnd_vals,
            acked_times=acked_times,
            acked_bytes=acked_vals,
        )
        _report_packet_counters(sim, scenario, [flow])
    return result


def execute_multi_flow_spec(spec: MultiFlowSpec) -> MultiFlowResult:
    """Run a multi-flow spec's scenario on the packet engine.

    The compiler instantiates :meth:`~repro.spec.MultiFlowSpec.resolved_scenario`
    and attaches its declared flows and cross traffic.
    """
    with obs.span("compile"):
        scn = spec.resolved_scenario()
        sim = Simulator(seed=spec.seed)
        scenario = compile_scenario(sim, scn)
        completion_order: list[int] = []
        for i, (app, _sink) in enumerate(scenario.flows):
            app.on_complete = lambda _app, _i=i: completion_order.append(_i)

    with obs.span("simulate"):
        sim.run(until=spec.duration)

    with obs.span("summarize"):
        flows = [
            FlowResult.from_app(app, algorithm=flow_spec.cc,
                                duration=sim.now - app.start_time)
            for (app, _sink), flow_spec in zip(scenario.flows, scn.flows)
        ]
        endpoints = [(app.host.name, sink.host.name) for app, sink in scenario.flows]
        records, summary = _population_outcomes(
            flows, endpoints, completion_order, horizon=spec.duration)
        drops, marks, capacity = _bottleneck_counters(scenario)
        aggregate, jain, link_utilization = multi_flow_aggregates(
            flows, capacity, window=summary.horizon)
        result = MultiFlowResult(
            config=scn.config,
            duration=sim.now,
            seed=spec.seed,
            flows=flows,
            aggregate_goodput_bps=aggregate,
            jain_index=jain,
            link_utilization=link_utilization,
            bottleneck_drops=drops,
            bottleneck_marks=marks,
            total_send_stalls=sum(f.send_stalls for f in flows),
            records=records,
            summary=summary,
        )
        _report_packet_counters(sim, scenario, flows)
    return result


def _bottleneck_counters(scenario: Scenario) -> tuple[int, int, float]:
    """Drops, CE marks and capacity of a compiled scenario's bottleneck."""
    if len(scenario.routers) == 2:
        # the declared bottleneck link's rate, which a hand-written spec may
        # set independently of config.bottleneck_rate_bps
        iface = scenario.bottleneck_interface()
        return iface.queue.stats.dropped, iface.queue.stats.marked, iface.rate_bps
    # multi-bottleneck graphs: count drops over every core queue and
    # normalise the aggregate by the total core capacity so the reported
    # utilisation stays in [0, 1]; router-less toy graphs fall back to the
    # total forward link capacity
    topology = scenario.topology
    capacity = (core_capacity_bps(topology)
                or float(sum(l.rate_bps for l in topology.links)))
    return core_drops(topology), core_marks(topology), capacity
