"""Parameter-sweep experiments (E3, E4, E5, E6, E10, E12).

The paper's evaluation is a single operating point (100 Mbit/s, 60 ms,
txqueuelen 100).  These sweeps map out how the comparison behaves around
that point, which both sanity-checks the reproduction (the advantage should
vanish when the IFQ is larger than the BDP) and covers the ablations:

* :func:`ifq_sweep_spec` (E3) — ``txqueuelen`` from 25 to 1000 packets;
* :func:`rtt_sweep_spec` (E4) — 10 to 200 ms;
* :func:`bandwidth_sweep_spec` (E5) — 10 to 622 Mbit/s;
* :func:`setpoint_sweep_spec` (E6) — controller set point 0.5 to 1.0;
* :func:`transfer_size_sweep_spec` (E10) — completion time of 1 MB to
  256 MB transfers;
* :func:`fairness_sweep_spec` (E12) — the second flow's start offset.

Each builder returns a declarative :class:`repro.spec.SweepSpec` (the
experiment registry uses the same builders), and
``repro.spec.execute(spec, max_workers=...)`` runs it through
:func:`execute_sweep_spec`: the grid expands into one
:class:`~repro.spec.RunSpec` per (point, algorithm), fans out across the
process pool (workers pickle one spec each), and the runs are folded into a
:class:`SweepResult` whose rows carry, per parameter value, the goodput and
stall counts of the compared algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ..analysis.tables import Table
from ..codec import PROVENANCE
from ..core.config import RestrictedSlowStartConfig
from ..errors import ExperimentError
from ..obs.telemetry import aggregate
from ..spec import MultiFlowSpec, RunSpec, SweepSpec
from ..units import MB, Mbps, format_rate
from ..workloads.scenarios import PathConfig
from .parallel import map_specs

__all__ = [
    "SweepResult",
    "execute_sweep_spec",
    "ifq_sweep_spec",
    "rtt_sweep_spec",
    "bandwidth_sweep_spec",
    "setpoint_sweep_spec",
    "fairness_sweep_spec",
    "transfer_size_sweep_spec",
    "render_sweep",
]

#: Algorithms compared at every sweep point.
SWEEP_ALGORITHMS = ("reno", "restricted")


@dataclass
class SweepResult:
    """Rows of a one-dimensional parameter sweep."""

    name: str
    parameter: str
    rows: list[dict] = field(default_factory=list)
    #: The declarative spec that produced this result (provenance).
    spec: SweepSpec | None = field(default=None, metadata=PROVENANCE)

    def column(self, key: str) -> list:
        """Values of ``key`` across rows (missing keys become ``None``)."""
        return [row.get(key) for row in self.rows]

    def row_for(self, value) -> dict:
        """The row whose parameter equals ``value``."""
        for row in self.rows:
            if row[self.parameter] == value:
                return row
        raise ExperimentError(f"no row with {self.parameter}={value!r}")


# ---------------------------------------------------------------------------
# spec execution
# ---------------------------------------------------------------------------

def _sweep_row(spec: SweepSpec, value, results: dict[str, object]) -> dict:
    row: dict = {spec.row_key: value}
    if spec.row_style == "comparison":
        for algo, res in results.items():
            row[f"{algo}_goodput_bps"] = res.flow.goodput_bps
            row[f"{algo}_send_stalls"] = res.flow.send_stalls
            row[f"{algo}_retrans"] = res.flow.pkts_retrans
            row[f"{algo}_utilization"] = res.link_utilization
        if {"reno", "restricted"} <= set(results):
            base = row["reno_goodput_bps"]
            row["improvement_percent"] = (
                (row["restricted_goodput_bps"] - base) / base * 100.0
                if base > 0 else 0.0)
    elif spec.row_style == "single":
        for algo, res in results.items():
            row[f"{algo}_goodput_bps"] = res.flow.goodput_bps
            row[f"{algo}_send_stalls"] = res.flow.send_stalls
            row[f"{algo}_utilization"] = res.link_utilization
            row["ifq_peak"] = res.ifq_peak
            row["ifq_drops"] = res.ifq_drops
    elif spec.row_style == "fairness":
        # one MultiFlowResult per point: the scenario declares the mix
        res = results["flows"]
        row["aggregate_goodput_bps"] = res.aggregate_goodput_bps
        row["jain_index"] = res.jain_index
        row["utilization"] = res.link_utilization
        row["total_send_stalls"] = res.total_send_stalls
        row["bottleneck_drops"] = res.bottleneck_drops
        for algo in sorted({f.algorithm for f in res.flows}):
            row[f"{algo}_goodput_bps"] = float(sum(
                f.goodput_bps for f in res.flows if f.algorithm == algo))
        # the canonical population summary rides along (skipped by the
        # table renderer; surfaced by `repro run ... --summary`)
        row["summary"] = res.summary
    else:  # "completion"
        for algo, res in results.items():
            row[f"{algo}_completion_time"] = res.flow.completion_time
            row[f"{algo}_goodput_bps"] = res.flow.goodput_bps
            row[f"{algo}_send_stalls"] = res.flow.send_stalls
        if {"reno", "restricted"} <= set(results):
            reno_time = row["reno_completion_time"]
            restricted_time = row["restricted_completion_time"]
            row["speedup"] = (reno_time / restricted_time
                              if reno_time and restricted_time else None)
    return row


def execute_sweep_spec(spec: SweepSpec, *, max_workers: int | None = None,
                       store=None) -> SweepResult:
    """Expand a sweep grid into run specs, fan out, fold into rows.

    ``store`` (a :class:`repro.campaign.ResultStore`) records every
    per-point result write-through before the fold discards it, so a
    campaign naming the same grid points hits them later.
    """
    result = SweepResult(name=spec.name, parameter=spec.row_key)
    points = spec.point_specs()
    if not points:
        return result
    flat = [run_spec for _, by_algo in points for run_spec in by_algo.values()]
    executed = map_specs(flat, max_workers=max_workers, store=store)
    runs = iter(executed)
    for value, by_algo in points:
        results = {algo: next(runs) for algo in by_algo}
        result.rows.append(_sweep_row(spec, value, results))
    # the fold discards the per-point results; their telemetry survives as
    # one roll-up (child RunTelemetry objects pickle back from workers)
    result.telemetry = aggregate(executed)
    return result


# ---------------------------------------------------------------------------
# declarative sweep builders (reused by the experiment registry)
# ---------------------------------------------------------------------------

def ifq_sweep_spec(
    sizes: Sequence[int] = (25, 50, 100, 200, 400, 1000),
    duration: float = 10.0,
    seed: int = 1,
    base_config: PathConfig | None = None,
    backend: str = "packet",
) -> SweepSpec:
    """Declarative sender ``txqueuelen`` sweep (E3)."""
    base = base_config if base_config is not None else PathConfig()
    return SweepSpec(
        name="ifq_size_sweep",
        parameter="config.ifq_capacity_packets",
        values=tuple(int(size) for size in sizes),
        base=RunSpec(config=base, duration=duration, seed=seed, backend=backend),
    )


def rtt_sweep_spec(
    rtts: Sequence[float] = (0.010, 0.030, 0.060, 0.120, 0.200),
    duration: float = 10.0,
    seed: int = 1,
    base_config: PathConfig | None = None,
    backend: str = "packet",
) -> SweepSpec:
    """Declarative round-trip-time sweep (E4).

    ``retune_rss`` rederives the restricted controller's gains at every
    point — they scale with the RTT exactly as the tuning procedure would.
    """
    base = base_config if base_config is not None else PathConfig()
    return SweepSpec(
        name="rtt_sweep",
        parameter="config.rtt",
        values=tuple(float(rtt) for rtt in rtts),
        base=RunSpec(config=base, duration=duration, seed=seed, backend=backend),
        retune_rss=True,
    )


def bandwidth_sweep_spec(
    rates_mbps: Sequence[float] = (10, 50, 100, 250, 622),
    duration: float = 10.0,
    seed: int = 1,
    base_config: PathConfig | None = None,
    backend: str = "packet",
) -> SweepSpec:
    """Declarative bottleneck (and NIC) rate sweep (E5)."""
    base = base_config if base_config is not None else PathConfig()
    return SweepSpec(
        name="bandwidth_sweep",
        parameter="config.bottleneck_rate_bps",
        values=tuple(float(rate) for rate in rates_mbps),
        field_values=tuple(Mbps(rate) for rate in rates_mbps),
        parameter_label="bottleneck_mbps",
        base=RunSpec(config=base, duration=duration, seed=seed, backend=backend),
    )


def setpoint_sweep_spec(
    setpoints: Sequence[float] = (0.5, 0.7, 0.8, 0.9, 0.95, 1.0),
    duration: float = 10.0,
    seed: int = 1,
    base_config: PathConfig | None = None,
    backend: str = "packet",
) -> SweepSpec:
    """Declarative PID set-point sweep — restricted only (E6)."""
    base = base_config if base_config is not None else PathConfig()
    return SweepSpec(
        name="setpoint_sweep",
        parameter="rss_config.setpoint_fraction",
        values=tuple(float(sp) for sp in setpoints),
        base=RunSpec(cc="restricted", config=base, duration=duration, seed=seed,
                     backend=backend,
                     rss_config=RestrictedSlowStartConfig.for_path(base.rtt)),
        algorithms=("restricted",),
        row_style="single",
        retune_rss=True,
    )


def fairness_sweep_spec(
    start_times: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    n_flows: int = 2,
    ccs: str | Sequence[str] = "reno",
    duration: float = 15.0,
    seed: int = 1,
    base_config: PathConfig | None = None,
    backend: str = "packet",
) -> SweepSpec:
    """Declarative fairness sweep varying a ``scenario.*`` dotted field (E12).

    The grid staggers the *second* flow's start across ``start_times`` on
    an ``n_flows`` dumbbell — the dotted parameter
    ``"scenario.flows.1.start_time"`` addresses the declared scenario
    directly, so any scenario field (per-flow ``total_bytes``, ``duration``,
    link queue sizes, ...) sweeps the same way.  ``backend="fluid"`` runs
    every point on the N-flow coupled fluid model.
    """
    from ..spec import dumbbell

    if n_flows < 2:
        raise ExperimentError("the fairness sweep staggers flow 1; need >= 2 flows")
    base_cfg = base_config if base_config is not None else PathConfig()
    base = MultiFlowSpec(
        scenario=dumbbell(base_cfg, n_flows, ccs=ccs),
        duration=duration, seed=seed, backend=backend)
    return SweepSpec(
        name="fairness_start_sweep",
        parameter="scenario.flows.1.start_time",
        values=tuple(float(t) for t in start_times),
        base=base,
        parameter_label="flow1_start",
        row_style="fairness",
    )


def transfer_size_sweep_spec(
    sizes_bytes: Sequence[float] = (MB(1), MB(8), MB(32), MB(128), MB(256)),
    seed: int = 1,
    base_config: PathConfig | None = None,
    max_duration: float = 60.0,
    backend: str = "packet",
) -> SweepSpec:
    """Declarative transfer-size (completion-time) sweep (E10)."""
    base = base_config if base_config is not None else PathConfig()
    return SweepSpec(
        name="transfer_size_sweep",
        parameter="total_bytes",
        values=tuple(float(size) for size in sizes_bytes),
        field_values=tuple(int(size) for size in sizes_bytes),
        parameter_label="transfer_bytes",
        row_style="completion",
        base=RunSpec(config=base, duration=max_duration, seed=seed, backend=backend),
    )


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def render_sweep(result: SweepResult) -> str:
    """Render a sweep as an aligned text table."""
    if not result.rows:
        return f"{result.name}: (no rows)"
    # "summary" holds a PopulationSummary object, not a scalar cell — it is
    # rendered by `repro run ... --summary`, not by the sweep table
    columns = [result.parameter] + [
        k for k in result.rows[0] if k not in (result.parameter, "summary")]
    table = Table(columns, title=result.name)
    for row in result.rows:
        cells = []
        for col in columns:
            value = row.get(col)
            if value is None:
                cells.append("-")
            elif "goodput_bps" in col:
                cells.append(format_rate(value))
            elif isinstance(value, float):
                cells.append(f"{value:.3g}")
            else:
                cells.append(str(value))
        table.add_row(*cells)
    return table.render()
