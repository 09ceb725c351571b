"""Cross-validation of the fluid fast path against the packet engine.

The fluid backend is only useful if it lands where the packet engine lands
on the quantities the experiments report.  This module runs *both* backends
over a grid of :class:`PathConfig` points and checks, per point and per
algorithm:

* **goodput** — relative agreement within ``goodput_rtol`` (default 25 %;
  measured agreement on the default grid is well inside that — the fluid
  abstraction loses the sub-RTT timing of ACK bursts, delayed-ACK phase and
  the exact stall instant, each worth a few percent of goodput on short
  runs);
* **send-stalls** — both backends must agree on whether the operating point
  stalls at all, and when both stall the counts must agree within a factor
  of ``stall_ratio`` (a single packet-level stall episode can emit a couple
  of ``SendStall`` signals while the fluid model counts episodes);
* **IFQ peak** — absolute agreement within ``ifq_peak_atol`` packets or
  ``ifq_peak_rtol`` of the queue capacity, whichever is larger.

The default grid spans the IFQ/RTT/bandwidth axes of experiments E3–E5 at
test scale (see :func:`repro.testing.small_path_variants`), so the same
check doubles as the regression gate for both backends: a change that moves
either engine away from the other fails the comparison.

Since the multi-flow fluid backend landed, :func:`cross_validate_fairness`
additionally runs a grid of *flow mixes* (homogeneous reno, reno vs
restricted, staggered starts, shared-IFQ contention) on both backends and
enforces, per mix: aggregate goodput within ``aggregate_rtol``, Jain
fairness index within ``jain_atol`` (**±0.05**), and per-flow goodput
*ordering* preserved (who gets more must not flip between engines beyond a
noise margin).

:func:`cross_validate_population` then checks the vectorized population
engine against the scalar multi-flow engine on the same flow mixes.

Run ``repro validate`` or ``python -m repro.fluid.validate`` (one entry
point, the same options) for the gate CI runs: it runs all three grids and
exits non-zero on any disagreement.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Sequence

from ..errors import ExperimentError
from ..workloads.scenarios import PathConfig

__all__ = [
    "Tolerance",
    "ValidationRow",
    "ValidationReport",
    "cross_validate",
    "default_grid",
    "DEFAULT_TOLERANCE",
    "VALIDATED_ALGORITHMS",
    "FairnessTolerance",
    "FairnessValidationRow",
    "FairnessValidationReport",
    "cross_validate_fairness",
    "default_fairness_grid",
    "DEFAULT_FAIRNESS_TOLERANCE",
    "PopulationValidationRow",
    "PopulationValidationReport",
    "cross_validate_population",
    "add_validate_arguments",
    "run_validate",
]

#: Algorithms whose fluid counterparts are validated.
VALIDATED_ALGORITHMS = ("reno", "restricted", "limited_slow_start")


@dataclass(frozen=True)
class Tolerance:
    """Agreement thresholds between the two backends."""

    goodput_rtol: float = 0.25
    stall_ratio: float = 4.0
    stall_abs: int = 2
    ifq_peak_atol: float = 4.0
    ifq_peak_rtol: float = 0.35

    def __post_init__(self) -> None:
        if self.goodput_rtol <= 0 or self.stall_ratio < 1 or self.ifq_peak_atol < 0:
            raise ExperimentError("nonsensical tolerance values")


#: The documented tolerance the test suite and CI smoke check enforce.
DEFAULT_TOLERANCE = Tolerance()


@dataclass
class ValidationRow:
    """Fluid-vs-packet comparison at one (config, algorithm) point."""

    algorithm: str
    config: PathConfig
    packet_goodput_bps: float
    fluid_goodput_bps: float
    packet_send_stalls: int
    fluid_send_stalls: int
    packet_ifq_peak: int
    fluid_ifq_peak: int
    packet_events: int
    fluid_steps: int
    failures: list[str] = field(default_factory=list)

    @property
    def goodput_rel_error(self) -> float:
        if self.packet_goodput_bps <= 0:
            return float("inf") if self.fluid_goodput_bps > 0 else 0.0
        return abs(self.fluid_goodput_bps - self.packet_goodput_bps) / self.packet_goodput_bps

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class ValidationReport:
    """All rows of a cross-validation run."""

    duration: float
    seed: int
    tolerance: Tolerance
    rows: list[ValidationRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def failures(self) -> list[str]:
        out = []
        for row in self.rows:
            for failure in row.failures:
                out.append(f"{row.algorithm} @ {_label(row.config)}: {failure}")
        return out

    def render(self) -> str:
        lines = [
            f"fluid-vs-packet cross-validation — {len(self.rows)} points, "
            f"duration={self.duration:.1f}s, seed={self.seed}, "
            f"goodput rtol={self.tolerance.goodput_rtol:.0%}",
        ]
        for row in self.rows:
            status = "ok  " if row.ok else "FAIL"
            lines.append(
                f"  [{status}] {row.algorithm:18s} {_label(row.config):28s} "
                f"goodput {row.fluid_goodput_bps / 1e6:6.2f} vs "
                f"{row.packet_goodput_bps / 1e6:6.2f} Mbit/s "
                f"(err {row.goodput_rel_error:5.1%})  "
                f"stalls {row.fluid_send_stalls:3d} vs {row.packet_send_stalls:3d}  "
                f"ifq peak {row.fluid_ifq_peak:3d} vs {row.packet_ifq_peak:3d}"
            )
        if not self.ok:
            lines.append("failures:")
            lines.extend(f"  - {f}" for f in self.failures())
        return "\n".join(lines)


def _label(cfg: PathConfig) -> str:
    return (f"{cfg.bottleneck_rate_bps / 1e6:.0f}Mbit/{cfg.rtt * 1e3:.0f}ms/"
            f"ifq{cfg.ifq_capacity_packets}")


def default_grid() -> list[PathConfig]:
    """The validation grid (≥6 points spanning the E3–E5 sweep axes)."""
    from ..testing import small_path_variants

    return small_path_variants()


def _check(row: ValidationRow, tol: Tolerance) -> None:
    if row.goodput_rel_error > tol.goodput_rtol:
        row.failures.append(
            f"goodput differs by {row.goodput_rel_error:.1%} "
            f"(> {tol.goodput_rtol:.0%}): fluid {row.fluid_goodput_bps:.0f} "
            f"vs packet {row.packet_goodput_bps:.0f} bps"
        )
    p, f = row.packet_send_stalls, row.fluid_send_stalls
    if (p == 0) != (f == 0):
        if max(p, f) > tol.stall_abs:
            row.failures.append(f"stall disagreement: fluid {f} vs packet {p}")
    elif p > 0 and f > 0:
        ratio = max(p, f) / max(min(p, f), 1)
        if ratio > tol.stall_ratio and abs(p - f) > tol.stall_abs:
            row.failures.append(
                f"stall counts differ by {ratio:.1f}x (> {tol.stall_ratio:.0f}x): "
                f"fluid {f} vs packet {p}"
            )
    cap = row.config.ifq_capacity_packets
    peak_tol = max(tol.ifq_peak_atol, tol.ifq_peak_rtol * cap)
    if abs(row.fluid_ifq_peak - row.packet_ifq_peak) > peak_tol:
        row.failures.append(
            f"IFQ peak differs by more than {peak_tol:.1f} packets: "
            f"fluid {row.fluid_ifq_peak} vs packet {row.packet_ifq_peak}"
        )


def cross_validate(
    grid: Sequence[PathConfig] | None = None,
    algorithms: Sequence[str] = VALIDATED_ALGORITHMS,
    duration: float = 3.0,
    seed: int = 2,
    tolerance: Tolerance = DEFAULT_TOLERANCE,
    max_workers: int | None = 0,
    store=None,
) -> ValidationReport:
    """Run both backends over ``grid`` × ``algorithms`` and compare.

    ``max_workers`` fans the (expensive) packet runs out over processes;
    the default runs serially, which is what the test suite wants.
    ``store`` (a :class:`repro.campaign.ResultStore`) makes the grid
    incremental: points already cached — by a previous validation run or
    any campaign sharing them — are served from disk, and newly computed
    points are written back, so a rerun after an interruption (or an
    unchanged CI grid) does zero simulation work.
    """
    from ..campaign.run import execute_spec_documents
    from ..spec import RunSpec

    points = list(grid) if grid is not None else default_grid()
    if not points:
        raise ExperimentError("validation grid must not be empty")

    report = ValidationReport(duration=duration, seed=seed, tolerance=tolerance)
    cells = [(cfg, cc) for cfg in points for cc in algorithms]
    specs = [
        RunSpec(cc=cc, config=cfg, duration=duration, seed=seed, backend=backend)
        for cfg, cc in cells
        for backend in ("packet", "fluid")
    ]
    documents = execute_spec_documents(specs, store=store,
                                       max_workers=max_workers)
    for (cfg, _cc), i in zip(cells, range(0, len(documents), 2)):
        packet, fluid = documents[i]["payload"], documents[i + 1]["payload"]
        row = ValidationRow(
            algorithm=packet["flow"]["algorithm"],
            config=cfg,
            packet_goodput_bps=packet["flow"]["goodput_bps"],
            fluid_goodput_bps=fluid["flow"]["goodput_bps"],
            packet_send_stalls=packet["flow"]["send_stalls"],
            fluid_send_stalls=fluid["flow"]["send_stalls"],
            packet_ifq_peak=packet["ifq_peak"],
            fluid_ifq_peak=fluid["ifq_peak"],
            packet_events=packet["events_processed"],
            fluid_steps=fluid["events_processed"],
            failures=[],
        )
        _check(row, tolerance)
        report.rows.append(row)
    return report


# ---------------------------------------------------------------------------
# multi-flow (fairness) cross-validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FairnessTolerance:
    """Agreement thresholds between the backends on multi-flow mixes."""

    #: Relative tolerance on the mix's aggregate goodput.
    aggregate_rtol: float = 0.25
    #: Absolute tolerance on the Jain fairness index (the documented ±0.05).
    jain_atol: float = 0.05
    #: Per-flow goodput ordering is only enforced between flows whose
    #: packet-side goodputs differ by more than this fraction of the larger
    #: one (ties within noise carry no ordering information).
    ordering_margin: float = 0.08

    def __post_init__(self) -> None:
        if (self.aggregate_rtol <= 0 or self.jain_atol <= 0
                or self.ordering_margin < 0):
            raise ExperimentError("nonsensical fairness tolerance values")


#: The documented multi-flow tolerance the test suite and CI enforce.
DEFAULT_FAIRNESS_TOLERANCE = FairnessTolerance()


@dataclass
class FairnessValidationRow:
    """Fluid-vs-packet comparison of one multi-flow mix."""

    mix: str
    n_flows: int
    packet_aggregate_bps: float
    fluid_aggregate_bps: float
    packet_jain: float
    fluid_jain: float
    packet_goodputs: list[float]
    fluid_goodputs: list[float]
    failures: list[str] = field(default_factory=list)

    @property
    def aggregate_rel_error(self) -> float:
        if self.packet_aggregate_bps <= 0:
            return float("inf") if self.fluid_aggregate_bps > 0 else 0.0
        return (abs(self.fluid_aggregate_bps - self.packet_aggregate_bps)
                / self.packet_aggregate_bps)

    @property
    def jain_error(self) -> float:
        return abs(self.fluid_jain - self.packet_jain)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class FairnessValidationReport:
    """All rows of a multi-flow cross-validation run."""

    duration: float
    seed: int
    tolerance: FairnessTolerance
    rows: list[FairnessValidationRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def failures(self) -> list[str]:
        return [f"{row.mix}: {failure}"
                for row in self.rows for failure in row.failures]

    def render(self) -> str:
        lines = [
            f"multi-flow fluid-vs-packet cross-validation — {len(self.rows)} "
            f"mixes, duration={self.duration:.1f}s, seed={self.seed}, "
            f"Jain atol={self.tolerance.jain_atol:.2f}, aggregate "
            f"rtol={self.tolerance.aggregate_rtol:.0%}",
        ]
        for row in self.rows:
            status = "ok  " if row.ok else "FAIL"
            lines.append(
                f"  [{status}] {row.mix:24s} ({row.n_flows} flows)  "
                f"aggregate {row.fluid_aggregate_bps / 1e6:6.2f} vs "
                f"{row.packet_aggregate_bps / 1e6:6.2f} Mbit/s "
                f"(err {row.aggregate_rel_error:5.1%})  "
                f"Jain {row.fluid_jain:.3f} vs {row.packet_jain:.3f} "
                f"(|Δ| {row.jain_error:.3f})"
            )
        if not self.ok:
            lines.append("failures:")
            lines.extend(f"  - {f}" for f in self.failures())
        return "\n".join(lines)


def default_fairness_grid(config: PathConfig | None = None) -> list[tuple[str, object]]:
    """The validated flow mixes: ``(label, ScenarioSpec)`` pairs.

    Spans the fairness dimensions the multi-flow model couples: flow count,
    homogeneous vs heterogeneous algorithms, staggered starts, and
    shared-IFQ contention — all on the canonical dumbbell at test scale.
    Starts are staggered by a couple of round trips per flow (100 ms here,
    the same reason experiment E9's ``flow_mix`` staggers): flows released
    in lock-step (or within the same slow-start epoch) phase-lock on the
    packet engine and drop-tail capture decides their shares — a discrete
    symmetry-breaking effect outside any fluid idealisation, and outside
    the paper's evaluation regime.
    """
    from ..spec.scenario import dumbbell, shared_path
    from ..testing import SMALL_PATH

    cfg = config if config is not None else SMALL_PATH
    stagger = lambda n: tuple(0.1 * i for i in range(n))  # noqa: E731
    return [
        ("reno_x2", dumbbell(cfg, 2, ccs="reno", start_times=stagger(2))),
        ("reno_x4", dumbbell(cfg, 4, ccs="reno", start_times=stagger(4))),
        ("reno+restricted", dumbbell(cfg, 2, ccs=("reno", "restricted"),
                                     start_times=stagger(2))),
        ("staggered_starts", dumbbell(cfg, 2, ccs="reno",
                                      start_times=(0.0, 1.0))),
        ("shared_ifq_x2", shared_path(cfg, 2, ccs="reno",
                                      start_times=stagger(2))),
    ]


def _ordering_failures(packet: Sequence[float], fluid: Sequence[float],
                       margin: float) -> list[str]:
    """Pairs whose goodput ordering *decisively* flips between the backends.

    A pair only carries ordering information when both engines separate the
    two flows by more than the noise margin: a backend calling them
    near-equal neither confirms nor contradicts the other's ranking.
    """
    out = []
    for i in range(len(packet)):
        for j in range(i + 1, len(packet)):
            packet_scale = max(packet[i], packet[j], 1e-9)
            fluid_scale = max(fluid[i], fluid[j], 1e-9)
            if (abs(packet[i] - packet[j]) <= margin * packet_scale
                    or abs(fluid[i] - fluid[j]) <= margin * fluid_scale):
                continue  # a tie within noise carries no ordering
            packet_says = packet[i] > packet[j]
            fluid_says = fluid[i] > fluid[j]
            if packet_says != fluid_says:
                out.append(
                    f"per-flow ordering flips for flows {i}/{j}: packet "
                    f"{packet[i]:.0f} vs {packet[j]:.0f} bps, fluid "
                    f"{fluid[i]:.0f} vs {fluid[j]:.0f} bps")
    return out


def _check_fairness(row: FairnessValidationRow, tol: FairnessTolerance) -> None:
    if row.aggregate_rel_error > tol.aggregate_rtol:
        row.failures.append(
            f"aggregate goodput differs by {row.aggregate_rel_error:.1%} "
            f"(> {tol.aggregate_rtol:.0%}): fluid "
            f"{row.fluid_aggregate_bps:.0f} vs packet "
            f"{row.packet_aggregate_bps:.0f} bps")
    if row.jain_error > tol.jain_atol:
        row.failures.append(
            f"Jain index differs by {row.jain_error:.3f} "
            f"(> {tol.jain_atol:.2f}): fluid {row.fluid_jain:.3f} vs "
            f"packet {row.packet_jain:.3f}")
    row.failures.extend(_ordering_failures(
        row.packet_goodputs, row.fluid_goodputs, tol.ordering_margin))


def cross_validate_fairness(
    grid: Sequence[tuple[str, object]] | None = None,
    duration: float = 20.0,
    seed: int = 2,
    tolerance: FairnessTolerance = DEFAULT_FAIRNESS_TOLERANCE,
    max_workers: int | None = 0,
    store=None,
) -> FairnessValidationReport:
    """Run every mix on both backends and compare the fairness quantities.

    ``grid`` entries are ``(label, ScenarioSpec)`` pairs (defaults to
    :func:`default_fairness_grid`); each executes as a
    :class:`~repro.spec.MultiFlowSpec` with ``backend="packet"`` and
    ``backend="fluid"``.  The default 20 s horizon is where the tolerances
    were tuned: drop-tail fairness needs several loss epochs to converge,
    so short horizons compare transient scatter rather than the fairness
    the experiments report.  ``max_workers`` fans the runs out over
    processes; the default runs serially (what the test suite wants).
    ``store`` (a :class:`repro.campaign.ResultStore`) serves already-cached
    mixes from disk and records new ones, making the grid incremental.
    """
    from ..campaign.run import execute_spec_documents
    from ..spec import MultiFlowSpec

    points = list(grid) if grid is not None else default_fairness_grid()
    if not points:
        raise ExperimentError("fairness validation grid must not be empty")

    specs = [
        MultiFlowSpec(scenario=scenario, duration=duration, seed=seed,
                      backend=backend)
        for _, scenario in points
        for backend in ("packet", "fluid")
    ]
    documents = execute_spec_documents(specs, store=store,
                                       max_workers=max_workers)
    report = FairnessValidationReport(duration=duration, seed=seed,
                                      tolerance=tolerance)
    for (label, scenario), i in zip(points, range(0, len(documents), 2)):
        packet, fluid = documents[i]["payload"], documents[i + 1]["payload"]
        row = FairnessValidationRow(
            mix=label,
            n_flows=len(scenario.flows),
            packet_aggregate_bps=packet["aggregate_goodput_bps"],
            fluid_aggregate_bps=fluid["aggregate_goodput_bps"],
            packet_jain=packet["jain_index"],
            fluid_jain=fluid["jain_index"],
            packet_goodputs=[f["goodput_bps"] for f in packet["flows"]],
            fluid_goodputs=[f["goodput_bps"] for f in fluid["flows"]],
        )
        _check_fairness(row, tolerance)
        report.rows.append(row)
    return report


# ---------------------------------------------------------------------------
# scalar-vs-vector population cross-validation
# ---------------------------------------------------------------------------

@dataclass
class PopulationValidationRow:
    """Scalar-vs-vector fluid engine comparison of one multi-flow mix."""

    mix: str
    n_flows: int
    scalar_aggregate_bps: float
    vector_aggregate_bps: float
    scalar_jain: float
    vector_jain: float
    scalar_goodputs: list[float]
    vector_goodputs: list[float]
    scalar_stalls: int
    vector_stalls: int
    failures: list[str] = field(default_factory=list)

    @property
    def aggregate_rel_error(self) -> float:
        if self.scalar_aggregate_bps <= 0:
            return float("inf") if self.vector_aggregate_bps > 0 else 0.0
        return (abs(self.vector_aggregate_bps - self.scalar_aggregate_bps)
                / self.scalar_aggregate_bps)

    @property
    def jain_error(self) -> float:
        return abs(self.vector_jain - self.scalar_jain)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class PopulationValidationReport:
    """All rows of a scalar-vs-vector cross-validation run."""

    duration: float
    seed: int
    tolerance: FairnessTolerance
    rows: list[PopulationValidationRow] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)

    def failures(self) -> list[str]:
        return [f"{row.mix}: {failure}"
                for row in self.rows for failure in row.failures]

    def render(self) -> str:
        lines = [
            f"fluid scalar-vs-vector cross-validation — {len(self.rows)} "
            f"mixes, duration={self.duration:.1f}s, seed={self.seed}, "
            f"Jain atol={self.tolerance.jain_atol:.2f}, aggregate "
            f"rtol={self.tolerance.aggregate_rtol:.0%}",
        ]
        for row in self.rows:
            status = "ok  " if row.ok else "FAIL"
            lines.append(
                f"  [{status}] {row.mix:24s} ({row.n_flows} flows)  "
                f"aggregate {row.vector_aggregate_bps / 1e6:6.2f} vs "
                f"{row.scalar_aggregate_bps / 1e6:6.2f} Mbit/s "
                f"(err {row.aggregate_rel_error:5.1%})  "
                f"Jain {row.vector_jain:.3f} vs {row.scalar_jain:.3f} "
                f"(|Δ| {row.jain_error:.3f})  "
                f"stalls {row.vector_stalls} vs {row.scalar_stalls}"
            )
        if not self.ok:
            lines.append("failures:")
            lines.extend(f"  - {f}" for f in self.failures())
        return "\n".join(lines)


def cross_validate_population(
    grid: Sequence[tuple[str, object]] | None = None,
    duration: float = 20.0,
    seed: int = 2,
    tolerance: FairnessTolerance = DEFAULT_FAIRNESS_TOLERANCE,
) -> PopulationValidationReport:
    """Run every mix on both *fluid* engines and compare.

    The vectorized :class:`~repro.fluid.vector.FluidPopulationModel` is
    forced (``engine="vector"``) against the per-flow
    :class:`~repro.fluid.model.FluidMultiFlowModel` on the same mixes the
    packet cross-validation uses, under the same fairness tolerances —
    the regression gate that keeps the population engine honest.  In
    practice the two agree to floating-point noise on per-pair dumbbells
    (see the parity test suite); the documented tolerances bound the
    summation-order differences a shared IFQ can introduce.  Both engines
    are cheap, so the grid runs in-process with no result store.
    """
    from ..fluid.backend import execute_fluid_multi_flow
    from ..spec import MultiFlowSpec

    points = list(grid) if grid is not None else default_fairness_grid()
    if not points:
        raise ExperimentError("population validation grid must not be empty")

    report = PopulationValidationReport(duration=duration, seed=seed,
                                        tolerance=tolerance)
    for label, scenario in points:
        spec = MultiFlowSpec(scenario=scenario, duration=duration, seed=seed,
                             backend="fluid")
        scalar = execute_fluid_multi_flow(spec, engine="scalar")
        vector = execute_fluid_multi_flow(spec, engine="vector")
        row = PopulationValidationRow(
            mix=label,
            n_flows=len(scenario.flows),
            scalar_aggregate_bps=scalar.aggregate_goodput_bps,
            vector_aggregate_bps=vector.aggregate_goodput_bps,
            scalar_jain=scalar.jain_index,
            vector_jain=vector.jain_index,
            scalar_goodputs=[f.goodput_bps for f in scalar.flows],
            vector_goodputs=[f.goodput_bps for f in vector.flows],
            scalar_stalls=scalar.total_send_stalls,
            vector_stalls=vector.total_send_stalls,
        )
        if row.aggregate_rel_error > tolerance.aggregate_rtol:
            row.failures.append(
                f"aggregate goodput differs by {row.aggregate_rel_error:.1%} "
                f"(> {tolerance.aggregate_rtol:.0%}): vector "
                f"{row.vector_aggregate_bps:.0f} vs scalar "
                f"{row.scalar_aggregate_bps:.0f} bps")
        if row.jain_error > tolerance.jain_atol:
            row.failures.append(
                f"Jain index differs by {row.jain_error:.3f} "
                f"(> {tolerance.jain_atol:.2f}): vector {row.vector_jain:.3f} "
                f"vs scalar {row.scalar_jain:.3f}")
        row.failures.extend(_ordering_failures(
            row.scalar_goodputs, row.vector_goodputs,
            tolerance.ordering_margin))
        report.rows.append(row)
    return report


def add_validate_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the gate's options to ``parser`` (shared with the repro CLI).

    ``--seed`` is left to the caller: ``repro`` takes it as a global flag.
    """
    parser.add_argument("--duration", type=float, default=3.0,
                        help="single-flow grid horizon (simulated seconds)")
    parser.add_argument("--points", type=int, default=None,
                        help="limit the single-flow grid to the first N points")
    parser.add_argument("--skip-fairness", action="store_true",
                        help="skip the fluid-vs-packet multi-flow grid")
    parser.add_argument("--skip-population", action="store_true",
                        help="skip the scalar-vs-vector fluid engine grid")
    parser.add_argument("--fairness-duration", type=float, default=20.0,
                        help="multi-flow mix horizon (the Jain tolerance is "
                             "tuned at 20 s; shorter horizons compare "
                             "transients)")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="serve grid points from (and record them into) "
                             "this content-addressed result store, making "
                             "reruns of an unchanged grid incremental")


def run_validate(args: argparse.Namespace) -> int:
    """Run the gate for a parsed invocation; returns the process exit code.

    Runs the single-flow grid, the multi-flow fairness grid and the
    scalar-vs-vector population grid; any one disagreeing fails the check.
    An unset ``args.seed`` takes the seed the tolerances were tuned at.
    """
    seed = 2 if args.seed is None else args.seed
    store = None
    if args.store is not None:
        from ..campaign import ResultStore

        store = ResultStore(args.store)
    grid = default_grid()
    if args.points is not None:
        grid = grid[: args.points]
    # interactive/CI entry point: fan the packet runs out over processes
    report = cross_validate(grid=grid, duration=args.duration, seed=seed,
                            max_workers=None, store=store)
    print(report.render())
    ok = report.ok
    if not args.skip_fairness:
        fairness = cross_validate_fairness(
            duration=args.fairness_duration, seed=seed, max_workers=None,
            store=store)
        print(fairness.render())
        ok = ok and fairness.ok
    if not args.skip_population:
        population = cross_validate_population(
            duration=args.fairness_duration, seed=seed)
        print(population.render())
        ok = ok and population.ok
    if store is not None:
        print(f"result store: {store.hits} hits, {store.misses} misses "
              f"({store.root})")
    return 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    """Module entry point: ``python -m repro.fluid.validate``.

    Takes the same options as ``repro validate`` (see
    :func:`add_validate_arguments`), so there is one gate with one
    interface.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.fluid.validate",
        description="fluid-vs-packet cross-validation")
    parser.add_argument("--seed", type=int, default=None,
                        help="simulation seed (default 2, where the "
                             "tolerances were tuned)")
    add_validate_arguments(parser)
    return run_validate(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
