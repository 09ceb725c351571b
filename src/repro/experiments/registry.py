"""Experiment registry — one entry per paper figure, table and ablation.

Maps the experiment identifiers used throughout the documentation (E1, E2,
...) to what regenerates them: a declarative :mod:`repro.spec` object — the
unit of dispatch, serialization (``repro spec dump E3``), caching and
campaigns; a :class:`~repro.campaign.CampaignSpec` of cells for the grids no
one sweep parameter spans (E7, E9, E13) — and the fold of its result into
the experiment's table.  Uniform overrides (path, duration, seed, backend)
are applied through the spec's ``with_*`` methods, or by rebuilding E13,
whose cells derive from them.  The fluid fast-path variants (``E1F`` ...)
are generated from the packet specs via ``spec.with_backend("fluid")``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

from ..errors import ExperimentError
from ..spec import MultiFlowSpec, SpecBase, execute, parking_lot
from ..workloads.scenarios import PathConfig
from .aqm_gallery import aqm_gallery_from_campaign, aqm_gallery_grid_spec
from .baselines import baselines_from_comparison, baselines_spec
from .fairness import fairness_from_campaign, fairness_spec
from .figure1 import figure1_from_comparison, figure1_spec
from .sweeps import (
    bandwidth_sweep_spec,
    fairness_sweep_spec,
    ifq_sweep_spec,
    rtt_sweep_spec,
    setpoint_sweep_spec,
    transfer_size_sweep_spec,
)
from .throughput import throughput_from_comparison, throughput_spec
from .tuning_ablation import tuning_ablation_from_campaign, tuning_ablation_spec

__all__ = ["ExperimentSpec", "EXPERIMENTS", "get_experiment", "all_experiments"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Description of one reproducible experiment."""

    experiment_id: str
    paper_artifact: str
    description: str
    benchmark: str
    #: Declarative configuration of the experiment.
    spec: SpecBase
    #: Folds ``execute(spec)``'s result into the experiment's result type
    #: (e.g. a ``ComparisonResult`` into a ``Figure1Result``).
    build_result: Callable | None = None
    #: Rebuilds ``spec`` from ``config=``/``duration=``/``seed=`` overrides,
    #: for an experiment whose cells derive their path or flow starts from
    #: them (E13); ``None`` applies overrides through ``spec.with_*``.
    builder: Callable[..., SpecBase] | None = None
    #: Experiment id of the packet counterpart for derived (fluid) variants.
    base_id: str | None = None

    # ------------------------------------------------------------------
    @property
    def backend_aware(self) -> bool:
        """Whether the entry accepts backend overrides (not a derived variant)."""
        return self.base_id is None

    @property
    def pinned_backend(self) -> str | None:
        """Backend a derived variant is pinned to, ``None`` when selectable."""
        return self.spec.backend if self.base_id is not None else None

    # ------------------------------------------------------------------
    def configured_spec(self, *, config: PathConfig | None = None,
                        duration: float | None = None, seed: int | None = None,
                        backend: str | None = None) -> SpecBase:
        """``spec`` with the given uniform overrides applied (``config``
        replaces the default path every registry spec is built on)."""
        if (backend is not None and self.base_id is not None
                and backend != self.pinned_backend):
            raise ExperimentError(
                f"experiment {self.experiment_id} is pinned to the "
                f"{self.pinned_backend} backend; run {self.base_id} instead")
        spec = self.spec
        if self.builder is not None:
            overrides = {key: value for key, value in
                         (("config", config), ("duration", duration), ("seed", seed))
                         if value is not None}
            if overrides:
                spec = self.builder(**overrides).with_backend(spec.backend)
        else:
            if config is not None:
                spec = spec.with_config(config)
            if duration is not None:
                spec = spec.with_duration(duration)
            if seed is not None:
                spec = spec.with_seed(seed)
        if backend is not None:
            spec = spec.with_backend(backend)
        return spec

    def run(self, *, max_workers: int | None = None, store=None, **overrides):
        """Execute the experiment with :meth:`configured_spec`'s overrides.

        ``store`` (a :class:`repro.campaign.ResultStore`) records the
        executed spec's raw result in the content-addressed cache
        (write-through), so campaigns and ``repro validate --store``
        sharing the same spec hit it later.
        """
        spec = self.configured_spec(**overrides)
        # the *raw* spec results are what the cache keys address (the
        # folded build_result view is derived presentation); execute's
        # write-through stores the composite and its atomic components
        return self.fold(execute(spec, max_workers=max_workers, store=store))

    def fold(self, result):
        """The experiment's view of its spec's raw ``result``."""
        if self.build_result is None:
            return result
        folded = self.build_result(result)
        # build_result derives a presentation view; carry the raw result's
        # telemetry sidecar across the fold so --profile works on it too
        folded.telemetry = getattr(result, "telemetry", None)
        return folded


EXPERIMENTS: dict[str, ExperimentSpec] = {
    "E1": ExperimentSpec(
        "E1", "Figure 1",
        "Cumulative send-stall signals over time, standard vs restricted",
        "benchmarks/bench_figure1.py",
        spec=figure1_spec(), build_result=figure1_from_comparison,
    ),
    "E2": ExperimentSpec(
        "E2", "Section 4 headline",
        "Bulk-transfer throughput, standard vs restricted (~40% in the paper)",
        "benchmarks/bench_throughput.py",
        spec=throughput_spec(), build_result=throughput_from_comparison,
    ),
    "E3": ExperimentSpec(
        "E3", "ablation",
        "Interface-queue (txqueuelen) size sweep",
        "benchmarks/bench_ifq_sweep.py",
        spec=ifq_sweep_spec(),
    ),
    "E4": ExperimentSpec(
        "E4", "ablation",
        "Round-trip-time sweep",
        "benchmarks/bench_rtt_sweep.py",
        spec=rtt_sweep_spec(),
    ),
    "E5": ExperimentSpec(
        "E5", "ablation",
        "Bottleneck bandwidth sweep",
        "benchmarks/bench_bandwidth_sweep.py",
        spec=bandwidth_sweep_spec(),
    ),
    "E6": ExperimentSpec(
        "E6", "ablation",
        "Controller set-point sweep (paper fixes 90% of the IFQ)",
        "benchmarks/bench_setpoint_sweep.py",
        spec=setpoint_sweep_spec(),
    ),
    "E7": ExperimentSpec(
        "E7", "ablation",
        "Ziegler-Nichols tuning-rule comparison",
        "benchmarks/bench_tuning_rules.py",
        spec=tuning_ablation_spec(), build_result=tuning_ablation_from_campaign,
    ),
    "E8": ExperimentSpec(
        "E8", "extension",
        "Versus Limited Slow-Start, HyStart, CUBIC and NewReno",
        "benchmarks/bench_baselines.py",
        spec=baselines_spec(), build_result=baselines_from_comparison,
    ),
    "E9": ExperimentSpec(
        "E9", "extension",
        "Multi-flow fairness and utilisation",
        "benchmarks/bench_fairness.py",
        spec=fairness_spec(), build_result=fairness_from_campaign,
    ),
    "E10": ExperimentSpec(
        "E10", "extension",
        "Transfer-size (completion-time) sweep",
        "benchmarks/bench_transfer_size.py",
        spec=transfer_size_sweep_spec(),
    ),
    "E11": ExperimentSpec(
        "E11", "extension",
        "Parking-lot scenario: one long flow across 3 bottlenecks vs per-hop "
        "cross flows",
        "examples/parking_lot.py",
        spec=MultiFlowSpec(scenario=parking_lot(PathConfig(), 3),
                           duration=15.0),
    ),
    "E12": ExperimentSpec(
        "E12", "extension",
        "Fairness vs start-time stagger: a scenario-aware sweep varying "
        "scenario.flows.1.start_time",
        "benchmarks/bench_fluid_fairness.py",
        spec=fairness_sweep_spec(),
    ),
    "E13": ExperimentSpec(
        "E13", "extension",
        "AQM + ECN gallery: restricted/reno/cubic/prague over "
        "droptail/red/codel/dualpi2 bottlenecks",
        "benchmarks/bench_aqm_gallery.py",
        spec=aqm_gallery_grid_spec(), build_result=aqm_gallery_from_campaign,
        builder=aqm_gallery_grid_spec,
    ),
}


def _supports_fluid(spec: SpecBase) -> bool:
    """Whether a declarative spec can derive a fluid fast-path variant."""
    try:
        spec.with_backend("fluid")
    except ExperimentError:
        # packet-only shapes: non-dumbbell scenarios (e.g. the parking lot)
        return False
    return True


def _fluid_benchmark(spec: SpecBase) -> str:
    """The benchmark that validates a derived fluid variant.

    Single-flow specs are covered by the single-flow speedup/agreement
    bench; fairness-style (multi-flow) specs by the multi-flow one.
    """
    members = getattr(spec, "units", ()) or (getattr(spec, "base", spec),)
    fairness = any(isinstance(member, MultiFlowSpec) for member in members)
    return ("benchmarks/bench_fluid_fairness.py" if fairness
            else "benchmarks/bench_fluid_vs_packet.py")


#: Fluid fast-path variants: every fluid-capable experiment derived via
#: ``spec.with_backend("fluid")`` and registered as ``<id>F`` so sweeps can
#: be listed, scripted and regenerated on the fast path (cross-validated
#: against the packet engine by ``benchmarks/bench_fluid_vs_packet.py``).
#: Packet-only specs (multi-flow scenarios such as E11, the AQM cells of
#: E13, algorithms without a fluid growth rule as in E8) get no variant.
EXPERIMENTS.update({
    f"{entry.experiment_id}F": dataclasses.replace(
        entry,
        experiment_id=f"{entry.experiment_id}F",
        description=f"{entry.description} (fluid fast path)",
        benchmark=_fluid_benchmark(entry.spec),
        spec=entry.spec.with_backend("fluid"),
        base_id=entry.experiment_id,
    )
    for entry in list(EXPERIMENTS.values())
    if _supports_fluid(entry.spec)
})


def get_experiment(experiment_id: str) -> ExperimentSpec:
    """Look up an experiment by its identifier (e.g. ``"E1"``)."""
    try:
        return EXPERIMENTS[experiment_id.upper()]
    except KeyError:
        raise ExperimentError(
            f"unknown experiment {experiment_id!r}; known: {sorted(EXPERIMENTS)}"
        ) from None


def all_experiments() -> list[ExperimentSpec]:
    """Every registered experiment, ordered by identifier."""
    return [EXPERIMENTS[k] for k in sorted(EXPERIMENTS, key=lambda s: (len(s), s))]
