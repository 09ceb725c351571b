"""Experiment registry — one entry per paper figure, table and ablation.

Maps the experiment identifiers used throughout the documentation (E1, E2,
...) to what regenerates them.  Every experiment the spec layer can express
carries a declarative :mod:`repro.spec` object — the unit of dispatch,
serialization (``repro spec dump E3``) and caching — and uniform overrides
(path, duration, seed, backend) are applied through the spec's ``with_*``
methods, so there are no per-experiment keyword shims.  The fluid fast-path
variants (``E1F`` ...) are generated from the packet specs via
``spec.with_backend("fluid")``.

The ablation/extension experiments whose shape the spec layer does not
model yet (E7 tuning rules, E8 baselines, E9 fairness) keep a legacy
``runner`` callable with the uniform ``(config=, duration=, seed=)``
keywords.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import Callable

from ..errors import ExperimentError
from ..spec import MultiFlowSpec, SpecBase, execute, parking_lot
from ..workloads.scenarios import PathConfig
from .aqm_gallery import run_aqm_gallery
from .baselines import run_baseline_comparison
from .fairness import run_fairness
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
from .tuning_ablation import run_tuning_ablation

__all__ = ["ExperimentSpec", "EXPERIMENTS", "get_experiment", "all_experiments"]


@dataclass(frozen=True)
class ExperimentSpec:
    """Description of one reproducible experiment.

    Exactly one of ``spec`` (a declarative :mod:`repro.spec` object, for
    spec-expressible experiments) or ``runner`` (a legacy callable taking
    ``config=``/``duration=``/``seed=``) is set.  ``build_result`` folds an
    executed spec's raw result into the experiment's result type (e.g. a
    ``ComparisonResult`` into a ``Figure1Result``).
    """

    experiment_id: str
    paper_artifact: str
    description: str
    benchmark: str
    #: Declarative configuration of the experiment, ``None`` for legacy entries.
    spec: SpecBase | None = None
    #: Folds ``execute(spec)``'s result into the experiment's result type.
    build_result: Callable | None = None
    #: Legacy callable for experiments without a declarative spec (E7..E9).
    runner: Callable | None = None
    #: Experiment id of the packet counterpart for derived (fluid) variants.
    base_id: str | None = None

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.runner is None):
            raise ExperimentError(
                f"experiment {self.experiment_id!r} needs exactly one of "
                "spec= or runner=")

    # ------------------------------------------------------------------
    @property
    def backend_aware(self) -> bool:
        """Whether the entry accepts backend overrides.

        Spec-carrying entries route through ``with_backend``; legacy
        entries are backend-aware when their runner takes a ``backend``
        keyword (e.g. E9's fairness runner, which dispatches its
        ``MultiFlowSpec`` points to either engine).
        """
        if self.spec is not None:
            return self.base_id is None
        return "backend" in inspect.signature(self.runner).parameters

    @property
    def pinned_backend(self) -> str | None:
        """Backend a derived variant is pinned to, ``None`` when selectable."""
        if self.spec is None or self.base_id is None:
            return None
        return self.spec.backend

    # ------------------------------------------------------------------
    def run(
        self,
        *,
        config: PathConfig | None = None,
        duration: float | None = None,
        seed: int | None = None,
        backend: str | None = None,
        max_workers: int | None = None,
        store=None,
        **overrides,
    ):
        """Execute the experiment with uniform overrides applied.

        For spec-carrying entries the overrides go through the spec's
        ``with_*`` methods and extra keywords are rejected; legacy entries
        forward ``config``/``duration``/``seed`` plus any extra keywords to
        their runner and reject backend selection.

        ``store`` (a :class:`repro.campaign.ResultStore`) records the
        executed spec's raw result in the content-addressed cache
        (write-through), so campaign runs and ``repro validate --store``
        sharing the same spec hit it later.  Only spec-carrying entries
        qualify — legacy runners produce results without a cache key.
        """
        if store is not None and self.spec is None:
            raise ExperimentError(
                f"experiment {self.experiment_id} is a legacy runner whose "
                "results carry no spec/cache key; it cannot be recorded in "
                "a result store")
        if self.spec is not None:
            if overrides:
                raise ExperimentError(
                    f"unknown override(s) {sorted(overrides)} for spec-driven "
                    f"experiment {self.experiment_id}")
            if (backend is not None and self.base_id is not None
                    and backend != self.pinned_backend):
                raise ExperimentError(
                    f"experiment {self.experiment_id} is pinned to the "
                    f"{self.pinned_backend} backend; run {self.base_id} instead")
            spec = self.spec
            if config is not None:
                spec = spec.with_config(config)
            if duration is not None:
                spec = spec.with_duration(duration)
            if seed is not None:
                spec = spec.with_seed(seed)
            if backend is not None:
                spec = spec.with_backend(backend)
            # the *raw* spec results are what the cache keys address (the
            # folded build_result view is derived presentation); execute's
            # write-through stores the composite and its atomic components
            result = execute(spec, max_workers=max_workers, store=store)
            if self.build_result:
                folded = self.build_result(result)
                # build_result derives a presentation view; carry the raw
                # result's telemetry sidecar across the fold so --profile
                # works on folded experiments too
                folded.telemetry = getattr(result, "telemetry", None)
                return folded
            return result
        if backend not in (None, "packet") and not self.backend_aware:
            raise ExperimentError(
                f"experiment {self.experiment_id} runs on the packet engine "
                f"only (got backend {backend!r})")
        kwargs = {key: value for key, value in
                  (("config", config), ("duration", duration), ("seed", seed))
                  if value is not None}
        if backend is not None and self.backend_aware:
            kwargs["backend"] = backend
        kwargs.update(overrides)
        if max_workers is not None:
            if "max_workers" not in inspect.signature(self.runner).parameters:
                raise ExperimentError(
                    f"experiment {self.experiment_id}'s runner does not "
                    "accept max_workers")
            kwargs["max_workers"] = max_workers
        return self.runner(**kwargs)


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
        runner=run_tuning_ablation,
    ),
    "E8": ExperimentSpec(
        "E8", "extension",
        "Versus Limited Slow-Start, HyStart, CUBIC and NewReno",
        "benchmarks/bench_baselines.py",
        runner=run_baseline_comparison,
    ),
    "E9": ExperimentSpec(
        "E9", "extension",
        "Multi-flow fairness and utilisation",
        "benchmarks/bench_fairness.py",
        runner=run_fairness,
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
        runner=run_aqm_gallery,
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
    from ..spec import SweepSpec

    fairness = (isinstance(spec, MultiFlowSpec)
                or (isinstance(spec, SweepSpec)
                    and isinstance(spec.base, MultiFlowSpec)))
    return ("benchmarks/bench_fluid_fairness.py" if fairness
            else "benchmarks/bench_fluid_vs_packet.py")


#: Fluid fast-path variants: every fluid-capable spec-carrying experiment
#: derived via ``spec.with_backend("fluid")`` and registered as ``<id>F`` so
#: sweeps can be listed, scripted and regenerated on the fast path
#: (cross-validated against the packet engine by
#: ``benchmarks/bench_fluid_vs_packet.py``).  Packet-only specs (multi-flow
#: scenarios such as E11) get no derived variant.
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
    if entry.spec is not None and _supports_fluid(entry.spec)
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
