"""Declarative campaign spec — a named batch of cacheable experiment work.

A :class:`CampaignSpec` is a frozen, JSON-round-trippable spec in the
:mod:`repro.spec` registry style (``kind="campaign"``) that names three
kinds of work:

* ``units`` — explicit unit specs (:class:`~repro.spec.RunSpec`,
  :class:`~repro.spec.ComparisonSpec`, :class:`~repro.spec.MultiFlowSpec`);
* ``experiments`` — registry experiment ids (``"E3"``, ``"E2F"``, ...),
  resolved to their declarative specs (unknown ids are rejected eagerly);
  an experiment whose spec is itself a campaign (E7, E9, E13) contributes
  its units;
* ``sweeps`` — :class:`~repro.spec.SweepSpec` grids.

:meth:`CampaignSpec.expand` flattens everything to *atomic* units — one
``RunSpec``/``MultiFlowSpec`` per point and algorithm — so caching and
process fan-out happen at point granularity: re-running a campaign after
editing one sweep value recomputes exactly the new points, and two
campaigns sharing grid points share their cached results.
``execute(campaign)`` runs every unit; the ``with_*`` overrides apply to
every unit and sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from ..errors import ExperimentError
from ..spec import ComparisonSpec, MultiFlowSpec, RunSpec, SpecBase, SweepSpec
from ..workloads.scenarios import PathConfig

__all__ = ["CampaignSpec", "CampaignUnit"]

#: Spec kinds allowed in ``CampaignSpec.units`` (sweeps go in ``sweeps=``).
_UNIT_KINDS = (RunSpec, ComparisonSpec, MultiFlowSpec)

#: Spec kinds an expanded (atomic) unit can be.
_ATOMIC_KINDS = (RunSpec, MultiFlowSpec)


@dataclass(frozen=True)
class CampaignUnit:
    """One atomic, independently cacheable piece of campaign work."""

    label: str
    spec: "RunSpec | MultiFlowSpec"

    @property
    def cache_key(self) -> str:
        return self.spec.cache_key()


@dataclass(frozen=True)
class CampaignSpec(SpecBase):
    """A named, serializable batch of experiment work (see module docstring).

    Attributes
    ----------
    name:
        Campaign identifier carried into manifests and artifact names.
    units:
        Explicit unit specs; comparisons flatten to one run per algorithm.
    experiments:
        Registry ids resolved through :func:`repro.experiments.get_experiment`;
        unknown ids are rejected at construction time.
    sweeps:
        Sweep grids, flattened to one atomic spec per (point, algorithm).
    """

    kind: ClassVar[str] = "campaign"

    name: str = "campaign"
    units: tuple[RunSpec | ComparisonSpec | MultiFlowSpec, ...] = ()
    experiments: tuple[str, ...] = ()
    sweeps: tuple[SweepSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "units", tuple(self.units))
        object.__setattr__(self, "experiments", tuple(self.experiments))
        object.__setattr__(self, "sweeps", tuple(self.sweeps))
        if not (self.units or self.experiments or self.sweeps):
            raise ExperimentError(
                "an empty campaign does nothing: give units=, experiments= "
                "(registry ids) and/or sweeps=")
        for unit in self.units:
            if isinstance(unit, SweepSpec):
                raise ExperimentError(
                    f"sweep {unit.name!r} belongs in sweeps=, not units=")
            if not isinstance(unit, _UNIT_KINDS):
                raise ExperimentError(
                    f"campaign units must be one of "
                    f"{sorted(c.kind for c in _UNIT_KINDS)} specs, got "
                    f"{type(unit).__name__}")
        for sweep in self.sweeps:
            if not isinstance(sweep, SweepSpec):
                raise ExperimentError(
                    f"campaign sweeps must be SweepSpec, got "
                    f"{type(sweep).__name__}")
        for experiment_id in self.experiments:
            self._resolve(experiment_id)  # eager: unknown ids fail here

    @classmethod
    def example(cls) -> "CampaignSpec":
        """Minimal valid instance for the spec auditor (needs some work)."""
        return cls(units=(RunSpec(),))

    @staticmethod
    def _resolve(experiment_id: str) -> SpecBase:
        from ..experiments.registry import get_experiment

        return get_experiment(experiment_id).spec

    # ------------------------------------------------------------------
    def expand(self) -> list[CampaignUnit]:
        """Flatten to atomic units (one spec per point and algorithm).

        Duplicate cache keys are *not* removed here — the executor dedups
        so the manifest can report how much work the flattening shared.
        """
        out: list[CampaignUnit] = []
        for i, unit in enumerate(self.units):
            out.extend(_flatten(f"unit{i}", unit))
        for experiment_id in self.experiments:
            out.extend(_flatten(experiment_id.upper(),
                                self._resolve(experiment_id)))
        for sweep in self.sweeps:
            out.extend(_flatten(sweep.name, sweep))
        return out

    # -- overrides -------------------------------------------------------
    @property
    def path_config(self) -> PathConfig:
        """The path of the first unit (registry campaigns share one path)."""
        return self.expand()[0].spec.config

    @property
    def backend(self) -> str:
        """The backend of the first unit (registry campaigns share one)."""
        return self.expand()[0].spec.backend

    def _with(self, method: str, value: object) -> "CampaignSpec":
        if self.experiments:
            raise ExperimentError(
                f"campaign {self.name!r} names registry experiments "
                f"{list(self.experiments)}, whose specs are fixed; list their "
                f"specs as units or sweeps to apply {method}")
        return self.replace(
            units=tuple(getattr(unit, method)(value) for unit in self.units),
            sweeps=tuple(getattr(sweep, method)(value) for sweep in self.sweeps))

    def with_backend(self, backend: str) -> "CampaignSpec":
        return self._with("with_backend", backend)

    def with_config(self, config: PathConfig) -> "CampaignSpec":
        return self._with("with_config", config)

    def with_duration(self, duration: float) -> "CampaignSpec":
        return self._with("with_duration", duration)

    def with_seed(self, seed: int) -> "CampaignSpec":
        return self._with("with_seed", seed)


def _flatten(label: str, spec: SpecBase) -> list[CampaignUnit]:
    """Atomic units of one campaign member, labelled for the manifest."""
    if isinstance(spec, _ATOMIC_KINDS):
        return [CampaignUnit(label=label, spec=spec)]
    if isinstance(spec, CampaignSpec):
        return [CampaignUnit(label=f"{label}/{unit.label}", spec=unit.spec)
                for unit in spec.expand()]
    if isinstance(spec, ComparisonSpec):
        return [CampaignUnit(label=f"{label}/{cc}", spec=run_spec)
                for cc, run_spec in spec.run_specs().items()]
    if isinstance(spec, SweepSpec):
        out = []
        for value, by_algo in spec.point_specs():
            for algo, point_spec in by_algo.items():
                out.append(CampaignUnit(
                    label=f"{label}[{spec.row_key}={value}]/{algo}",
                    spec=point_spec))
        return out
    raise ExperimentError(
        f"cannot flatten a {type(spec).__name__} into campaign units")
