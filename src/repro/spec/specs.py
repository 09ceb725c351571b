"""Declarative, serializable run specifications.

One frozen dataclass per kind of experiment run, each fully described by
plain data: a :class:`RunSpec` is *the* unit of dispatch (which engine),
serialization (``to_dict``/``from_dict`` round-trip through JSON), caching
(:meth:`SpecBase.cache_key`) and process fan-out (specs pickle cleanly, so
workers receive exactly one spec instead of ad-hoc kwarg tuples).

The four kinds:

* :class:`RunSpec` — one bulk transfer (algorithm, path, duration, seed,
  transfer size, controller configuration, backend);
* :class:`ComparisonSpec` — the same single-flow workload under several
  algorithms with identical seeds (paired comparison);
* :class:`MultiFlowSpec` — N concurrent flows sharing the bottleneck;
* :class:`SweepSpec` — a :class:`RunSpec` grid varying one (possibly
  dotted) field, e.g. ``"config.ifq_capacity_packets"`` or
  ``"rss_config.setpoint_fraction"``.

Every spec executes through :func:`repro.spec.execute`; none of the classes
here import the engines, so building and serializing specs stays cheap.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import pathlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, ClassVar, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fluid.vector import FlowArrivalSpec
    from .scenario import ScenarioSpec

from ..codec import OMIT_DEFAULT, Tagged, decode, encode, lazy_annotations
from ..core.config import RestrictedSlowStartConfig, default_gains
from ..errors import ExperimentError, UnsupportedScenarioError
from ..tcp.state import LocalCongestionPolicy
from ..workloads.bulk import BulkFlowSpec
from ..workloads.scenarios import PathConfig

__all__ = [
    "SpecBase",
    "RunSpec",
    "ComparisonSpec",
    "MultiFlowSpec",
    "SweepSpec",
    "SPEC_KINDS",
    "BACKENDS",
    "spec_from_dict",
    "spec_from_json",
    "load_spec",
    "dump_spec",
]

#: Maps the ``kind`` discriminator in a spec document to its dataclass.
SPEC_KINDS: dict[str, type["SpecBase"]] = {}

#: The engines a run spec can select: the event-driven packet simulator
#: (ground truth) and the per-RTT fluid model (the fast path).
BACKENDS = ("packet", "fluid")

#: Kinds registered by packages layered *above* repro.spec: importing the
#: named module registers the class (via ``SpecBase.__init_subclass__``),
#: so decoding stays lazy and the spec layer keeps importing nothing heavy.
_LAZY_KINDS = {"campaign": "repro.campaign.spec"}


#: Classes the spec modules import only for type checking, by the module
#: defining them.  Field annotations may name them: the codec imports the
#: module when it first decodes such a value, so decoding a document
#: without ``churn`` never loads the fluid engine.
lazy_annotations(ScenarioSpec="repro.spec.scenario",
                 FlowArrivalSpec="repro.fluid.vector")

_S = TypeVar("_S", bound="SpecBase")


def _adopt_scenario_config(spec: "RunSpec | MultiFlowSpec") -> None:
    """Sync a run-like spec's ``config`` with its scenario's (authoritative).

    A scenario's link rates and queue capacities were derived from *its*
    config, so a diverging spec-level config would silently desynchronise
    the TCP options from the topology.  The default config adopts the
    scenario's; an explicit conflicting one is rejected.
    """
    from .scenario import ScenarioSpec

    if not isinstance(spec.scenario, ScenarioSpec):
        raise ExperimentError(
            f"scenario must be a ScenarioSpec, got {type(spec.scenario).__name__}")
    if spec.config not in (PathConfig(), spec.scenario.config):
        raise ExperimentError(
            "config conflicts with scenario.config; the scenario's config is "
            "authoritative, because its link rates/queues were derived from "
            "it.  Rebuild the scenario with the new path instead: pass "
            "config= to its repro.spec.scenario factory, or on the CLI "
            "regenerate it with the path flags — e.g. 'repro --rtt-ms 40 "
            "scenario dump <name> -o s.json' then 'repro run --scenario "
            "s.json'")
    object.__setattr__(spec, "config", spec.scenario.config)


def _ensure_backend(backend: str) -> None:
    if backend not in BACKENDS:
        raise ExperimentError(
            f"unknown backend {backend!r}; choose "
            + " or ".join(repr(name) for name in BACKENDS))


def _reject_restricted_cc_kwargs(cc_kwargs: dict, algorithms: tuple[str, ...]) -> None:
    """Refuse ``cc_kwargs`` on a run spec that runs restricted slow-start.

    Both engines build a restricted run's controller from ``rss_config``
    alone, so those keyword arguments would be silently ignored.
    """
    if cc_kwargs and "restricted" in algorithms:
        raise ExperimentError(
            f"cc_kwargs {cc_kwargs!r} cannot configure cc='restricted' in a "
            "RunSpec: set rss_config= (a RestrictedSlowStartConfig) instead, "
            "or declare the flow with these cc_kwargs in a MultiFlowSpec's "
            "flows=")


def _reject_unless_fluid_algorithms(backend: str, algorithms: tuple[str, ...]) -> None:
    """Refuse, when a fluid spec is built, algorithms without a fluid
    growth rule: a run's own ``cc``, or every algorithm of a composite."""
    if backend != "fluid":
        return
    unsupported = [algo for algo in algorithms if algo not in _fluid_algorithms()]
    if unsupported:
        raise UnsupportedScenarioError(
            f"the fluid backend has no growth rule for {', '.join(map(repr, unsupported))}; "
            f"supported: {list(_fluid_algorithms())} (use backend='packet')")


@functools.cache
def _fluid_algorithms() -> tuple[str, ...]:
    """Algorithms the fluid engines have a growth rule for.

    Imported on first use, so building specs never loads an engine; cached,
    because campaigns construct thousands of specs.
    """
    from ..fluid.model import FLUID_ALGORITHMS

    return tuple(sorted(FLUID_ALGORITHMS))


def _reject_unless_fluid(scenario: "ScenarioSpec", features: list[str],
                         model: str) -> None:
    """Raise :class:`UnsupportedScenarioError` naming ``features``, if any."""
    if features:
        raise UnsupportedScenarioError(
            f"{model}; scenario {scenario.name!r} declares "
            + "; ".join(features) + " — run it on the packet backend instead")


def _with_config(spec: Any, config: PathConfig) -> Any:
    """``spec`` (a ``RunSpec`` or ``MultiFlowSpec``) on a new path config.

    A canonical dumbbell scenario re-derives its topology from ``config``
    exactly as its factory would, so the uniform path overrides (CLI flags,
    test shrinking) apply cleanly; any other scenario keeps
    :func:`_adopt_scenario_config`'s conflict error.
    """
    scenario = spec.scenario
    if scenario is not None:
        from .scenario import _dumbbell_topology, dumbbell_shape

        shape = dumbbell_shape(scenario)
        if not shape.features:
            scenario = scenario.replace(
                config=config,
                topology=_dumbbell_topology(config, shape.n_pairs))
    return spec.replace(config=config, scenario=scenario)


def _canonicalize_numbers(document: dict | list) -> None:
    """Map integral floats to ints, in place, so equal specs serialise
    identically.  ``document`` must be freshly built (every ``to_dict``
    returns new containers): its dicts and lists are rewritten."""
    items = document.items() if isinstance(document, dict) else enumerate(document)
    for k, v in items:
        if isinstance(v, float):
            if v.is_integer():
                document[k] = int(v)  # type: ignore[index]
        elif isinstance(v, (dict, list)):
            _canonicalize_numbers(v)


def _set_dotted(obj: Any, parameter: str, value: Any, *, root: str) -> Any:
    """Return a copy of a (nested) dataclass with the dotted field replaced.

    Path components are dataclass field names, or integer indices into
    tuple/list fields — so ``"scenario.flows.1.start_time"`` addresses the
    second declared flow of a spec's scenario.  Replacements rebuild the
    frozen dataclasses, so every ``__post_init__`` revalidates.
    """
    head, _, rest = parameter.partition(".")
    if isinstance(obj, (list, tuple)):
        try:
            index = int(head)
        except ValueError:
            raise ExperimentError(
                f"cannot sweep {root!r}: {type(obj).__name__} components are "
                f"addressed by integer index, got {head!r}") from None
        if not (0 <= index < len(obj)):
            raise ExperimentError(
                f"cannot sweep {root!r}: index {index} out of range "
                f"(0..{len(obj) - 1})")
        items = list(obj)
        items[index] = (_set_dotted(items[index], rest, value, root=root)
                        if rest else value)
        return tuple(items) if isinstance(obj, tuple) else items
    names = {f.name for f in dataclasses.fields(obj)}
    if head not in names:
        raise ExperimentError(
            f"{type(obj).__name__} has no field {head!r} (sweeping {root!r}); "
            f"known fields: {sorted(names)}")
    if not rest:
        return dataclasses.replace(obj, **{head: value})
    nested = getattr(obj, head)
    if nested is None or not (dataclasses.is_dataclass(nested)
                              or isinstance(nested, (list, tuple))):
        raise ExperimentError(
            f"cannot sweep {root!r}: field {head!r} is {nested!r}; "
            "set it on the base spec first")
    return dataclasses.replace(obj, **{head: _set_dotted(nested, rest, value, root=root)})


# ---------------------------------------------------------------------------
# base class
# ---------------------------------------------------------------------------

class SpecBase(Tagged):
    """Shared behaviour of the declarative spec dataclasses.

    Subclasses are frozen dataclasses with a ``kind`` class attribute that
    tags their documents and registers them in :data:`SPEC_KINDS` (the
    ``from_dict`` dispatch table).
    """

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if cls.kind:
            SPEC_KINDS[cls.kind] = cls

    @classmethod
    def example(cls) -> "SpecBase":
        """A minimal valid instance of this spec kind.

        The reflection-based spec auditor (``repro lint --specs``) builds
        one instance per registered kind to verify the serialization and
        cache-key contracts.  The default works for kinds whose field
        defaults construct; kinds with required content (flows, units)
        override this with a minimal example.
        """
        return cls()

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data document (JSON-serialisable, ``kind``-tagged), as
        :func:`repro.codec.encode` writes it."""
        document: dict = encode(self)
        return document

    @classmethod
    def from_dict(cls: type[_S], data: dict) -> _S:
        """Rebuild a spec from its ``to_dict`` document.

        :func:`repro.codec.decode` serves every kind: each field's
        annotation says how its value decodes, and a union of spec kinds is
        picked by the ``kind`` tag, untagged documents taking the first.
        An absent field takes its default; an unknown field, or a ``null``
        where the default is neither ``None`` nor a built container/config,
        raises :class:`~repro.errors.DocumentError`.
        """
        return decode(cls, data)

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def cache_key(self) -> str:
        """Stable content hash — the key for spec-keyed result caching.

        Equal specs hash equally: integral floats are canonicalised to
        ints first, so ``RunSpec(duration=2)`` and ``RunSpec(duration=2.0)``
        (which compare equal) share one key.

        Computed once per instance: a spec is a frozen value object, and
        every derived spec (``replace``, ``with_*``, ``from_dict``) is a new
        instance with its own key.  The stored digest lives outside the
        dataclass fields, so ``==``, ``hash``, ``repr`` and ``to_dict``
        never see it.
        """
        key: str | None = self.__dict__.get("_cache_key")
        if key is None:
            document = self.to_dict()
            _canonicalize_numbers(document)
            canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
            key = hashlib.sha256(canonical.encode()).hexdigest()
            object.__setattr__(self, "_cache_key", key)
        return key

    # -- uniform overrides ----------------------------------------------
    def replace(self, **changes: object) -> "SpecBase":
        """Return a copy with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    @property
    def path_config(self) -> PathConfig:
        raise NotImplementedError

    @property
    def backend(self) -> str:
        raise NotImplementedError

    def with_backend(self, backend: str) -> "SpecBase":
        raise NotImplementedError

    def with_config(self, config: PathConfig) -> "SpecBase":
        raise NotImplementedError

    def with_duration(self, duration: float) -> "SpecBase":
        raise NotImplementedError

    def with_seed(self, seed: int) -> "SpecBase":
        raise NotImplementedError


# ---------------------------------------------------------------------------
# RunSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSpec(SpecBase):
    """One bulk transfer — the atomic, backend-dispatchable unit of work.

    Attributes
    ----------
    cc:
        Congestion-control registry name ("reno", "restricted", ...).
    config:
        Path parameters; defaults to the paper's ANL–LBNL path.
    duration:
        Simulated seconds (the paper's Figure 1 covers 25 s).
    seed:
        Master seed for the simulator's random streams.
    total_bytes:
        Finite transfer size, or ``None`` for a duration-filling transfer.
    cc_kwargs:
        Extra keyword arguments for the algorithm factory.  Refused with
        ``cc="restricted"``, whose controller ``rss_config`` configures.
    rss_config:
        Explicit controller configuration for ``cc="restricted"``.
    local_congestion_policy:
        Override of the stack's send-stall reaction (accepts the enum or
        its string value, e.g. ``"ignore"``).
    trace_interval:
        Sampling period of the IFQ / cwnd / goodput traces; ``None`` picks
        the backend's native resolution (0.05 s on the packet engine, one
        sample per round trip on the fluid engine).
    run_past_duration_until_complete:
        With a finite ``total_bytes``, keep simulating (up to 10× duration)
        until the transfer completes.
    backend:
        Engine name, one of :data:`BACKENDS`; validated eagerly so an
        unknown backend fails before any simulation work.
    scenario:
        Optional :class:`~repro.spec.scenario.ScenarioSpec` declaring the
        topology and background workload; ``None`` (the default, and what
        old JSON documents decode to) runs on ``dumbbell(config, 1)``, the
        paper's single-flow testbed (see :meth:`resolved_scenario`).  The
        scenario's first declared flow *places* the measured transfer
        (src/dst/start/port) while this spec's ``cc``/``total_bytes``/
        ``rss_config`` select the algorithm — so ``ComparisonSpec``/sweeps
        can still vary ``cc`` across any scenario; flows after the first
        (and any cross traffic) run as declared.  Fluid-incompatible
        scenarios and algorithms are rejected eagerly with
        :class:`~repro.errors.UnsupportedScenarioError`.
    """

    kind: ClassVar[str] = "run"

    cc: str = "reno"
    config: PathConfig = field(default_factory=PathConfig)
    duration: float = 25.0
    seed: int = 1
    total_bytes: int | None = None
    cc_kwargs: dict = field(default_factory=dict)
    rss_config: RestrictedSlowStartConfig | None = None
    local_congestion_policy: LocalCongestionPolicy | None = None
    trace_interval: float | None = None
    run_past_duration_until_complete: bool = False
    backend: str = "packet"
    scenario: "ScenarioSpec | None" = None

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ExperimentError("duration must be positive")
        if isinstance(self.local_congestion_policy, str):
            object.__setattr__(self, "local_congestion_policy",
                               LocalCongestionPolicy(self.local_congestion_policy))
        _ensure_backend(self.backend)
        _reject_restricted_cc_kwargs(self.cc_kwargs, (self.cc,))
        if self.scenario is not None:
            _adopt_scenario_config(self)
        if self.backend == "fluid":
            self._ensure_fluid_eligible()

    def _ensure_fluid_eligible(self) -> None:
        """Eager checks for the single-flow fluid model.

        The algorithm check is a lookup: campaigns build many specs and run
        few, so construction never builds the default scenario.
        """
        _reject_unless_fluid_algorithms(self.backend, (self.cc,))
        if self.scenario is not None:
            from .scenario import fluid_unsupported_features

            _reject_unless_fluid(
                self.scenario, fluid_unsupported_features(self.scenario),
                "the fluid backend models only the canonical single-flow "
                "dumbbell")

    def resolved_scenario(self) -> "ScenarioSpec":
        """The scenario this run places its transfer on.

        The declared ``scenario``, or the paper's single-flow dumbbell on
        ``config`` when there is none.  Every engine reads the placement of
        the measured flow from here.
        """
        if self.scenario is not None:
            return self.scenario
        from .scenario import dumbbell

        return dumbbell(self.config, 1)

    # -- overrides -------------------------------------------------------
    @property
    def path_config(self) -> PathConfig:
        return self.config

    def with_backend(self, backend: str) -> "RunSpec":
        return self.replace(backend=backend)

    def with_config(self, config: PathConfig) -> "RunSpec":
        return _with_config(self, config)

    def with_duration(self, duration: float) -> "RunSpec":
        return self.replace(duration=duration)

    def with_seed(self, seed: int) -> "RunSpec":
        return self.replace(seed=seed)

    def varied(self, parameter: str, value: Any) -> "RunSpec":
        """Copy with the (possibly dotted) ``parameter`` set to ``value``.

        ``parameter`` names a :class:`RunSpec` field (``"total_bytes"``) or
        a nested config field (``"config.rtt"``,
        ``"rss_config.setpoint_fraction"``).  Nested targets must exist on
        the base spec; replacements revalidate through ``__post_init__``.
        """
        return _set_dotted(self, parameter, value, root=parameter)


# ---------------------------------------------------------------------------
# ComparisonSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonSpec(SpecBase):
    """The same single-flow workload under several algorithms (paired seeds)."""

    kind: ClassVar[str] = "comparison"

    base: RunSpec = field(default_factory=RunSpec)
    algorithms: tuple[str, ...] = ("reno", "restricted")
    baseline: str = "reno"

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if not self.algorithms:
            raise ExperimentError("at least one algorithm is required")
        if self.baseline not in self.algorithms:
            raise ExperimentError(
                f"baseline {self.baseline!r} must be one of {list(self.algorithms)}")
        _reject_restricted_cc_kwargs(self.base.cc_kwargs, self.algorithms)
        _reject_unless_fluid_algorithms(self.base.backend, self.algorithms)

    def run_specs(self) -> dict[str, RunSpec]:
        """The per-algorithm :class:`RunSpec` derivations, in tuple order."""
        return {cc: self.base.replace(cc=cc) for cc in self.algorithms}

    # -- overrides -------------------------------------------------------
    @property
    def path_config(self) -> PathConfig:
        return self.base.config

    @property
    def backend(self) -> str:
        return self.base.backend

    def with_backend(self, backend: str) -> "ComparisonSpec":
        return self.replace(base=self.base.with_backend(backend))

    def with_config(self, config: PathConfig) -> "ComparisonSpec":
        return self.replace(base=self.base.with_config(config))

    def with_duration(self, duration: float) -> "ComparisonSpec":
        return self.replace(base=self.base.with_duration(duration))

    def with_seed(self, seed: int) -> "ComparisonSpec":
        return self.replace(base=self.base.with_seed(seed))


# ---------------------------------------------------------------------------
# MultiFlowSpec
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MultiFlowSpec(SpecBase):
    """N concurrent bulk flows over one bottleneck (fairness experiments).

    The dumbbell form (``flows=``) puts flow ``i`` on sender/receiver pair
    ``i`` (or its ``path_index``), or all flows on the first pair so they
    also share the sending host's IFQ (``shared_paths=True``).  Every
    engine runs it as the scenario
    :func:`~repro.spec.scenario.from_bulk_flows` converts it to (see
    :meth:`resolved_scenario`); the form stays because its fields are part
    of the cache key.

    Alternatively ``scenario`` names an explicit
    :class:`~repro.spec.scenario.ScenarioSpec`, whose topology, flows and
    cross traffic are authoritative: ``flows`` must then be empty and
    ``shared_paths`` unset (express path sharing in the scenario's
    topology, e.g. via :func:`repro.spec.scenario.shared_path`).

    ``backend`` selects the engine: ``"packet"`` (event-driven ground
    truth) or ``"fluid"`` (the N-flow coupled per-RTT model — the fairness
    fast path).  Fluid eligibility is validated eagerly: flow mixes on the
    canonical N-pair dumbbell, N read from its topology (including
    ``shared_path`` sharing, idle pairs, staggered starts, per-flow
    durations), are accepted, anything else raises
    :class:`~repro.errors.UnsupportedScenarioError` naming the feature.

    ``churn`` (a :class:`~repro.fluid.vector.FlowArrivalSpec`) adds an
    open-loop flow population on top of the declared flows: Poisson
    arrivals with drawn sizes, sampled deterministically from ``seed`` and
    spread round-robin over the dumbbell pairs.  Churn is modelled only by
    the fluid backend's vectorized population engine, so it requires
    ``backend="fluid"``.
    """

    kind: ClassVar[str] = "multi_flow"

    flows: tuple[BulkFlowSpec, ...] = ()
    config: PathConfig = field(default_factory=PathConfig)
    duration: float = 25.0
    seed: int = 1
    shared_paths: bool = False
    scenario: "ScenarioSpec | None" = None
    backend: str = "packet"
    # omitted when absent, so pre-churn documents — and their cache keys,
    # which address every stored result — are unchanged
    churn: "FlowArrivalSpec | None" = field(default=None, metadata=OMIT_DEFAULT)

    def __post_init__(self) -> None:
        object.__setattr__(self, "flows", tuple(self.flows))
        if self.scenario is not None:
            if self.flows:
                raise ExperimentError(
                    "give either flows= (legacy dumbbell) or scenario=, not "
                    "both; the scenario's flow declarations are authoritative")
            if self.shared_paths:
                raise ExperimentError(
                    "shared_paths is the legacy dumbbell knob; express path "
                    "sharing in the scenario topology instead (see "
                    "repro.spec.scenario.shared_path)")
            _adopt_scenario_config(self)
        elif not self.flows:
            raise ExperimentError("at least one flow spec is required")
        if self.duration <= 0:
            raise ExperimentError("duration must be positive")
        _ensure_backend(self.backend)
        if self.churn is not None:
            self._ensure_churn_eligible()
        # converting here also rejects an out-of-range path_index when the
        # spec is built, whatever the backend
        scenario = self.resolved_scenario()
        if self.backend == "fluid":
            from .scenario import fluid_multiflow_unsupported_features

            _reject_unless_fluid(
                scenario, fluid_multiflow_unsupported_features(scenario),
                "the multi-flow fluid backend models only flow mixes on the "
                "canonical N-pair dumbbell")

    def _ensure_churn_eligible(self) -> None:
        """Eager checks for an open-loop churn population."""
        from ..fluid.vector import FlowArrivalSpec

        if not isinstance(self.churn, FlowArrivalSpec):
            raise ExperimentError(
                f"churn must be a FlowArrivalSpec, got "
                f"{type(self.churn).__name__}")
        if self.backend != "fluid":
            raise UnsupportedScenarioError(
                "open-loop flow churn (FlowArrivalSpec) is modelled only by "
                "the fluid backend's population engine; set backend='fluid' "
                "(the packet engine has no churn workload)")

    @classmethod
    def example(cls) -> "MultiFlowSpec":
        """Minimal valid instance for the spec auditor (needs >= 1 flow)."""
        return cls(flows=(BulkFlowSpec(),))

    def resolved_scenario(self) -> "ScenarioSpec":
        """The scenario this run executes, on every engine.

        The declared ``scenario``, or the ``flows=``/``shared_paths=`` form
        converted through :func:`~repro.spec.scenario.from_bulk_flows`
        (which honours each flow's ``path_index`` and ``cc_kwargs``).
        """
        if self.scenario is not None:
            return self.scenario
        from .scenario import from_bulk_flows

        return from_bulk_flows(self.flows, self.config, self.shared_paths)

    # -- overrides -------------------------------------------------------
    @property
    def path_config(self) -> PathConfig:
        return self.config

    def with_backend(self, backend: str) -> "MultiFlowSpec":
        return self.replace(backend=backend)

    def with_config(self, config: PathConfig) -> "MultiFlowSpec":
        return _with_config(self, config)

    def with_duration(self, duration: float) -> "MultiFlowSpec":
        return self.replace(duration=duration)

    def with_seed(self, seed: int) -> "MultiFlowSpec":
        return self.replace(seed=seed)

    def varied(self, parameter: str, value: Any) -> "MultiFlowSpec":
        """Copy with the (possibly dotted) ``parameter`` set to ``value``.

        Alongside flat fields (``"duration"``) and nested configs
        (``"config.rtt"``), sequence components are addressed by integer
        index — ``"scenario.flows.1.start_time"`` staggers the second
        declared flow, ``"flows.0.total_bytes"`` resizes the first legacy
        flow.  Replacements revalidate through ``__post_init__``.
        """
        return _set_dotted(self, parameter, value, root=parameter)



# ---------------------------------------------------------------------------
# SweepSpec
# ---------------------------------------------------------------------------

#: Row layouts an executed sweep can report (see ``execute_sweep_spec``):
#: ``comparison`` pairs goodput/stall/retransmission columns per algorithm,
#: ``single`` adds the IFQ peak/drop columns of a one-algorithm sweep,
#: ``completion`` reports completion times plus the reno/restricted speedup,
#: and ``fairness`` (multi-flow base) reports aggregate goodput, Jain index
#: and per-algorithm goodput shares at every grid point.
ROW_STYLES = ("comparison", "single", "completion", "fairness")


@dataclass(frozen=True)
class SweepSpec(SpecBase):
    """A grid of :class:`RunSpec` derivations varying one named field.

    Attributes
    ----------
    name:
        Sweep identifier carried into the resulting ``SweepResult``.
    parameter:
        Dotted field path varied across the grid, e.g.
        ``"config.ifq_capacity_packets"`` or ``"rss_config.setpoint_fraction"``.
        Sequence components are addressed by integer index, so grids can
        target declared scenario fields: ``"scenario.flows.1.start_time"``
        staggers the second flow across the grid.
    values:
        Reported per-point values (the sweep table's parameter column).
    base:
        Template every grid point derives from (carries path, duration,
        seed and backend).  A :class:`RunSpec` for the single-flow row
        styles; a :class:`MultiFlowSpec` for ``row_style="fairness"``,
        whose scenario declares the algorithms itself.
    algorithms:
        Algorithms compared at every point (ignored by ``"fairness"``,
        where the multi-flow base declares the mix).
    field_values:
        Actual values written into the varied field when they differ from
        the reported ``values`` (e.g. Mbit/s reported, bit/s applied);
        ``None`` applies ``values`` verbatim.
    parameter_label:
        Row key for the parameter column; defaults to the last component
        of ``parameter``.
    row_style:
        One of :data:`ROW_STYLES`.
    retune_rss:
        Re-derive the restricted controller's gains from each point's
        ``config.rtt`` (the tuning procedure scales with the feedback
        delay), preserving every other ``rss_config`` field.
    """

    kind: ClassVar[str] = "sweep"

    name: str = "sweep"
    parameter: str = "config.ifq_capacity_packets"
    values: tuple = ()
    base: "RunSpec | MultiFlowSpec" = field(default_factory=RunSpec)
    algorithms: tuple[str, ...] = ("reno", "restricted")
    field_values: tuple | None = None
    parameter_label: str | None = None
    row_style: str = "comparison"
    retune_rss: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        if self.field_values is not None:
            object.__setattr__(self, "field_values", tuple(self.field_values))
            if len(self.field_values) != len(self.values):
                raise ExperimentError("field_values must match values one-to-one")
        if not self.parameter:
            raise ExperimentError("parameter must name a spec field")
        if self.row_style not in ROW_STYLES:
            raise ExperimentError(
                f"unknown row_style {self.row_style!r}; choose one of {ROW_STYLES}")
        if isinstance(self.base, MultiFlowSpec) != (self.row_style == "fairness"):
            raise ExperimentError(
                "row_style 'fairness' and a MultiFlowSpec base go together: "
                "multi-flow grids report Jain/aggregate rows, single-flow "
                f"grids take a RunSpec base (got {type(self.base).__name__} "
                f"with row_style {self.row_style!r})")
        if self.row_style == "fairness":
            return  # the multi-flow base declares the algorithm mix itself
        if not self.algorithms:
            raise ExperimentError("at least one algorithm is required")
        _reject_restricted_cc_kwargs(self.base.cc_kwargs, self.algorithms)
        _reject_unless_fluid_algorithms(self.base.backend, self.algorithms)
        if self.row_style == "single" and len(self.algorithms) != 1:
            # its unprefixed ifq_peak/ifq_drops columns cannot attribute
            # more than one algorithm
            raise ExperimentError(
                "row_style 'single' requires exactly one algorithm "
                f"(got {list(self.algorithms)})")

    @property
    def row_key(self) -> str:
        """Key of the parameter column in the sweep's rows."""
        return self.parameter_label or self.parameter.rsplit(".", 1)[-1]

    def point_specs(self) -> list[tuple[Any, dict[str, "RunSpec | MultiFlowSpec"]]]:
        """Per grid point: ``(reported value, {algorithm: RunSpec})``.

        ``row_style="fairness"`` grids derive one :class:`MultiFlowSpec`
        per point (the scenario's declared mix is the "algorithm"), keyed
        by the fixed label ``"flows"``.
        """
        points: list[tuple[Any, dict[str, RunSpec | MultiFlowSpec]]] = []
        applied = self.field_values if self.field_values is not None else self.values
        for value, applied_value in zip(self.values, applied):
            if self.row_style == "fairness":
                points.append(
                    (value, {"flows": self.base.varied(self.parameter, applied_value)}))
                continue
            by_algo: dict[str, RunSpec | MultiFlowSpec] = {}
            for algo in self.algorithms:
                spec = self.base.varied(self.parameter, applied_value).replace(cc=algo)
                if self.retune_rss and algo == "restricted":
                    rss = (spec.rss_config if spec.rss_config is not None
                           else RestrictedSlowStartConfig())
                    spec = spec.replace(rss_config=rss.replace(
                        gains=default_gains(rtt=spec.config.rtt)))
                by_algo[algo] = spec
            points.append((value, by_algo))
        return points

    # -- overrides -------------------------------------------------------
    @property
    def path_config(self) -> PathConfig:
        return self.base.config

    @property
    def backend(self) -> str:
        return self.base.backend

    def with_backend(self, backend: str) -> "SweepSpec":
        return self.replace(base=self.base.with_backend(backend))

    def with_config(self, config: PathConfig) -> "SweepSpec":
        return self.replace(base=self.base.with_config(config))

    def with_duration(self, duration: float) -> "SweepSpec":
        return self.replace(base=self.base.with_duration(duration))

    def with_seed(self, seed: int) -> "SweepSpec":
        return self.replace(base=self.base.with_seed(seed))


# ---------------------------------------------------------------------------
# document-level helpers
# ---------------------------------------------------------------------------

def spec_from_dict(data: Any) -> SpecBase:
    """Rebuild a spec from its ``to_dict`` document (dispatch on ``kind``)."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ExperimentError(
            "a spec document must be a JSON object with a 'kind' entry")
    kind = data["kind"]
    if kind not in SPEC_KINDS and kind in _LAZY_KINDS:
        importlib.import_module(_LAZY_KINDS[kind])
    try:
        cls = SPEC_KINDS[kind]
    except KeyError:
        raise ExperimentError(
            f"unknown spec kind {kind!r}; known kinds: "
            f"{sorted(set(SPEC_KINDS) | set(_LAZY_KINDS))}"
        ) from None
    return cls.from_dict(data)


def spec_from_json(text: str) -> SpecBase:
    """Rebuild a spec from its JSON text."""
    try:
        return spec_from_dict(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"corrupt spec document: {exc}") from exc


def load_spec(path: str | pathlib.Path) -> SpecBase:
    """Load a spec from a JSON file.

    Accepts both a bare spec document (``repro spec dump``) and a saved
    result document (``repro run -o``), whose embedded ``"spec"`` entry is
    the run's provenance.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ExperimentError(f"no spec file at {path}")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"corrupt spec file {path}: {exc}") from exc
    if isinstance(document, dict) and "payload" in document:
        document = document.get("spec")
        if document is None:
            raise ExperimentError(
                f"{path} is a saved result without an embedded spec")
    return spec_from_dict(document)


def dump_spec(spec: SpecBase, path: str | pathlib.Path) -> pathlib.Path:
    """Write a spec's JSON document to ``path``.  Returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(spec.to_json() + "\n")
    return path
