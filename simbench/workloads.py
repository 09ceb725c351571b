"""The six reference workloads and the checks on their outputs.

Each workload builds its specs from the seed during set-up, runs one timed
pass through the public API (:func:`repro.spec.execute` or
:func:`repro.campaign.run_campaign`, always serial), and turns the pass's
output into :class:`Unit` rows: one result document per atomic run, with
the failures its checks found.  Why each workload exists is recorded in
``BENCHMARK.json`` and ``simbench/README.md``.

Sizes are constructor fields so tests can run every workload tiny; the
defaults are the benchmark's.  A pass takes 0.35-2.4 s on a 2-core host
in its fast state (``simbench/README.md``, Host noise).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, ClassVar

from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.experiments.aqm_gallery import GALLERY_DISCIPLINES, aqm_gallery_spec
from repro.experiments.registry import get_experiment
from repro.experiments.results_io import result_document
from repro.experiments.sweeps import fairness_sweep_spec
from repro.fluid import FlowArrivalSpec
from repro.spec import ComparisonSpec, MultiFlowSpec, RunSpec, SweepSpec, dumbbell, execute
from repro.testing import SMALL_PATH
from repro.workloads.scenarios import PathConfig

#: Exact work counts a pass reports.  At a fixed seed they are part of the
#: determinism fingerprint: a change that only makes the code faster must
#: leave every one of them, and the document digest, unchanged.
COUNTS = (
    "units",
    "sim.events",
    "sim.events_scheduled",
    "net.packets_forwarded",
    "net.drops",
    "net.marks",
    "host.send_stalls",
    "tcp.rto_fires",
    "fluid.steps",
    "metrics.flows_folded",
    "campaign.hits",
    "campaign.misses",
)


@dataclass
class Unit:
    """One atomic result of a pass and what its checks found."""

    name: str
    #: The result document (``result_document``) without its telemetry.
    document: dict
    #: The document's telemetry sidecar when this pass computed the unit;
    #: ``None`` when it was served from a result store.
    telemetry: dict | None
    failures: list[str] = field(default_factory=list)
    #: ``"run"`` (executed directly), ``"computed"`` or ``"hit"`` (campaign).
    status: str = "run"
    bytes_written: int = 0


def check_document(document: dict) -> list[str]:
    """Invariants every result must meet, whatever the seed.

    Delivered payload bits over the horizon cannot exceed the bottleneck
    rate.  Multi-flow runs are read from ``summary.total_bytes_acked``, not
    ``aggregate_goodput_bps``: the latter sums per-flow rates measured over
    each flow's own lifetime, and exceeds the link rate under churn.
    """
    payload = document["payload"]
    rate = payload["config"]["bottleneck_rate_bps"]
    failures = []
    if document["kind"] == "multi_flow":
        summary = payload.get("summary") or {}
        if not summary.get("n_flows"):
            failures.append("summary.n_flows is 0")
        delivered = summary.get("total_bytes_acked", 0)
        horizon = summary.get("horizon") or payload["duration"]
    else:
        delivered = payload["flow"]["bytes_acked"]
        horizon = payload["duration"]
    if not horizon > 0:
        failures.append(f"horizon {horizon!r} is not positive")
    elif delivered * 8 / horizon > rate:
        failures.append(f"delivered {delivered * 8 / horizon / 1e6:.3f} Mbit/s "
                        f"through a {rate / 1e6:.3f} Mbit/s bottleneck")
    return failures


def executed_unit(name: str, result: Any) -> Unit:
    """A unit for a result this pass computed with :func:`execute`."""
    document = result_document(result)
    telemetry = document.pop("telemetry", None)
    return Unit(name, document, telemetry, check_document(document))


def fingerprint(units: list[Unit]) -> tuple[str, dict[str, int]]:
    """sha256 over the unit documents, and the pass's exact work counts.

    Counts cover the work this pass did: units served from a store add to
    ``campaign.hits`` and nothing else.
    """
    counts = dict.fromkeys(COUNTS, 0)
    digests: dict[int, str] = {}
    lines = []
    for unit in units:
        key = id(unit.document)
        if key not in digests:
            text = json.dumps(unit.document, sort_keys=True)
            digests[key] = hashlib.sha256(text.encode()).hexdigest()
        lines.append(f"{unit.name} {digests[key]}")
        counts["units"] += 1
        if unit.status == "hit":
            counts["campaign.hits"] += 1
            continue
        if unit.status == "computed":
            counts["campaign.misses"] += 1
        counters = (unit.telemetry or {}).get("counters", {})
        steps = int(counters.get("fluid_steps", 0))
        counts["sim.events"] += int(counters.get("events", 0)) - steps
        counts["sim.events_scheduled"] += int(counters.get("events_scheduled", 0))
        counts["net.packets_forwarded"] += int(counters.get("packets_forwarded", 0))
        counts["host.send_stalls"] += int(counters.get("send_stalls", 0))
        counts["tcp.rto_fires"] += int(counters.get("rto_timer_fires", 0))
        counts["fluid.steps"] += steps
        payload = unit.document["payload"]
        counts["net.drops"] += int(payload.get("bottleneck_drops", 0))
        counts["net.marks"] += int(payload.get("bottleneck_marks", 0))
        counts["metrics.flows_folded"] += int((payload.get("summary") or {}).get("n_flows", 0))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return digest, counts


def measured(units: list[Unit]) -> dict[str, float]:
    """What varies between passes at one seed: telemetry phase spans, and
    the bytes stored, since each stored document carries its timings."""
    out = {"compile_s": 0.0, "simulate_s": 0.0, "campaign.bytes_written": 0}
    for unit in units:
        spans = (unit.telemetry or {}).get("spans", {})
        out["compile_s"] += spans.get("compile", 0.0)
        out["simulate_s"] += spans.get("simulate", 0.0)
        out["campaign.bytes_written"] += unit.bytes_written
    return out


class Workload:
    """Set-up, one timed pass, and the units that pass produced."""

    name: ClassVar[str]

    def setup(self, seed: int, workdir: Path) -> None:
        """Build the specs (and open stores); counted in ``setup_s``."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Untimed work between set-up and the pass (a store prefill)."""

    def run(self) -> Any:
        """The timed pass; returns what :meth:`units` reads."""
        raise NotImplementedError

    def units(self, output: Any) -> list[Unit]:
        """Result documents and check failures of one pass (untimed)."""
        raise NotImplementedError


@dataclass
class PacketSingle(Workload):
    """Reno vs restricted slow-start on the small path (Figure 1 regime)."""

    name: ClassVar[str] = "packet_single"
    duration: float = 6.0

    def setup(self, seed: int, workdir: Path) -> None:
        self.spec = ComparisonSpec(
            base=RunSpec(config=SMALL_PATH, duration=self.duration, seed=seed),
            algorithms=("reno", "restricted"))

    def run(self) -> Any:
        return execute(self.spec, max_workers=0)

    def units(self, output: Any) -> list[Unit]:
        units = []
        for cc, run in output.runs.items():
            unit = executed_unit(cc, run)
            stalls = run.flow.send_stalls
            if cc == "restricted" and stalls != 0:
                unit.failures.append(f"restricted slow-start stalled {stalls} times")
            if cc == "reno" and stalls == 0:
                unit.failures.append("reno never stalled: the IFQ was not overrun")
            units.append(unit)
        return units


@dataclass
class PacketFairness(Workload):
    """E12 on the small path: 2 reno flows, the second one's start swept."""

    name: ClassVar[str] = "packet_fairness"
    duration: float = 4.0
    start_times: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0, 3.0)

    def setup(self, seed: int, workdir: Path) -> None:
        sweep = fairness_sweep_spec(start_times=self.start_times, duration=self.duration,
                                    seed=seed, base_config=SMALL_PATH)
        self.points = [(f"flow1_start={value}", spec)
                       for value, by_algo in sweep.point_specs()
                       for spec in by_algo.values()]

    def run(self) -> Any:
        return [execute(spec) for _, spec in self.points]

    def units(self, output: Any) -> list[Unit]:
        return [executed_unit(label, result)
                for (label, _), result in zip(self.points, output)]


@dataclass
class PacketAQM(Workload):
    """E13 subset: three ccs over four bottleneck disciplines."""

    name: ClassVar[str] = "packet_aqm"
    duration: float = 1.5
    ccs: tuple[str, ...] = ("restricted", "reno", "prague")
    disciplines: tuple[str, ...] = GALLERY_DISCIPLINES

    def setup(self, seed: int, workdir: Path) -> None:
        self.cells = [(f"{cc}/{discipline}",
                       aqm_gallery_spec(cc, discipline, config=SMALL_PATH, n_flows=2,
                                        duration=self.duration, seed=seed))
                      for cc in self.ccs for discipline in self.disciplines]

    def run(self) -> Any:
        return [execute(spec) for _, spec in self.cells]

    def units(self, output: Any) -> list[Unit]:
        return [executed_unit(label, result)
                for (label, _), result in zip(self.cells, output)]


@dataclass
class FluidChurn(Workload):
    """~5k restricted flows arriving on a 100 Mbit/s dumbbell, fluid engine."""

    name: ClassVar[str] = "fluid_churn"
    duration: float = 25.0
    rate_per_s: float = 200.0

    def setup(self, seed: int, workdir: Path) -> None:
        churn = FlowArrivalSpec(rate_per_s=self.rate_per_s, mean_size_bytes=100_000,
                                size_dist="lognormal", cc="restricted")
        self.spec = MultiFlowSpec(scenario=dumbbell(PathConfig(), 2, ccs="restricted"),
                                  churn=churn, duration=self.duration, seed=seed,
                                  backend="fluid")

    def run(self) -> Any:
        return execute(self.spec)

    def units(self, output: Any) -> list[Unit]:
        return [executed_unit("population", output)]


#: Registry experiments the campaign workloads run: 51 units expand from
#: them, 46 distinct.
CAMPAIGN_EXPERIMENTS = ("E1F", "E2F", "E3F", "E4F", "E5F", "E10F", "E12F")


def reference_campaign(experiments: tuple[str, ...], seed: int) -> CampaignSpec:
    """The campaign of ``experiments`` with every spec reseeded to ``seed``."""
    specs = [get_experiment(experiment).spec.with_seed(seed) for experiment in experiments]
    return CampaignSpec(
        name="simbench",
        units=tuple(spec for spec in specs if not isinstance(spec, SweepSpec)),
        sweeps=tuple(spec for spec in specs if isinstance(spec, SweepSpec)))


@dataclass
class CampaignCold(Workload):
    """The campaign into an empty store: expand, dedupe, compute, write."""

    name: ClassVar[str] = "campaign_cold"
    experiments: tuple[str, ...] = CAMPAIGN_EXPERIMENTS
    #: The status every unit must report on this workload.
    expected: ClassVar[str] = "computed"

    def setup(self, seed: int, workdir: Path) -> None:
        self.campaign = reference_campaign(self.experiments, seed)
        self.store = ResultStore(workdir / "store")

    def run(self) -> Any:
        return [run_campaign(self.campaign, self.store, max_workers=0)]

    def units(self, output: Any) -> list[Unit]:
        documents: dict[str, dict] = {}
        units = []
        for manifest in output:
            for report in manifest.units:
                key = report.cache_key
                if key not in documents:
                    document = self.store.get(key)
                    if document is None:
                        raise RuntimeError(f"campaign unit {report.label} is not in the store")
                    document.pop("telemetry", None)
                    documents[key] = document
                unit = Unit(report.label, documents[key],
                            report.telemetry if report.status == "computed" else None,
                            check_document(documents[key]), status=report.status)
                if report.status != self.expected:
                    unit.failures.append(f"{report.status}, expected {self.expected}")
                if report.status == "computed":
                    unit.bytes_written = self.store.path_for(key).stat().st_size
                units.append(unit)
        return units


@dataclass
class CampaignWarm(CampaignCold):
    """The same campaign rerun against a store prefilled before the pass."""

    name: ClassVar[str] = "campaign_warm"
    expected: ClassVar[str] = "hit"
    #: One rerun takes ~40 ms, too short to time alone on a shared host.
    reruns: int = 10

    def prepare(self) -> None:
        run_campaign(self.campaign, self.store, max_workers=0)

    def run(self) -> Any:
        return [run_campaign(self.campaign, self.store, max_workers=0)
                for _ in range(self.reruns)]


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (PacketSingle, PacketFairness, PacketAQM, FluidChurn, CampaignCold, CampaignWarm)
}
