"""Command-line interface.

``python -m repro`` exposes the experiment harness without writing any
Python:

.. code-block:: console

    python -m repro list                       # show the experiment registry
    python -m repro compare --duration 10      # standard vs restricted
    python -m repro run E1 --duration 25       # regenerate Figure 1
    python -m repro run E3 --duration 8 -o e3.json
    python -m repro run E12 --profile          # phase/counter telemetry table
    python -m repro run E2 --trace trace.jsonl --trace-categories queue cc
    python -m repro spec dump E3 -o e3spec.json   # serialize the spec
    python -m repro run --spec e3spec.json        # ... and replay it
    python -m repro scenario list                 # the scenario gallery
    python -m repro scenario dump parking_lot -o pl.json
    python -m repro run --scenario pl.json --duration 10
    python -m repro campaign run E3F E2F          # memoized batch (rerun = hits)
    python -m repro campaign status E3F           # hit/pending partition
    python -m repro campaign gc --all             # clear the result store
    python -m repro tune --rule allcock_modified

Experiments that return a renderable result print the same table/series the
corresponding benchmark prints; ``-o/--output`` additionally saves the raw
result (together with its originating spec and cache key) as JSON via
:mod:`repro.experiments.results_io`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import pathlib
import sys
from typing import Callable, Sequence

from .codec import encode
from .core import autotune_gains_fluid
from .errors import ReproError
from .experiments import (
    all_experiments,
    comparison_table,
    get_experiment,
    multi_flow_table,
    render_aqm_gallery,
    render_baselines,
    render_fairness,
    render_figure1,
    render_population_summary,
    render_sweep,
    render_throughput,
    render_tuning_ablation,
    single_flow_summary,
)
from .experiments.aqm_gallery import AQMGalleryResult
from .experiments.baselines import BaselineComparisonResult
from .experiments.fairness import FairnessResult
from .experiments.figure1 import Figure1Result
from .experiments.results_io import save_result
from .experiments.runner import ComparisonResult, MultiFlowResult, SingleFlowResult
from .experiments.sweeps import SweepResult
from .experiments.throughput import ThroughputResult
from .experiments.tuning_ablation import TuningAblationResult
from .obs import TRACE_CATEGORIES
from .spec import (
    BACKENDS,
    ComparisonSpec,
    MultiFlowSpec,
    RunSpec,
    ScenarioSpec,
    SpecBase,
    available_scenarios,
    dump_spec,
    execute,
    load_spec,
    scenario_factory,
    spec_from_json,
)
from .units import Mbps
from .workloads import PathConfig

__all__ = ["main", "build_parser"]


def _render_single_flow(result: SingleFlowResult) -> str:
    lines = [f"single flow — {result.flow.algorithm} ({result.backend} backend)"]
    for key, value in single_flow_summary(result).items():
        rendered = f"{value:.4g}" if isinstance(value, float) else str(value)
        lines.append(f"{key:20s} {rendered}")
    return "\n".join(lines)


#: How to render each result type the harness can produce.
_RENDERERS: dict[type, Callable] = {
    Figure1Result: render_figure1,
    ThroughputResult: render_throughput,
    SweepResult: render_sweep,
    TuningAblationResult: render_tuning_ablation,
    BaselineComparisonResult: render_baselines,
    FairnessResult: render_fairness,
    AQMGalleryResult: render_aqm_gallery,
    SingleFlowResult: _render_single_flow,
    ComparisonResult: lambda r: comparison_table(r, title="algorithm comparison").render(),
    MultiFlowResult: lambda r: multi_flow_table(r, title="multi-flow run").render(),
}


def _render_result(result) -> str | None:
    renderer = _RENDERERS.get(type(result))
    return renderer(result) if renderer is not None else None


def _path_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    if args.bandwidth_mbps is not None:
        overrides["bottleneck_rate_bps"] = Mbps(args.bandwidth_mbps)
    if args.rtt_ms is not None:
        overrides["rtt"] = args.rtt_ms / 1e3
    if args.ifq is not None:
        overrides["ifq_capacity_packets"] = args.ifq
    return overrides


def _path_config(args: argparse.Namespace) -> PathConfig:
    overrides = _path_overrides(args)
    return PathConfig().replace(**overrides) if overrides else PathConfig()


def _apply_overrides(spec: SpecBase, args: argparse.Namespace) -> SpecBase:
    """Apply the explicitly-set CLI flags to a declarative spec."""
    overrides = _path_overrides(args)
    if overrides:
        spec = spec.with_config(spec.path_config.replace(**overrides))
    if getattr(args, "duration", None) is not None:
        spec = spec.with_duration(args.duration)
    if args.seed is not None:
        spec = spec.with_seed(args.seed)
    if args.backend is not None:
        spec = spec.with_backend(args.backend)
    return spec


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Restricted Slow-Start for TCP — reproduction toolkit",
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="simulation seed (default 1; validate defaults "
                             "to its tolerance-tuned seed)")
    parser.add_argument("--bandwidth-mbps", type=float, default=None,
                        help="bottleneck/NIC rate override (Mbit/s)")
    parser.add_argument("--rtt-ms", type=float, default=None,
                        help="round-trip time override (ms)")
    parser.add_argument("--ifq", type=int, default=None,
                        help="interface-queue capacity override (packets)")
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="simulation engine: event-driven packet engine "
                             "(ground truth, the default) or the fluid-model "
                             "fast path (per-RTT difference equations, "
                             "~100x faster; covers single flows and "
                             "multi-flow dumbbell mixes)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the registered experiments")

    run = sub.add_parser(
        "run", help="run a registered experiment (E1..E13), a spec file or "
                    "a scenario file")
    run.add_argument("experiment", nargs="?", default=None,
                     help="experiment id, e.g. E1 (omit with --spec/--scenario)")
    run.add_argument("--spec", dest="spec_file", default=None,
                     help="run a declarative spec from this JSON file, or "
                          "'-' for stdin (see 'repro spec dump')")
    run.add_argument("--scenario", dest="scenario_file", default=None,
                     help="run a declarative scenario from this JSON file, "
                          "or '-' for stdin (see 'repro scenario dump'); "
                          "executes every declared flow on the packet engine")
    run.add_argument("--duration", type=float, default=None,
                     help="simulated seconds (experiment-specific default)")
    run.add_argument("-o", "--output", default=None,
                     help="save the raw result (plus its spec and cache key) "
                          "as JSON to this path")
    run.add_argument("--store", default=None, metavar="DIR",
                     help="also record the run's raw result in this "
                          "content-addressed result store (write-through; "
                          "campaigns and 'repro validate --store' sharing "
                          "the spec hit it later)")
    run.add_argument("--summary", choices=("text", "json"), default=None,
                     help="additionally print the run's population summary "
                          "(FCT percentiles, concurrency series, per-class/"
                          "per-cc aggregates, Jain index) as a table or as "
                          "JSON; errors if the result type carries no "
                          "summary (single-flow runs)")
    run.add_argument("--trace", default=None, metavar="OUT.jsonl",
                     help="record the engines' structured trace to this "
                          "JSONL file (forces in-process execution — the "
                          "trace session is per-process; see the README's "
                          "'Observability' category table)")
    run.add_argument("--trace-categories", nargs="+", default=None,
                     metavar="CAT",
                     help="restrict --trace to these categories; choices: "
                          + ", ".join(sorted(TRACE_CATEGORIES)))
    run.add_argument("--profile", action="store_true",
                     help="print the run's telemetry — phase wall times "
                          "(compile/simulate/summarize/persist) and engine "
                          "work counters")
    run.add_argument("--profile-memory", action="store_true",
                     help="--profile plus the tracemalloc peak (slower; "
                          "forces in-process execution)")

    spec_cmd = sub.add_parser(
        "spec", help="inspect and serialize the declarative experiment specs")
    spec_sub = spec_cmd.add_subparsers(dest="spec_command", required=True)
    dump = spec_sub.add_parser(
        "dump", help="print an experiment's declarative spec as JSON")
    dump.add_argument("experiment", help="experiment id, e.g. E3")
    dump.add_argument("--duration", type=float, default=None,
                      help="override the spec's simulated seconds")
    dump.add_argument("-o", "--output", default=None,
                      help="write the spec JSON to this path instead of stdout")
    spec_sub.add_parser("list", help="list every experiment's spec kind and cache key")

    scenario_cmd = sub.add_parser(
        "scenario", help="inspect and serialize the declarative scenario gallery")
    scenario_sub = scenario_cmd.add_subparsers(dest="scenario_command",
                                               required=True)
    scenario_dump = scenario_sub.add_parser(
        "dump", help="print a gallery scenario's declarative spec as JSON "
                     "(the global path flags parameterize its config)")
    scenario_dump.add_argument("name",
                               help="gallery name, e.g. dumbbell or parking_lot")
    scenario_dump.add_argument("-o", "--output", default=None,
                               help="write the scenario JSON to this path "
                                    "instead of stdout")
    scenario_sub.add_parser("list", help="list the scenario gallery")

    campaign_cmd = sub.add_parser(
        "campaign", help="memoized batch runs against the content-addressed "
                         "result store (rerun = cache hits)")
    campaign_sub = campaign_cmd.add_subparsers(dest="campaign_command",
                                               required=True)
    store_help = ("result store directory (default: $REPRO_RESULT_STORE "
                  "or ./.repro-cache)")
    campaign_run = campaign_sub.add_parser(
        "run", help="execute a campaign incrementally: store hits are "
                    "served from disk, only misses simulate")
    campaign_run.add_argument(
        "sources", nargs="+",
        help="what to run: registry experiment ids (E3, E2F, ...) and/or "
             "spec JSON files (campaign, sweep, run, comparison, "
             "multi_flow or scenario documents; '-' reads stdin)")
    campaign_run.add_argument("--store", default=None, metavar="DIR",
                              help=store_help)
    campaign_run.add_argument("--jobs", type=int, default=None,
                              help="worker processes for the misses "
                                   "(default: half the CPUs, or "
                                   "$REPRO_MAX_WORKERS)")
    campaign_run.add_argument("--manifest", default=None, metavar="PATH",
                              help="write the JSON manifest here (default: "
                                   "<store>/manifests/<campaign key>.json)")
    campaign_run.add_argument("--progress", action="store_true",
                              help="print a heartbeat line to stderr as each "
                                   "miss finishes (unit, wall, events/s)")
    campaign_run.add_argument("--telemetry", action="store_true",
                              help="also print the aggregate telemetry view "
                                   "(merged phase/counter roll-up)")
    campaign_status = campaign_sub.add_parser(
        "status", help="report the hit/pending partition without running "
                       "anything")
    campaign_status.add_argument("sources", nargs="+",
                                 help="same sources as 'campaign run'")
    campaign_status.add_argument("--store", default=None, metavar="DIR",
                                 help=store_help)
    campaign_status.add_argument("--manifest", default=None, metavar="PATH",
                                 help="also write the status manifest JSON "
                                      "to this path")
    campaign_status.add_argument("--telemetry", action="store_true",
                                 help="also print the aggregate telemetry "
                                      "view (hits contribute the telemetry "
                                      "persisted when first computed)")
    campaign_gc = campaign_sub.add_parser(
        "gc", help="drop unusable store entries (corrupt, stale schema "
                   "version, integrity failures)")
    campaign_gc.add_argument("--store", default=None, metavar="DIR",
                             help=store_help)
    campaign_gc.add_argument("--older-than-days", type=float, default=None,
                             help="additionally drop valid entries older "
                                  "than this many days")
    campaign_gc.add_argument("--max-bytes", type=int, default=None,
                             help="additionally evict surviving entries "
                                  "oldest-first (by mtime) until the store "
                                  "fits this many bytes")
    campaign_gc.add_argument("--all", action="store_true", dest="clear",
                             help="wipe every entry")

    lint = sub.add_parser(
        "lint", help="determinism & spec-hygiene static analysis "
                     "(REP001..REP006 over the source tree, or --specs for "
                     "the spec-registry audit)")
    from .lint.cli import add_lint_arguments

    add_lint_arguments(lint)

    compare = sub.add_parser("compare", help="standard TCP vs restricted slow-start")
    compare.add_argument("--duration", type=float, default=10.0)
    compare.add_argument("--algorithms", nargs="+", default=["reno", "restricted"])

    tune = sub.add_parser("tune", help="derive controller gains for a path")
    tune.add_argument("--rule", default="allcock_modified")

    validate = sub.add_parser(
        "validate", help="cross-validate the fluid fast path: the "
                         "single-flow and multi-flow grids against the "
                         "packet engine, then the vector fluid engine "
                         "against the scalar one")
    from .fluid.validate import add_validate_arguments

    add_validate_arguments(validate)

    return parser


def _cmd_list() -> int:
    for entry in all_experiments():
        print(f"{entry.experiment_id:4s} {entry.paper_artifact:20s} {entry.description}")
        print(f"     benchmark: {entry.benchmark}")
    return 0


def _print_result(result, raw, output: str | None) -> None:
    """Render ``result`` (an experiment's folded view, or the raw result);
    ``-o`` saves ``raw``, the result its spec's cache key addresses."""
    text = _render_result(result)
    if text is not None:
        print(text)
    if output:
        try:
            path = save_result(raw, output)
            print(f"\nsaved raw result to {path}")
        except ReproError as exc:
            print(f"\n(could not save result: {exc})")


def _collect_summaries(result) -> list[tuple[str | None, object]]:
    """``(label, PopulationSummary)`` pairs carried by ``result``."""
    summary = getattr(result, "summary", None)
    if summary is not None:
        return [(None, summary)]
    if isinstance(result, SweepResult):
        return [(f"{result.parameter}={row[result.parameter]}", row["summary"])
                for row in result.rows if row.get("summary") is not None]
    return []


def _print_summary(result, mode: str) -> int:
    summaries = _collect_summaries(result)
    if not summaries:
        print("error: this result type carries no population summary "
              "(multi-flow runs and fairness sweeps do)", file=sys.stderr)
        return 2
    if mode == "json":
        if len(summaries) == 1 and summaries[0][0] is None:
            print(json.dumps(encode(summaries[0][1]), indent=2))
        else:
            print(json.dumps([{"label": label, "summary": encode(s)}
                              for label, s in summaries], indent=2))
        return 0
    for label, s in summaries:
        title = ("population summary" if label is None
                 else f"population summary — {label}")
        print()
        print(render_population_summary(s, title=title))
    return 0


def _load_spec_arg(value: str) -> SpecBase:
    """Load a spec document from a file path or ('-') from stdin."""
    if value == "-":
        return spec_from_json(sys.stdin.read())
    return load_spec(value)


@contextlib.contextmanager
def _run_observability(args: argparse.Namespace):
    """Install the trace/telemetry sessions the ``run`` flags ask for.

    Yields the :class:`~repro.obs.TraceBus` (or ``None``).  Both sessions
    are per-process, which is why :func:`_cmd_run` forces in-process
    execution (``max_workers=0``) whenever one is active.
    """
    from .obs import TraceBus, set_memory_tracking, trace_session

    if args.trace_categories and args.trace is None:
        raise ReproError("--trace-categories requires --trace")
    bus = None
    with contextlib.ExitStack() as stack:
        if args.trace is not None:
            if args.trace_categories:
                unknown = sorted(set(args.trace_categories) - set(TRACE_CATEGORIES))
                if unknown:
                    raise ReproError(
                        f"unknown trace categories {unknown}; choose from "
                        f"{sorted(TRACE_CATEGORIES)}")
            bus = TraceBus(categories=args.trace_categories,
                           spill_path=args.trace)
            stack.enter_context(trace_session(bus))
        if args.profile_memory:
            set_memory_tracking(True)
            stack.callback(set_memory_tracking, False)
        yield bus


def _print_observability(args: argparse.Namespace, result, bus) -> int:
    """Print the --trace / --profile reports after a run; 0 on success."""
    if bus is not None:
        bus.close()
        summary = bus.summary()
        by_category = ", ".join(f"{category}:{count}" for category, count
                                in summary["categories"].items()) or "empty"
        print(f"\ntrace: {summary['total_records']} records -> {args.trace} "
              f"({by_category})")
    if args.profile or args.profile_memory:
        telemetry = getattr(result, "telemetry", None)
        if telemetry is None:
            print("error: this result carries no telemetry", file=sys.stderr)
            return 2
        print()
        print(telemetry.render())
    return 0


def _registry_entry_for(spec: SpecBase):
    """The registry experiment whose spec ``spec`` is, if any."""
    return next((entry for entry in all_experiments() if entry.spec == spec), None)


def _cmd_run(args: argparse.Namespace) -> int:
    sources = [s for s in (args.experiment and "an experiment id",
                           args.spec_file and "--spec",
                           args.scenario_file and "--scenario") if s]
    if len(sources) > 1:
        print(f"error: give either {' or '.join(sources)}, not both",
              file=sys.stderr)
        return 2
    store = None
    if args.store is not None:
        from .campaign import ResultStore

        store = ResultStore(args.store)
    # the trace/telemetry sessions are per-process: keep composite fan-out
    # in-process while one is active
    serial = 0 if (args.trace or args.profile_memory) else None
    entry = None
    if args.spec_file or args.scenario_file:
        spec = _load_spec_arg(args.spec_file or args.scenario_file)
        if spec.kind == "campaign":
            # a registry experiment's campaign runs (and renders) as that
            # experiment; any other campaign belongs to 'repro campaign run'
            entry = _registry_entry_for(spec) if args.spec_file else None
            if entry is None:
                print(f"error: {args.spec_file or args.scenario_file} is a "
                      "campaign spec; run it with 'repro campaign run'",
                      file=sys.stderr)
                return 2
        elif args.scenario_file and not isinstance(spec, ScenarioSpec):
            print(f"error: {args.scenario_file} is a {spec.kind!r} spec, not "
                  "a scenario; run it with --spec", file=sys.stderr)
            return 2
    elif args.experiment:
        entry = get_experiment(args.experiment)
    else:
        print("error: an experiment id, --spec <file.json> or "
              "--scenario <file.json> is required", file=sys.stderr)
        return 2
    if entry is None:
        if isinstance(spec, ScenarioSpec):
            # a bare scenario runs every declared flow as a multi-flow job
            spec = MultiFlowSpec(scenario=spec)
        spec = _apply_overrides(spec, args)
        with _run_observability(args) as bus:
            result = raw = execute(spec, max_workers=serial, store=store)
    else:
        spec = entry.configured_spec(**_registry_overrides(args))
        with _run_observability(args) as bus:
            raw = execute(spec, max_workers=serial, store=store)
        result = entry.fold(raw)
    _print_result(result, raw, args.output)
    code = _print_observability(args, result, bus)
    if code:
        return code
    return _print_summary(result, args.summary) if args.summary else 0


def _registry_overrides(args: argparse.Namespace) -> dict:
    """The explicitly-set CLI flags as ``ExperimentSpec`` overrides (the
    path flags edit the default path, which every registry spec runs on)."""
    return {"config": _path_config(args) if _path_overrides(args) else None,
            "duration": args.duration, "seed": args.seed, "backend": args.backend}


def _cmd_spec(args: argparse.Namespace) -> int:
    if args.spec_command == "list":
        for entry in all_experiments():
            print(f"{entry.experiment_id:4s} {entry.spec.kind:12s} "
                  f"backend={entry.spec.backend:7s} "
                  f"cache_key={entry.spec.cache_key()[:12]}")
        return 0
    entry = get_experiment(args.experiment)
    spec = entry.configured_spec(**_registry_overrides(args))
    if args.output:
        path = dump_spec(spec, pathlib.Path(args.output))
        print(f"wrote {entry.experiment_id} spec to {path}")
    else:
        print(spec.to_json())
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.scenario_command == "list":
        for name in available_scenarios():
            factory = scenario_factory(name)
            spec = factory()
            doc = (factory.__doc__ or "").strip().splitlines()[0]
            print(f"{name:16s} nodes={len(spec.topology.nodes):2d} "
                  f"links={len(spec.topology.links):2d} "
                  f"flows={len(spec.flows):2d}  {doc}")
        return 0
    # dump: the global path flags parameterize the factory's config
    spec = scenario_factory(args.name)(config=_path_config(args))
    if args.output:
        path = dump_spec(spec, pathlib.Path(args.output))
        print(f"wrote scenario {args.name!r} to {path}")
    else:
        print(spec.to_json())
    return 0


def _campaign_from_sources(sources: Sequence[str]):
    """Assemble the campaign to run from CLI sources (ids and spec files)."""
    from .campaign import CampaignSpec
    from .spec import SweepSpec

    ids: list[str] = []
    units: list[SpecBase] = []
    sweeps: list[SweepSpec] = []
    campaigns: list[CampaignSpec] = []
    for source in sources:
        if source == "-" or source.endswith(".json") \
                or pathlib.Path(source).exists():
            spec = _load_spec_arg(source)
            if isinstance(spec, CampaignSpec):
                campaigns.append(spec)
            elif isinstance(spec, SweepSpec):
                sweeps.append(spec)
            elif isinstance(spec, ScenarioSpec):
                units.append(MultiFlowSpec(scenario=spec))
            else:
                units.append(spec)
        else:
            ids.append(source)
    if campaigns:
        if len(campaigns) > 1 or ids or units or sweeps:
            raise ReproError(
                "give exactly one campaign file, or assemble a campaign "
                "from experiment ids / unit spec files — not a mix of "
                "campaign files with other sources")
        return campaigns[0]
    return CampaignSpec(units=tuple(units), experiments=tuple(ids),
                        sweeps=tuple(sweeps))


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .campaign import ResultStore, run_campaign, write_manifest

    # Campaign specs are content-addressed: a silently-applied global
    # override would change every unit's cache key while the user thinks
    # they are rerunning "the same" campaign — reject instead.
    ignored = [flag for flag, value in (
        ("--bandwidth-mbps", args.bandwidth_mbps),
        ("--rtt-ms", args.rtt_ms),
        ("--ifq", args.ifq),
        ("--backend", args.backend),
        ("--seed", args.seed),
    ) if value is not None]
    if ignored:
        print(f"error: campaign sources are content-addressed specs; "
              f"{', '.join(ignored)} cannot apply — regenerate the spec "
              "with the overrides instead (e.g. 'repro spec dump')",
              file=sys.stderr)
        return 2
    store = ResultStore(args.store)
    if args.campaign_command == "gc":
        print(store.stats().render())
        print(store.gc(
            older_than_s=(args.older_than_days * 86400.0
                          if args.older_than_days is not None else None),
            clear=args.clear, max_bytes=args.max_bytes).render())
        return 0
    spec = _campaign_from_sources(args.sources)
    progress = None
    if getattr(args, "progress", False):
        def progress(report, done, total):
            rate = report.events_per_s
            suffix = f", {rate:,.0f} ev/s" if rate is not None else ""
            print(f"  [{done}/{total}] {report.label} "
                  f"({report.wall_s:.2f}s{suffix})", file=sys.stderr, flush=True)
    manifest = run_campaign(spec, store,
                            max_workers=getattr(args, "jobs", None),
                            execute_misses=args.campaign_command == "run",
                            progress=progress)
    print(manifest.render())
    if getattr(args, "telemetry", False):
        print()
        print(manifest.render_telemetry())
    if args.campaign_command == "run":
        path = write_manifest(manifest, args.manifest)
        print(f"wrote manifest to {path}")
    elif args.manifest:
        path = write_manifest(manifest, args.manifest)
        print(f"wrote status manifest to {path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _path_config(args)
    base = RunSpec(config=config, duration=args.duration,
                   seed=args.seed if args.seed is not None else 1,
                   backend=args.backend or "packet")
    comparison = execute(ComparisonSpec(base=base, algorithms=tuple(args.algorithms)))
    print(comparison_table(comparison, title="algorithm comparison").render())
    if "restricted" in args.algorithms and "reno" in args.algorithms:
        print(f"\nimprovement of restricted over reno: "
              f"{comparison.improvement_percent('restricted'):+.1f}%")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    # Delegate to the single implementation of the gate.  The gate runs a
    # fixed, tolerance-tuned grid on both backends with its own seed, so the
    # global path/backend flags cannot apply — reject them loudly rather
    # than validating something other than what the user asked for.
    ignored = [flag for flag, value in (
        ("--bandwidth-mbps", args.bandwidth_mbps),
        ("--rtt-ms", args.rtt_ms),
        ("--ifq", args.ifq),
        ("--backend", args.backend),
    ) if value is not None]
    if ignored:
        print(f"error: validate runs the fixed cross-validation grid on both "
              f"backends; {', '.join(ignored)} cannot apply", file=sys.stderr)
        return 2
    from .fluid.validate import run_validate

    return run_validate(args)


def _cmd_tune(args: argparse.Namespace) -> int:
    if args.backend is not None:
        print("error: tune always derives gains via fluid relay tuning; "
              "--backend cannot apply", file=sys.stderr)
        return 2
    config = _path_config(args)
    result = autotune_gains_fluid(config, rule=args.rule)
    for key, value in result.summary().items():
        print(f"{key:12s} {value}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "spec":
            return _cmd_spec(args)
        if args.command == "scenario":
            return _cmd_scenario(args)
        if args.command == "campaign":
            return _cmd_campaign(args)
        if args.command == "lint":
            from .lint.cli import run_lint

            return run_lint(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "tune":
            return _cmd_tune(args)
        if args.command == "validate":
            return _cmd_validate(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
