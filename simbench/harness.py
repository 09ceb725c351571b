"""Parent side of the benchmark: spawn samples, fold them, compare runs.

The load is a closed loop from one parent process.  Each sample is a fresh
child interpreter (:mod:`simbench.child`) that sets up one workload and
runs one timed pass; only one child runs at a time and every spec runs
serially, so a 2-core shared host measures the simulator and not a pool.
The parent itself never imports :mod:`repro`.
"""

from __future__ import annotations

import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Iterable

from .layers import LAYERS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Samples a contract run takes even when they overrun ``--seconds``.
MIN_SAMPLES = 3

#: A child that has not finished by then is killed and the run fails.
CHILD_TIMEOUT_S = 60.0

#: End-to-end metrics every sample reports, with their units;
#: :func:`summarize` adds ``fail_ratio``.
SAMPLE_METRICS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run or a child failed."""


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: workload names, metric units, bounds."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text())


def require_source() -> None:
    """Refuse to run without the simulator's sources next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no simulator sources at {SRC / 'repro'}: run from a "
                         "checkout of the repository")
    compileall.compile_dir(SRC, quiet=1)  # set-up times then exclude bytecode compilation


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    path = [str(SRC), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env.update(
        PYTHONPATH=os.pathsep.join(path),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_MAX_WORKERS="0",
    )
    return env


def spawn(workload: str, seed: int, traced: bool = False,
          sizes: dict | None = None) -> dict:
    """Run one child sample to completion; its report plus ``setup_s``."""
    scratch = ROOT / ".simbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    cmd = [sys.executable, "-m", "simbench.child", workload, "--seed", str(seed),
           "--workdir", str(workdir)]
    if traced:
        cmd.append("--traced")
    if sizes:
        cmd += ["--sizes", json.dumps(sizes)]
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{workload} child exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} child exited {proc.returncode}:\n{err.strip()}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report.pop("ready_at") - spawned_at
    return report


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _stat(values: list[float], unit: str) -> dict:
    q1, median, q3 = quartiles(values)
    return {"unit": unit, "median": median, "q1": q1, "q3": q3, "n": len(values),
            "values": values}


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    """Layer metrics of one workload: counts from the untraced samples,
    self-time shares and call counts from the traced ones."""
    counts = untraced[0]["counts"]
    wall = statistics.median(s["wall_s"] for s in untraced)
    traced_wall = statistics.median(s["wall_s"] for s in traced)
    simulate = statistics.median(s["measured"]["simulate_s"] for s in untraced)
    events = counts["sim.events"]
    steps = counts["fluid.steps"]
    packets = counts["net.packets_forwarded"]
    out = {
        "trace.wall_s": traced_wall,
        "trace.overhead": traced_wall / wall,
        "trace.coverage": statistics.median(
            sum(layer["self_s"] for layer in s["layers"].values()) / s["wall_s"]
            for s in traced),
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = statistics.median(
            s["layers"][layer]["self_s"] / s["wall_s"] for s in traced)
        out[f"{layer}.calls"] = traced[0]["layers"][layer]["calls"]
    out.update((name, value) for name, value in counts.items() if name != "units")
    out["sim.events_per_s"] = events / simulate if events else 0.0
    out["sim.events_per_packet"] = events / packets if packets else 0.0
    out["sim.scheduled_per_event"] = (counts["sim.events_scheduled"] / events
                                      if events else 0.0)
    out["fluid.steps_per_s"] = steps / simulate if steps else 0.0
    out["workloads.compile_share"] = statistics.median(
        s["measured"]["compile_s"] / s["wall_s"] for s in untraced)
    out["spec.cache_key_per_unit"] = out["spec.calls"] / counts["units"]
    out["campaign.bytes_written"] = statistics.median(
        s["measured"]["campaign.bytes_written"] for s in untraced)
    return out


def summarize(untraced: list[dict], traced: list[dict] | None = None) -> dict:
    """Fold one workload's samples into metrics, checks and fingerprint.

    Every sample ran at one seed, so all of them, traced or not, must
    report the same fingerprint; one that differs fails all its units.
    """
    traced = traced or []
    samples = untraced + traced
    reference = (untraced[0]["fingerprint"], untraced[0]["counts"])
    failures = [f for s in samples for f in s["failures"]]
    failed = sum(s["failed"] for s in samples)
    for s in samples:
        if (s["fingerprint"], s["counts"]) != reference:
            failed += s["attempted"] - s["failed"]
            failures.append(f"{s['workload']}: {'traced' if s['traced'] else 'untraced'} "
                            "pass changed the outputs at the same seed")
    attempted = sum(s["attempted"] for s in samples)
    metrics = {name: _stat([s[name] for s in untraced], unit)
               for name, unit in SAMPLE_METRICS.items()}
    metrics["fail_ratio"] = _stat([s["failed"] / s["attempted"] for s in untraced], "fraction")
    summary = {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "fingerprint": {"sha256": reference[0], "counts": reference[1]},
    }
    if traced:
        summary["layers"] = {
            layer: {key: statistics.median(s["layers"][layer][key] for s in traced)
                    for key in ("calls", "inclusive_s", "self_s")}
            for layer in LAYERS}
        summary["per_layer"] = per_layer_metrics(untraced, traced)
    return summary


def measure(workload: str, seed: int, seconds: float,
            traced: bool = False) -> tuple[list[dict], list[dict]]:
    """Samples of one workload for about ``seconds`` (at least
    :data:`MIN_SAMPLES`); a traced run alternates untraced and traced."""
    deadline = time.perf_counter() + seconds
    untraced: list[dict] = []
    traced_samples: list[dict] = []
    longest = 0.0
    while True:
        started = time.perf_counter()
        untraced.append(spawn(workload, seed))
        if traced:
            traced_samples.append(spawn(workload, seed, traced=True))
        longest = max(longest, time.perf_counter() - started)
        if len(untraced) >= MIN_SAMPLES and time.perf_counter() + longest > deadline:
            return untraced, traced_samples


def contract_result(summary: dict, traced: bool, spec: dict) -> dict:
    """The one-line result: end-to-end metrics, or per-layer ones when traced."""
    if traced:
        chosen = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = summary["per_layer"]
    else:
        chosen = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: stat["median"] for name, stat in summary["metrics"].items()}
    missing = sorted(set(chosen) - set(values))
    if missing:
        raise BenchError(f"metrics named in BENCHMARK.json but not measured: {missing}")
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in chosen.items()},
    }


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or "unknown"


def run_suite(workloads: Iterable[str], seed: int, rounds: int, traced: bool = False) -> dict:
    """``rounds`` rounds, each spawning one child per workload in turn, so
    slow drift on the host hits every workload equally."""
    workloads = list(workloads)
    untraced: dict[str, list[dict]] = {name: [] for name in workloads}
    traced_samples: dict[str, list[dict]] = {name: [] for name in workloads}
    started = time.perf_counter()
    for _ in range(rounds):
        for name in workloads:
            untraced[name].append(spawn(name, seed))
            if traced:
                traced_samples[name].append(spawn(name, seed, traced=True))
    first = untraced[workloads[0]][0]["versions"]
    return {
        "schema": "simbench/1",
        "git_sha": _git_sha(),
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": os.cpu_count(),
        "seed": seed,
        "rounds": rounds,
        "traced": traced,
        "total_wall_s": time.perf_counter() - started,
        "workloads": {name: summarize(untraced[name], traced_samples[name])
                      for name in workloads},
    }


# ----------------------------------------------------------------------
# comparing two result files
# ----------------------------------------------------------------------

def classify(a: dict, b: dict, bound: float, better: str) -> str:
    """``agree`` / ``regress`` / ``unresolved`` for metric stats ``a`` -> ``b``.

    ``bound`` is the share of ``a``'s median by which ``b`` may be worse.
    When either side's quartile spread exceeds the bound the comparison is
    ``unresolved``, unless every value of ``b`` beats every value of ``a``.
    """
    sign = 1.0 if better == "lower" else -1.0
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    if spread > bound:
        if sign > 0 and max(b["values"]) < min(a["values"]):
            return "agree"
        if sign < 0 and min(b["values"]) > max(a["values"]):
            return "agree"
        return "unresolved"
    worse = sign * (b["median"] - a["median"]) / abs(a["median"])
    return "regress" if worse > bound else "agree"


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines for result ``b`` against ``a``; ``True`` when ``b`` regressed
    or its fingerprints differ."""
    limits = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    limits["fail_ratio"] = (0.0, "lower")
    lines = [f"{'workload':<16} {'metric':<12} {'A median':>11} {'A IQR':>9} "
             f"{'B median':>11} {'B IQR':>9} {'bound':>6}  verdict"]
    bad = False
    for name in a["workloads"]:
        if name not in b["workloads"]:
            lines.append(f"{name:<16} only in A")
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, (bound, better) in limits.items():
            if metric not in wa["metrics"] or metric not in wb["metrics"]:
                continue
            sa, sb = wa["metrics"][metric], wb["metrics"][metric]
            if metric == "fail_ratio":  # any increase over all samples regresses
                worse = wb["failed"] / wb["attempted"] > wa["failed"] / wa["attempted"]
                verdict = "regress" if worse else "agree"
            else:
                verdict = classify(sa, sb, bound, better)
            bad |= verdict == "regress"
            lines.append(f"{name:<16} {metric:<12} {sa['median']:>11.4f} "
                         f"{sa['q3'] - sa['q1']:>9.4f} {sb['median']:>11.4f} "
                         f"{sb['q3'] - sb['q1']:>9.4f} {bound:>6.2f}  {verdict}")
        if a["seed"] != b["seed"]:
            continue
        fa, fb = wa["fingerprint"], wb["fingerprint"]
        if fa["sha256"] != fb["sha256"]:
            bad = True
            lines.append(f"{name:<16} fingerprint  {fa['sha256'][:16]} -> {fb['sha256'][:16]}")
        for count in sorted(set(fa["counts"]) | set(fb["counts"])):
            if fa["counts"].get(count) != fb["counts"].get(count):
                bad = True
                lines.append(f"{name:<16} {count:<24} {fa['counts'].get(count)} -> "
                             f"{fb['counts'].get(count)}")
    if a["seed"] != b["seed"]:
        lines.append(f"seeds differ ({a['seed']} vs {b['seed']}): fingerprints not compared")
    return lines, bad


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------

def render_summary(name: str, summary: dict) -> list[str]:
    """End-to-end lines of one workload (and its layer table when traced)."""
    lines = []
    for metric, stat in summary["metrics"].items():
        lines.append(f"{name:<16} {metric:<12} {stat['median']:>12.4f} {stat['unit']:<9} "
                     f"q1 {stat['q1']:.4f}  q3 {stat['q3']:.4f}  n {stat['n']}")
    counts = summary["fingerprint"]["counts"]
    shown = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
    lines.append(f"{name:<16} fingerprint  {summary['fingerprint']['sha256'][:16]}  {shown}")
    for failure in summary["failures"][:10]:
        lines.append(f"{name:<16} FAILED       {failure}")
    if "layers" in summary:
        lines += render_layers(name, summary)
    return lines


def render_layers(name: str, summary: dict) -> list[str]:
    """Per-layer table of a traced summary (self time is exclusive of the
    nested wrapped calls; unwrapped callees count as their caller's)."""
    per_layer = summary["per_layer"]
    lines = [f"  {'layer':<24} {'calls':>10} {'self_s':>9} {'share':>7}"]
    for layer in LAYERS:
        row = summary["layers"][layer]
        if row["calls"]:
            lines.append(f"  {layer:<24} {row['calls']:>10.0f} {row['self_s']:>9.4f} "
                         f"{per_layer[f'{layer}.self_share']:>7.1%}")
    lines.append(f"  trace.coverage {per_layer['trace.coverage']:.3f}   "
                 f"trace.overhead {per_layer['trace.overhead']:.2f}x   "
                 f"traced wall {per_layer['trace.wall_s']:.3f} s")
    return lines


def dump(document: Any, path: Path) -> Path:
    """Write a JSON result file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    return path
