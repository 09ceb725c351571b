"""Tests of the benchmark itself: ``python -m pytest simbench/test_harness.py``."""

from __future__ import annotations

import math
import shutil
import subprocess
import sys

import pytest

from simbench import harness
from simbench.layers import LAYERS, LayerFold

#: Every workload at a size that runs in well under a second.
TINY = {
    "packet_single": {"duration": 1.5},
    "packet_fairness": {"duration": 1.0, "start_times": [0.0, 0.5]},
    "packet_aqm": {"duration": 0.6, "ccs": ["reno"], "disciplines": ["droptail", "codel"]},
    "fluid_churn": {"duration": 2.0, "rate_per_s": 50.0},
    "campaign_cold": {"experiments": ["E1F", "E12F"]},
    "campaign_warm": {"experiments": ["E1F"], "reruns": 2},
}


def test_benchmark_names_the_registered_workloads():
    from simbench.workloads import WORKLOADS

    names = [w["name"] for w in harness.benchmark_spec()["workloads"]]
    assert names == list(WORKLOADS) == list(TINY)


@pytest.mark.parametrize("workload", list(TINY))
def test_workload_fills_every_metric(workload):
    spec = harness.benchmark_spec()
    untraced = [harness.spawn(workload, 1, sizes=TINY[workload])]
    traced = [harness.spawn(workload, 1, traced=True, sizes=TINY[workload])]
    summary = harness.summarize(untraced, traced)
    assert summary["failures"] == []
    for trace in (False, True):
        result = harness.contract_result(summary, trace, spec)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
        names = spec["per_layer" if trace else "end_to_end"]
        assert set(result["metrics"]) == {m["name"] for m in names}
        assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert all(result["metrics"][m]["value"] > 0 for m in ("trace.wall_s", "trace.overhead"))
    for name in harness.SAMPLE_METRICS:
        assert summary["metrics"][name]["median"] > 0


def test_forced_check_failure_raises_fail_ratio(tmp_path, monkeypatch):
    from simbench import child, workloads

    monkeypatch.setattr(workloads, "check_document", lambda document: ["forced"])
    report = child.sample("fluid_churn", 1, tmp_path, sizes=TINY["fluid_churn"])
    report["setup_s"] = 0.5
    summary = harness.summarize([report])
    assert summary["metrics"]["fail_ratio"]["median"] == 1.0
    assert summary["failures"] == ["fluid_churn/population: forced"]
    result = harness.contract_result(summary, False, harness.benchmark_spec())
    assert not result["correct"] and result["failed"] == result["attempted"] == 1


def test_rate_check_reads_delivered_bytes():
    from simbench.workloads import check_document

    def document(total_bytes):
        return {"kind": "multi_flow", "payload": {
            "config": {"bottleneck_rate_bps": 1e6}, "duration": 1.0,
            "summary": {"n_flows": 2, "total_bytes_acked": total_bytes, "horizon": 1.0}}}

    assert check_document(document(100_000)) == []
    assert check_document(document(200_000)) == [
        "delivered 1.600 Mbit/s through a 1.000 Mbit/s bottleneck"]


def _stat(values):
    return harness._stat(values, "s")


def test_classify_agree_regress_unresolved():
    base = _stat([1.00, 1.01, 0.99, 1.00, 1.02])
    assert harness.classify(base, _stat([1.03, 1.04, 1.02, 1.03, 1.05]), 0.1, "lower") == "agree"
    assert harness.classify(base, _stat([1.30, 1.31, 1.29, 1.30, 1.32]), 0.1, "lower") == "regress"
    noisy = _stat([0.7, 1.0, 1.4, 1.1, 0.8])
    assert harness.classify(base, noisy, 0.1, "lower") == "unresolved"
    faster = _stat([0.2, 0.3, 0.45, 0.25, 0.5])
    assert harness.classify(base, faster, 0.1, "lower") == "agree"


def test_compare_flags_regression_and_fingerprint_change():
    spec = harness.benchmark_spec()

    def result(wall, sha, events):
        summary = {
            "metrics": {"wall_s": _stat(wall), "fail_ratio": _stat([0.0, 0.0])},
            "attempted": 4, "failed": 0,
            "fingerprint": {"sha256": sha, "counts": {"sim.events": events}},
        }
        return {"seed": 1, "workloads": {"packet_single": summary}}

    same = result([1.0, 1.01, 0.99], "a" * 64, 10)
    assert harness.compare(same, same, spec)[1] is False
    lines, bad = harness.compare(same, result([1.5, 1.5, 1.5], "a" * 64, 10), spec)
    assert bad and any("regress" in line for line in lines)
    lines, bad = harness.compare(same, result([1.0, 1.01, 0.99], "b" * 64, 11), spec)
    assert bad and any("sim.events" in line for line in lines)


def test_fold_self_time_excludes_nested_calls():
    ticks = iter(range(100))
    fold = LayerFold(clock=lambda: float(next(ticks)))
    inner = fold.wrap("net", lambda: None)
    outer = fold.wrap("sim", lambda: inner() or inner())
    outer()  # sim: 0 .. 5, net: 1 .. 2 and 3 .. 4
    layers = fold.snapshot()
    assert layers["sim"] == {"calls": 1, "inclusive_s": 5.0, "self_s": 3.0}
    assert layers["net"] == {"calls": 2, "inclusive_s": 2.0, "self_s": 2.0}
    fold.reset()
    assert all(row["calls"] == 0 for row in fold.snapshot().values())


def test_traced_layers_cover_a_packet_pass():
    report = harness.spawn("packet_single", 1, traced=True, sizes=TINY["packet_single"])
    covered = sum(row["self_s"] for row in report["layers"].values())
    assert covered == pytest.approx(report["wall_s"], rel=0.05)
    assert set(report["layers"]) == set(LAYERS)
    assert report["layers"]["control.pid"]["calls"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "simbench", tmp_path / "simbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "simbench", "--workload", "packet_single", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "no simulator sources" in done.stderr
