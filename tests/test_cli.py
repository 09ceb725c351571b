"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments import get_experiment
from repro.experiments.results_io import validate_document
from repro.spec import spec_from_dict
from repro.units import Mbps
from repro.workloads import PathConfig

#: Path flags of a scaled-down path, and the path they make of the default.
SMALL_FLAGS = ["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20"]
FLAGGED_PATH = PathConfig(bottleneck_rate_bps=Mbps(20), rtt=0.040,
                          ifq_capacity_packets=20)


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_parses(self):
        args = build_parser().parse_args(["run", "E1", "--duration", "5"])
        assert args.experiment == "E1"
        assert args.duration == 5.0

    def test_global_overrides(self):
        args = build_parser().parse_args(
            ["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20", "list"])
        assert args.bandwidth_mbps == 20.0
        assert args.rtt_ms == 40.0
        assert args.ifq == 20


class TestCommands:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for experiment_id in ("E1", "E2", "E10"):
            assert experiment_id in out

    def test_compare_on_small_path(self, capsys):
        code = main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "compare", "--duration", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reno" in out and "restricted" in out
        assert "improvement" in out

    def test_tune_prints_gains(self, capsys):
        assert main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "tune"]) == 0
        out = capsys.readouterr().out
        assert "Kp" in out and "Kc" in out

    def test_run_figure1_small(self, capsys, tmp_path):
        output = tmp_path / "e1.json"
        code = main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "run", "E1", "--duration", "2", "-o", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "could not save" not in out
        # -o saves the raw result the spec's cache key addresses, not the
        # folded Figure-1 view
        document = validate_document(json.loads(output.read_text()))
        assert document["kind"] == "comparison"
        assert spec_from_dict(document["spec"]).cache_key() == document["cache_key"]
        assert sorted(document["payload"]["runs"]) == ["reno", "restricted"]

    def test_run_campaign_experiment_saves_its_raw_result(self, capsys, tmp_path):
        output = tmp_path / "e9f.json"
        assert main(["run", "E9F", "--duration", "1", "-o", str(output)]) == 0
        assert "could not save" not in capsys.readouterr().out
        document = validate_document(json.loads(output.read_text()))
        assert document["kind"] == "campaign"
        spec = spec_from_dict(document["spec"])
        assert len(document["payload"]["runs"]) == len(spec.expand())

    def test_run_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["run", "E42"]) == 2
        assert "error" in capsys.readouterr().err


class TestSpecCommands:
    def test_spec_dump_prints_json(self, capsys):
        assert main(["spec", "dump", "E3"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "sweep"
        assert document["base"]["backend"] == "packet"
        assert document["parameter"] == "config.ifq_capacity_packets"

    def test_spec_dump_fluid_variant_is_pinned(self, capsys):
        assert main(["spec", "dump", "E2F"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "comparison"
        assert document["base"]["backend"] == "fluid"

    def test_spec_dump_applies_overrides(self, capsys):
        assert main(["--rtt-ms", "40", "--seed", "7", "spec", "dump", "E2",
                     "--duration", "2"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["base"]["config"]["rtt"] == 0.040
        assert document["base"]["seed"] == 7
        assert document["base"]["duration"] == 2.0

    def test_spec_dump_campaign_experiment(self, capsys):
        # E13 is a campaign of its 16 gallery cells
        from repro.spec import spec_from_json

        assert main(["spec", "dump", "E13"]) == 0
        out = capsys.readouterr().out
        document = json.loads(out)
        assert document["kind"] == "campaign"
        assert len(document["units"]) == 16
        assert spec_from_json(out) == get_experiment("E13").spec

    def test_spec_dump_rebuilds_the_gallery_for_overrides(self, capsys):
        # the path flags edit the default path, which the gallery then
        # adapts to its AQM bottleneck, exactly as its builder does
        from repro.experiments.aqm_gallery import aqm_gallery_grid_spec
        from repro.spec import spec_from_json

        assert main([*SMALL_FLAGS, "spec", "dump", "E13", "--duration", "2"]) == 0
        assert spec_from_json(capsys.readouterr().out) == aqm_gallery_grid_spec(
            config=FLAGGED_PATH, duration=2.0)

    def test_spec_list_covers_every_entry(self, capsys):
        assert main(["spec", "list"]) == 0
        out = capsys.readouterr().out
        assert "E3" in out and "E2F" in out and "cache_key=" in out
        for experiment_id in ("E7 ", "E8 ", "E9 ", "E13", "E7F", "E9F"):
            assert experiment_id in out
        assert "campaign" in out

    def test_run_spec_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "e2f.json"
        assert main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "spec", "dump", "E2F", "--duration", "2",
                     "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "--spec", str(path)]) == 0
        assert "improvement" in capsys.readouterr().out

    def test_run_spec_reproduces_legacy_output(self, capsys, tmp_path):
        # `repro run --spec <file>` must match executing the spec in-process
        # bit-for-bit
        import numpy as np

        from repro.spec import RunSpec, dump_spec, execute, load_spec
        from repro.testing import SMALL_PATH

        spec = RunSpec(cc="reno", config=SMALL_PATH, duration=1.5, seed=3)
        path = dump_spec(spec, tmp_path / "run.json")
        assert main(["run", "--spec", str(path)]) == 0
        assert "single flow" in capsys.readouterr().out
        replayed = execute(load_spec(path))
        direct = execute(spec)
        assert replayed.flow.bytes_acked == direct.flow.bytes_acked
        assert np.array_equal(replayed.cwnd_segments, direct.cwnd_segments)

    def test_run_rejects_id_and_spec_together(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "run", "duration": 1.0}))
        assert main(["run", "E1", "--spec", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_run_requires_id_or_spec(self, capsys):
        assert main(["run"]) == 2
        assert "required" in capsys.readouterr().err

    def test_run_missing_spec_file_fails_cleanly(self, capsys, tmp_path):
        assert main(["run", "--spec", str(tmp_path / "nope.json")]) == 2
        assert "no spec file" in capsys.readouterr().err


SCALED = ["--bandwidth-mbps", "10", "--rtt-ms", "20", "--ifq", "10"]


class TestScenarioCommands:
    def test_scenario_list_shows_the_gallery(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("dumbbell", "shared_path", "parking_lot",
                     "asymmetric_path", "lossy_link"):
            assert name in out

    def test_scenario_dump_prints_json(self, capsys):
        assert main(SCALED + ["scenario", "dump", "parking_lot"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "scenario"
        assert document["name"] == "parking_lot"
        assert document["config"]["rtt"] == 0.020
        assert len(document["flows"]) == 4

    def test_scenario_dump_unknown_name_fails_cleanly(self, capsys):
        assert main(["scenario", "dump", "torus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_run_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "shared.json"
        assert main(SCALED + ["scenario", "dump", "shared_path",
                              "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "--scenario", str(path), "--duration", "1"]) == 0
        out = capsys.readouterr().out
        assert "multi-flow run" in out and "jain index" in out

    def test_run_scenario_via_spec_flag(self, capsys, tmp_path):
        # a scenario document is a spec document; --spec accepts it too
        path = tmp_path / "dumbbell.json"
        assert main(SCALED + ["scenario", "dump", "dumbbell",
                              "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["run", "--spec", str(path), "--duration", "1"]) == 0
        assert "multi-flow run" in capsys.readouterr().out

    def test_run_spec_from_stdin(self, capsys, monkeypatch):
        import io

        from repro.spec import dumbbell
        from repro.testing import TINY_PATH

        monkeypatch.setattr("sys.stdin",
                            io.StringIO(dumbbell(TINY_PATH, 1).to_json()))
        assert main(["run", "--spec", "-", "--duration", "1"]) == 0
        assert "multi-flow run" in capsys.readouterr().out

    def test_scenario_flag_rejects_plain_specs(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"kind": "run", "duration": 1.0}))
        assert main(["run", "--scenario", str(path)]) == 2
        assert "not a scenario" in capsys.readouterr().err

    def test_run_rejects_spec_and_scenario_together(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "run", "duration": 1.0}))
        assert main(["run", "--spec", str(path),
                     "--scenario", str(path)]) == 2
        assert "not both" in capsys.readouterr().err

    def test_run_scenario_on_fluid_backend(self, capsys, tmp_path):
        # canonical dumbbells now run on the N-flow coupled fluid model
        path = tmp_path / "dumbbell.json"
        assert main(SCALED + ["scenario", "dump", "dumbbell",
                              "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["--backend", "fluid", "run", "--scenario", str(path),
                     "--duration", "2"]) == 0
        out = capsys.readouterr().out
        assert "multi-flow run" in out
        assert "jain index" in out

    def test_run_scenario_fluid_rejects_non_dumbbell(self, capsys, tmp_path):
        path = tmp_path / "parking_lot.json"
        assert main(SCALED + ["scenario", "dump", "parking_lot",
                              "-o", str(path)]) == 0
        capsys.readouterr()
        assert main(["--backend", "fluid", "run", "--scenario", str(path),
                     "--duration", "2"]) == 2
        assert "packet backend instead" in capsys.readouterr().err


class TestFluidBackend:
    def test_backend_flag_parses(self):
        args = build_parser().parse_args(["--backend", "fluid", "list"])
        assert args.backend == "fluid"

    def test_compare_on_fluid_backend(self, capsys):
        code = main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "--backend", "fluid", "compare", "--duration", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "reno" in out and "restricted" in out

    def test_run_experiment_on_fluid_backend(self, capsys):
        code = main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "--backend", "fluid", "run", "E2", "--duration", "3"])
        assert code == 0
        assert "improvement" in capsys.readouterr().out

    def test_run_fluid_variant_id(self, capsys):
        code = main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "run", "E2F", "--duration", "2"])
        assert code == 0
        assert "improvement" in capsys.readouterr().out

    def test_packet_only_experiment_names_the_fluid_gap(self, capsys):
        # E8 compares hystart and cubic, which have no fluid growth rule
        assert main(["--backend", "fluid", "run", "E8"]) == 2
        err = capsys.readouterr().err
        assert "fluid" in err and "hystart" in err

    def test_packet_backend_on_fluid_variant_rejected(self, capsys):
        # "E2F" is pinned to the fluid engine; an explicit packet request
        # must fail loudly rather than silently run the wrong backend
        assert main(["--backend", "packet", "run", "E2F"]) == 2
        err = capsys.readouterr().err
        assert "fluid" in err and "E2" in err

    def test_fluid_backend_on_fluid_variant_is_redundant_but_fine(self, capsys):
        code = main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "--backend", "fluid", "run", "E2F", "--duration", "2"])
        assert code == 0
        assert "improvement" in capsys.readouterr().out

    def test_list_includes_fluid_variants(self, capsys):
        assert main(["list"]) == 0
        assert "E2F" in capsys.readouterr().out

    def test_validate_smoke(self, capsys):
        code = main(["validate", "--duration", "2", "--points", "1",
                     "--skip-fairness"])
        out = capsys.readouterr().out
        assert "cross-validation" in out
        assert "multi-flow" not in out
        assert code == 0

    def test_validate_skip_population(self, capsys):
        code = main(["validate", "--duration", "2", "--points", "1",
                     "--skip-fairness", "--skip-population"])
        out = capsys.readouterr().out
        assert "fluid-vs-packet cross-validation" in out
        assert "scalar-vs-vector" not in out
        assert code == 0

    def test_validate_rejects_path_overrides(self, capsys):
        # the gate runs a fixed tuned grid; silently ignoring overrides
        # would validate something other than what the user asked for
        assert main(["--ifq", "5", "validate", "--points", "1"]) == 2
        assert "--ifq" in capsys.readouterr().err

    def test_validate_forwards_explicit_seed(self, capsys):
        code = main(["--seed", "7", "validate", "--duration", "2",
                     "--points", "1", "--skip-fairness"])
        out = capsys.readouterr().out
        assert "seed=7" in out
        assert code in (0, 1)  # agreement at untuned seeds is not guaranteed

    def test_validate_runs_fairness_grid(self, capsys):
        # keep the packet mixes short: the tolerance verdict at short
        # horizons is exercised by the validate module tests, here we only
        # check the wiring (flag forwarding + both reports printed)
        code = main(["validate", "--duration", "2", "--points", "1",
                     "--fairness-duration", "2"])
        out = capsys.readouterr().out
        assert "multi-flow fluid-vs-packet cross-validation" in out
        assert "duration=2.0s" in out
        assert code in (0, 1)  # short horizons compare transients

    def test_tune_rejects_backend_flag(self, capsys):
        assert main(["--backend", "fluid", "tune"]) == 2
        assert "cannot apply" in capsys.readouterr().err


class TestCampaignCommands:
    def test_campaign_run_and_warm_rerun(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        manifest = tmp_path / "m.json"
        assert main(["campaign", "run", "E3F", "--store", store]) == 0
        assert "computed" in capsys.readouterr().out
        assert main(["campaign", "run", "E3F", "--store", store,
                     "--manifest", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "hit rate 100.0%" in out
        document = json.loads(manifest.read_text())
        assert document["misses"] == 0
        assert document["hits"] == document["total_units"] == 12

    def test_campaign_status_executes_nothing(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["campaign", "status", "E3F", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "pending 12" in out
        # status must not have written anything into the store
        assert not (tmp_path / "store" / "objects").exists()

    def test_campaign_accepts_spec_files(self, capsys, tmp_path):
        spec_path = tmp_path / "e2f.json"
        assert main(["spec", "dump", "E2F", "--duration", "2",
                     "-o", str(spec_path)]) == 0
        capsys.readouterr()
        store = str(tmp_path / "store")
        assert main(["campaign", "run", str(spec_path),
                     "--store", store]) == 0
        assert "computed 2" in capsys.readouterr().out

    def test_campaign_gc(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "E3F", "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "gc", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "12 entries" in out and "removed 0" in out
        assert main(["campaign", "gc", "--store", store, "--all"]) == 0
        assert "removed 12" in capsys.readouterr().out

    def test_campaign_rejects_path_overrides(self, capsys, tmp_path):
        assert main(["--ifq", "5", "campaign", "run", "E3F",
                     "--store", str(tmp_path / "s")]) == 2
        assert "content-addressed" in capsys.readouterr().err

    def test_campaign_runs_campaign_experiments(self, capsys, tmp_path):
        # E7F and E9F are campaigns themselves; they flatten into the run
        store = str(tmp_path / "s")
        argv = ["campaign", "run", "E7F", "E9F", "--store", store,
                "--jobs", "0"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "12 units" in out and "E7F/unit0" in out and "E9F/unit5" in out
        assert main(argv) == 0
        assert "hits 12, computed 0" in capsys.readouterr().out

    def test_run_spec_rejects_campaign_documents(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec
        from repro.spec import dump_spec

        path = dump_spec(CampaignSpec(experiments=("E3F",)),
                         tmp_path / "c.json")
        assert main(["run", "--spec", str(path)]) == 2
        assert "campaign run" in capsys.readouterr().err

    def test_run_store_write_through_feeds_campaign(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["run", "E2F", "--duration", "2",
                     "--store", store]) == 0
        capsys.readouterr()
        # the recorded comparison hits when the same spec file reruns
        spec_path = tmp_path / "e2f.json"
        assert main(["spec", "dump", "E2F", "--duration", "2",
                     "-o", str(spec_path)]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", str(spec_path),
                     "--store", store]) == 0
        assert "hits 2" in capsys.readouterr().out

    def test_validate_store_flag_forwards(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        code = main(["validate", "--duration", "2", "--points", "1",
                     "--skip-fairness", "--store", store])
        out = capsys.readouterr().out
        assert code == 0
        assert "result store:" in out and "6 misses" in out
        code = main(["validate", "--duration", "2", "--points", "1",
                     "--skip-fairness", "--store", store])
        out = capsys.readouterr().out
        assert code == 0
        assert "6 hits, 0 misses" in out

    def test_run_scenario_flag_names_campaign_file(self, capsys, tmp_path):
        from repro.campaign import CampaignSpec
        from repro.spec import dump_spec

        path = dump_spec(CampaignSpec(experiments=("E3F",)),
                         tmp_path / "camp.json")
        assert main(["run", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "camp.json" in err and "campaign run" in err


class TestSummaryFlag:
    def _dumbbell_spec(self, tmp_path):
        from repro.spec import MultiFlowSpec, dump_spec, dumbbell
        from repro.testing import TINY_PATH

        spec = MultiFlowSpec(scenario=dumbbell(TINY_PATH, 2, ccs="reno"),
                             duration=1.5, seed=2, backend="fluid")
        return dump_spec(spec, tmp_path / "mix.json")

    def test_summary_text_on_multi_flow_spec(self, capsys, tmp_path):
        path = self._dumbbell_spec(tmp_path)
        assert main(["run", "--spec", str(path), "--summary", "text"]) == 0
        out = capsys.readouterr().out
        assert "population summary" in out
        assert "jain index" in out
        assert "concurrent flows" in out
        assert "cc reno" in out

    def test_summary_json_on_multi_flow_spec(self, capsys, tmp_path):
        path = self._dumbbell_spec(tmp_path)
        assert main(["run", "--spec", str(path), "--summary", "json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert payload["n_flows"] == 2
        assert payload["by_cc"]["reno"]["flows"] == 2
        assert len(payload["grid_times"]) == len(payload["concurrent_flows"])

    def test_summary_json_on_sweep_lists_rows(self, capsys, tmp_path):
        from repro.experiments.sweeps import fairness_sweep_spec
        from repro.spec import dump_spec
        from repro.testing import TINY_PATH

        spec = fairness_sweep_spec(start_times=(0.0, 0.5), duration=1.5,
                                   seed=2, base_config=TINY_PATH,
                                   backend="fluid")
        path = dump_spec(spec, tmp_path / "sweep.json")
        assert main(["run", "--spec", str(path), "--summary", "json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("["):])
        assert [row["label"] for row in payload] == [
            "flow1_start=0.0", "flow1_start=0.5"]
        assert all(row["summary"]["n_flows"] == 2 for row in payload)

    def test_summary_rejected_for_single_flow_results(self, capsys):
        assert main(["run", "E2F", "--duration", "2",
                     "--summary", "text"]) == 2
        assert "no population summary" in capsys.readouterr().err


class TestCampaignGcMaxBytes:
    def test_max_bytes_evicts_to_budget(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "E3F", "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "gc", "--store", store,
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "removed 12" in out and "kept 0" in out
        assert main(["campaign", "gc", "--store", store]) == 0
        assert "0 entries" in capsys.readouterr().out

    def test_max_bytes_parses(self):
        args = build_parser().parse_args(
            ["campaign", "gc", "--max-bytes", "1048576"])
        assert args.max_bytes == 1048576


class TestRunObservability:
    def test_profile_prints_phase_and_counter_table(self, capsys):
        assert main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "run", "E2", "--duration", "1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "simulate" in out
        assert "events" in out and "events/s" in out

    def test_profile_memory_reports_peak(self, capsys):
        assert main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "run", "E2", "--duration", "1", "--profile-memory"]) == 0
        assert "memory peak" in capsys.readouterr().out

    def test_profile_covers_campaign_experiments(self, capsys):
        assert main([*SMALL_FLAGS, "run", "E7", "--duration", "0.5",
                     "--profile"]) == 0
        out = capsys.readouterr().out
        assert "tuning-rule ablation" in out
        assert "phase" in out and "simulate" in out and "events/s" in out

    def test_trace_on_campaign_experiment(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        path = tmp_path / "trace.jsonl"
        assert main([*SMALL_FLAGS, "run", "E9", "--duration", "0.5",
                     "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "multi-flow fairness" in out and "trace:" in out
        assert read_jsonl(path)

    def test_profile_memory_on_campaign_experiment(self, capsys):
        assert main([*SMALL_FLAGS, "run", "E9", "--duration", "0.5",
                     "--profile-memory"]) == 0
        out = capsys.readouterr().out
        assert "multi-flow fairness" in out and "memory peak" in out

    def test_store_records_comparison_experiment(self, capsys, tmp_path):
        from repro.campaign import ResultStore

        store = tmp_path / "store"
        assert main([*SMALL_FLAGS, "run", "E8", "--duration", "0.5",
                     "--store", str(store)]) == 0
        assert "ranking" in capsys.readouterr().out
        spec = get_experiment("E8").configured_spec(config=FLAGGED_PATH,
                                                    duration=0.5)
        keys = [spec.cache_key()] + [run.cache_key()
                                     for run in spec.run_specs().values()]
        assert all(ResultStore(store).contains(key) for key in keys)

    def test_run_spec_of_a_registry_campaign_runs_the_experiment(
            self, capsys, tmp_path):
        path = tmp_path / "e9f.json"
        assert main(["spec", "dump", "E9F", "-o", str(path)]) == 0
        capsys.readouterr()
        assert main([*SMALL_FLAGS, "run", "E9F", "--duration", "1"]) == 0
        registry = capsys.readouterr().out
        assert main([*SMALL_FLAGS, "run", "--spec", str(path),
                     "--duration", "1"]) == 0
        assert capsys.readouterr().out == registry
        assert "multi-flow fairness" in registry

    def test_trace_writes_parseable_jsonl(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "run", "E2", "--duration", "1",
                     "--trace", str(path)]) == 0
        assert "trace:" in capsys.readouterr().out
        entries = read_jsonl(path)
        assert entries and {"queue"} <= {e["category"] for e in entries}

    def test_trace_categories_filter(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        path = tmp_path / "trace.jsonl"
        assert main(["--bandwidth-mbps", "20", "--rtt-ms", "40", "--ifq", "20",
                     "run", "E2", "--duration", "1", "--trace", str(path),
                     "--trace-categories", "cc"]) == 0
        assert {e["category"] for e in read_jsonl(path)} <= {"cc"}

    def test_trace_unknown_category_fails_cleanly(self, capsys, tmp_path):
        assert main(["run", "E2", "--trace", str(tmp_path / "t.jsonl"),
                     "--trace-categories", "nonsense"]) == 2
        assert "unknown trace categories" in capsys.readouterr().err

    def test_trace_categories_require_trace(self, capsys):
        assert main(["run", "E2", "--trace-categories", "cc"]) == 2
        assert "requires --trace" in capsys.readouterr().err


class TestCampaignObservability:
    def test_campaign_run_telemetry_and_progress(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "E2F", "--store", store,
                     "--progress", "--telemetry"]) == 0
        captured = capsys.readouterr()
        assert "telemetry —" in captured.out
        assert "ev/s" in captured.out
        assert "[1/" in captured.err  # heartbeat goes to stderr

    def test_campaign_status_telemetry_aggregates_hits(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["campaign", "run", "E2F", "--store", store]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", "E2F", "--store", store,
                     "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "units instrumented" in out
        assert "simulate" in out and "events" in out
