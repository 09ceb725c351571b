"""Tests for result serialisation."""

from __future__ import annotations

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments.results_io import (
    SCHEMA_VERSION,
    load_result,
    save_result,
)
from repro.experiments.sweeps import setpoint_sweep_spec
from repro.spec import RunSpec, execute
from repro.testing import SMALL_PATH


class TestSaveLoadRoundtrip:
    def test_single_flow_roundtrip(self, tmp_path):
        result = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=1.0, seed=1))
        path = save_result(result, tmp_path / "run.json")
        assert path.exists()
        loaded = load_result(path)
        assert loaded["kind"] == "single_flow"
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["payload"]["flow"]["algorithm"] == "reno"
        assert loaded["payload"]["flow"]["bytes_acked"] == result.flow.bytes_acked

    def test_sweep_roundtrip(self, tmp_path):
        sweep = execute(setpoint_sweep_spec(setpoints=(0.9,), duration=1.0, seed=1,
                                            base_config=SMALL_PATH), max_workers=1)
        path = save_result(sweep, tmp_path / "sweep.json")
        loaded = load_result(path)
        assert loaded["kind"] == "sweep"
        assert loaded["payload"]["rows"][0]["setpoint_fraction"] == 0.9

    def test_campaign_roundtrip(self, tmp_path):
        from repro.campaign import CampaignSpec

        spec = CampaignSpec(units=(
            RunSpec(cc="reno", config=SMALL_PATH, duration=1.0, backend="fluid"),
            RunSpec(cc="restricted", config=SMALL_PATH, duration=1.0, backend="fluid")))
        result = execute(spec, max_workers=0)
        loaded = load_result(save_result(result, tmp_path / "campaign.json"))
        assert loaded["kind"] == "campaign"
        assert loaded["cache_key"] == spec.cache_key()
        # unit payloads in expand() order, each without its own spec
        algorithms = [run["flow"]["algorithm"] for run in loaded["payload"]["runs"]]
        assert algorithms == [unit.spec.cc for unit in spec.expand()]
        assert all("spec" not in run for run in loaded["payload"]["runs"])

    def test_file_is_valid_json(self, tmp_path):
        result = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=0.5, seed=1))
        path = save_result(result, tmp_path / "r.json")
        json.loads(path.read_text())

    def test_unsupported_type_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            save_result({"not": "a result"}, tmp_path / "x.json")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ExperimentError):
            load_result(tmp_path / "nope.json")

    def test_corrupt_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ExperimentError):
            load_result(path)

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"kind": "single_flow", "schema_version": 0,
                                    "payload": {}}))
        with pytest.raises(ExperimentError):
            load_result(path)

    def test_non_result_document_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ExperimentError):
            load_result(path)


class TestIntegrityCheck:
    """Documents embedding a spec must hash-check on load."""

    def _saved(self, tmp_path):
        from repro.spec import RunSpec, execute

        result = execute(RunSpec(cc="reno", config=SMALL_PATH, duration=1.0,
                                 backend="fluid"))
        return save_result(result, tmp_path / "r.json")

    def test_untampered_document_loads(self, tmp_path):
        from repro.spec import spec_from_dict

        path = self._saved(tmp_path)
        document = load_result(path)
        assert "spec" in document
        assert (spec_from_dict(document["spec"]).cache_key()
                == document["cache_key"])

    def test_tampered_spec_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        document["spec"]["seed"] = 999  # payload now lies about its origin
        path.write_text(json.dumps(document))
        with pytest.raises(ExperimentError, match="integrity"):
            load_result(path)

    def test_tampered_cache_key_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        document["cache_key"] = "0" * 64
        path.write_text(json.dumps(document))
        with pytest.raises(ExperimentError, match="integrity"):
            load_result(path)

    def test_missing_cache_key_with_spec_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        del document["cache_key"]
        path.write_text(json.dumps(document))
        with pytest.raises(ExperimentError, match="integrity"):
            load_result(path)

    def test_specless_document_still_loads(self, tmp_path):
        # pre-spec documents (no provenance) have nothing to check
        path = self._saved(tmp_path)
        document = json.loads(path.read_text())
        del document["spec"], document["cache_key"]
        path.write_text(json.dumps(document))
        assert load_result(path)["kind"] == "single_flow"
