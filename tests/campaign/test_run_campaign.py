"""Tests for the memoized campaign executor and document batch helper."""

from __future__ import annotations

import hashlib
import types

import pytest

import repro.campaign.run as campaign_run
import repro.spec.specs as specs_module
from repro.campaign import (
    CampaignSpec,
    ResultStore,
    campaign_status,
    execute_spec_documents,
    run_campaign,
    write_manifest,
)
from repro.errors import ExperimentError
from repro.experiments.sweeps import ifq_sweep_spec
from repro.spec import ComparisonSpec, MultiFlowSpec, RunSpec, dumbbell
from repro.testing import TINY_PATH


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


def fluid_campaign(duration: float = 1.0) -> CampaignSpec:
    return CampaignSpec(
        name="fluid-mini",
        # seed=3 keeps the unit distinct from the sweep's ifq=10 reno point
        units=(RunSpec(config=TINY_PATH, duration=duration, seed=3,
                       backend="fluid"),
               MultiFlowSpec(scenario=dumbbell(TINY_PATH, 2), duration=duration,
                             backend="fluid")),
        sweeps=(ifq_sweep_spec(sizes=(10, 20), duration=duration,
                               base_config=TINY_PATH, backend="fluid"),),
    )


def count_executions(monkeypatch):
    """Patch the worker to count real spec executions."""
    calls = []
    original = campaign_run._timed_document

    def counting(spec):
        calls.append(spec.cache_key())
        return original(spec)

    monkeypatch.setattr(campaign_run, "_timed_document", counting)
    return calls


class TestRunCampaign:
    def test_cold_run_computes_everything(self, store):
        manifest = run_campaign(fluid_campaign(), store, max_workers=0)
        assert manifest.hits == 0
        assert manifest.misses == len(manifest.units) == 6
        assert {u.status for u in manifest.units} == {"computed"}
        assert all(u.wall_s > 0 for u in manifest.units)
        assert store.stats().entries == 6

    def test_warm_rerun_is_all_hits_and_executes_nothing(self, store,
                                                         monkeypatch):
        run_campaign(fluid_campaign(), store, max_workers=0)
        calls = count_executions(monkeypatch)
        manifest = run_campaign(fluid_campaign(), store, max_workers=0)
        assert calls == []
        assert manifest.misses == 0
        assert manifest.hit_rate == 1.0
        assert {u.status for u in manifest.units} == {"hit"}

    def test_resume_after_partial_store(self, store, monkeypatch):
        # simulate an interruption: evict exactly one stored unit
        run_campaign(fluid_campaign(), store, max_workers=0)
        victim = fluid_campaign().expand()[0].cache_key
        store.path_for(victim).unlink()

        calls = count_executions(monkeypatch)
        manifest = run_campaign(fluid_campaign(), store, max_workers=0)
        assert calls == [victim]
        assert manifest.hits == 5
        assert manifest.misses == 1

    def test_duplicate_units_execute_once(self, store, monkeypatch):
        spec = RunSpec(config=TINY_PATH, duration=1.0, backend="fluid")
        campaign = CampaignSpec(units=(spec, spec))
        calls = count_executions(monkeypatch)
        manifest = run_campaign(campaign, store, max_workers=0)
        assert len(calls) == 1
        assert len(manifest.units) == 1
        assert manifest.deduplicated == 1

    def test_parallel_run_matches_serial(self, store, tmp_path):
        serial = run_campaign(fluid_campaign(), store, max_workers=0)
        other = ResultStore(tmp_path / "store2")
        parallel = run_campaign(fluid_campaign(), other, max_workers=2)
        assert ([u.cache_key for u in serial.units]
                == [u.cache_key for u in parallel.units])
        for unit in serial.units:
            a = store.get(unit.cache_key)["payload"]
            b = other.get(unit.cache_key)["payload"]
            assert a == b


class TestStatusAndManifest:
    def test_status_never_executes(self, store, monkeypatch):
        calls = count_executions(monkeypatch)
        manifest = campaign_status(fluid_campaign(), store)
        assert calls == []
        assert not manifest.executed
        assert {u.status for u in manifest.units} == {"pending"}
        assert store.stats().entries == 0

    def test_manifest_document(self, store, tmp_path):
        import json

        manifest = run_campaign(fluid_campaign(), store, max_workers=0)
        path = write_manifest(manifest, tmp_path / "m.json")
        document = json.loads(path.read_text())
        assert document["total_units"] == 6
        assert document["misses"] == 6
        assert document["hit_rate"] == 0.0
        assert len(document["units"]) == 6
        assert {u["status"] for u in document["units"]} == {"computed"}

    def test_manifest_default_path_is_in_store(self, store):
        manifest = run_campaign(fluid_campaign(), store, max_workers=0)
        path = write_manifest(manifest)
        assert path.parent == store.manifests_dir
        assert manifest.campaign_key in path.name

    def test_render_mentions_hit_rate(self, store):
        run_campaign(fluid_campaign(), store, max_workers=0)
        manifest = run_campaign(fluid_campaign(), store, max_workers=0)
        assert "hit rate 100.0%" in manifest.render()


class TestExecuteSpecDocuments:
    def test_documents_in_input_order_without_store(self):
        specs = [RunSpec(config=TINY_PATH, duration=1.0, seed=s,
                         backend="fluid") for s in (1, 2)]
        documents = execute_spec_documents(specs, max_workers=0)
        assert [d["spec"]["seed"] for d in documents] == [1, 2]
        assert all(d["kind"] == "single_flow" for d in documents)

    def test_store_round_trip_and_hits(self, store):
        specs = [RunSpec(config=TINY_PATH, duration=1.0, backend="fluid")]
        first = execute_spec_documents(specs, store=store, max_workers=0)
        again = execute_spec_documents(specs, store=store, max_workers=0)
        assert first == again
        assert store.hits == 1  # second call served from disk

    def test_duplicates_collapse(self, store, monkeypatch):
        calls = count_executions(monkeypatch)
        spec = RunSpec(config=TINY_PATH, duration=1.0, backend="fluid")
        documents = execute_spec_documents([spec, spec], store=store,
                                           max_workers=0)
        assert len(calls) == 1
        assert documents[0] == documents[1]

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            execute_spec_documents([])


class TestValidateThroughStore:
    def test_cross_validate_is_incremental(self, store, monkeypatch):
        from repro.fluid.validate import cross_validate

        grid = [TINY_PATH]
        first = cross_validate(grid=grid, algorithms=("reno",), duration=1.0,
                               store=store)
        assert store.stats().entries == 2  # packet + fluid
        calls = count_executions(monkeypatch)
        second = cross_validate(grid=grid, algorithms=("reno",), duration=1.0,
                                store=store)
        assert calls == []
        assert ([r.packet_goodput_bps for r in first.rows]
                == [r.packet_goodput_bps for r in second.rows])
        assert ([r.fluid_ifq_peak for r in first.rows]
                == [r.fluid_ifq_peak for r in second.rows])


class TestIncrementalWriteBack:
    def test_successes_stored_before_failure_propagates(self, store):
        # cc="martian" constructs fine but fails at execute time
        good = RunSpec(config=TINY_PATH, duration=1.0, backend="fluid")
        bad = RunSpec(cc="martian", config=TINY_PATH, duration=1.0)
        with pytest.raises(Exception):
            execute_spec_documents([good, bad], store=store, max_workers=0)
        # the completed unit survived the failure: the rerun hits it
        assert store.contains(good.cache_key())

    def test_parallel_failure_still_stores_successes(self, store):
        good = RunSpec(config=TINY_PATH, duration=1.0, backend="fluid")
        bad = RunSpec(cc="martian", config=TINY_PATH, duration=1.0)
        with pytest.raises(Exception):
            execute_spec_documents([good, bad], store=store, max_workers=2)
        assert store.contains(good.cache_key())


class TestExecuteWriteThrough:
    def test_sweep_execution_stores_points(self, store):
        from repro.spec import execute

        sweep = ifq_sweep_spec(sizes=(10, 20), duration=1.0,
                               base_config=TINY_PATH, backend="fluid")
        execute(sweep, store=store)
        # composite + 2 points x 2 algorithms
        assert store.stats().entries == 5
        for _value, by_algo in sweep.point_specs():
            for point in by_algo.values():
                assert store.contains(point.cache_key())

    def test_registry_sweep_write_through_feeds_campaigns(self, store,
                                                          monkeypatch):
        from repro.experiments import get_experiment

        get_experiment("E3F").run(store=store)
        calls = count_executions(monkeypatch)
        manifest = run_campaign(CampaignSpec(experiments=("E3F",)), store,
                                max_workers=0)
        assert calls == []
        assert manifest.misses == 0

    def test_comparison_execution_stores_children(self, store):
        from repro.spec import ComparisonSpec, execute

        spec = ComparisonSpec(base=RunSpec(config=TINY_PATH, duration=1.0,
                                           backend="fluid"))
        execute(spec, store=store)
        for child in spec.run_specs().values():
            assert store.contains(child.cache_key())
        assert store.contains(spec.cache_key())


class TestKeyDerivations:
    def test_warm_rerun_keys_each_unit_instance_once(self, store,
                                                     monkeypatch):
        def campaign():
            return CampaignSpec(
                name="keyed-once",
                units=(ComparisonSpec(base=RunSpec(config=TINY_PATH,
                                                   duration=1.0, seed=3,
                                                   backend="fluid")),),
                sweeps=(ifq_sweep_spec(sizes=(10, 20), duration=1.0,
                                       base_config=TINY_PATH,
                                       backend="fluid"),))

        run_campaign(campaign(), store, max_workers=0)
        expanded = []
        expand = CampaignSpec.expand

        def recording_expand(self):
            units = expand(self)
            expanded.extend(units)
            return units

        derivations = []

        def counting_sha256(data):
            derivations.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(CampaignSpec, "expand", recording_expand)
        monkeypatch.setattr(specs_module, "hashlib",
                            types.SimpleNamespace(sha256=counting_sha256))
        manifest = run_campaign(campaign(), store, max_workers=0)
        assert manifest.hits == len(manifest.units) > 0
        # the campaign's own key, one per expanded unit-spec instance, and
        # one per hit: the store re-derives each embedded spec's key
        instances = len({id(unit.spec) for unit in expanded})
        assert len(derivations) == 1 + instances + manifest.hits
