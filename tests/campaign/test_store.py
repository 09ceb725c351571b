"""Tests for the content-addressed result store."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.campaign import ResultStore
from repro.errors import ExperimentError
from repro.experiments.results_io import SCHEMA_VERSION, load_result, result_document
from repro.spec import RunSpec, execute
from repro.testing import TINY_PATH


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


@pytest.fixture
def fluid_result():
    return execute(RunSpec(cc="reno", config=TINY_PATH, duration=1.0,
                           seed=1, backend="fluid"))


class TestPutGet:
    def test_roundtrip(self, store, fluid_result):
        key = store.put(fluid_result)
        assert key == fluid_result.spec.cache_key()
        assert store.contains(key)
        document = store.get(key)
        assert document["kind"] == "single_flow"
        assert document["cache_key"] == key
        assert (document["payload"]["flow"]["bytes_acked"]
                == fluid_result.flow.bytes_acked)

    def test_get_miss_returns_none(self, store):
        assert store.get("0" * 64) is None
        assert not store.contains("0" * 64)

    def test_hit_miss_counters(self, store, fluid_result):
        key = store.put(fluid_result)
        store.get("0" * 64)
        store.get(key)
        assert store.misses == 1
        assert store.hits == 1

    def test_put_overwrites_atomically(self, store, fluid_result):
        key = store.put(fluid_result)
        store.put(fluid_result)
        assert store.get(key) is not None
        # no temporary files left behind
        leftovers = list(store.objects_dir.glob("**/*.tmp"))
        assert leftovers == []

    def test_entries_are_compact_json_of_the_document(self, store, fluid_result):
        document = result_document(fluid_result)
        key = store.put_document(document)
        text = store.path_for(key).read_text()
        assert text == json.dumps(document, sort_keys=True, separators=(",", ":"))
        assert store.get(key) == json.loads(json.dumps(document))

    def test_indented_entry_written_the_old_way_is_a_hit(self, store, fluid_result):
        # entries used to be written with json.dump(indent=2); readers parse
        # with json, so a store filled that way keeps serving hits
        document = result_document(fluid_result)
        key = document["cache_key"]
        path = store.path_for(key)
        path.parent.mkdir(parents=True)
        with path.open("w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
        assert store.get(key) == json.loads(json.dumps(document))
        assert store.hits == 1 and store.misses == 0

    def test_malformed_key_rejected(self, store):
        with pytest.raises(ExperimentError):
            store.get("not-a-key")

    def test_result_without_spec_rejected(self, store, fluid_result):
        fluid_result.spec = None
        with pytest.raises(ExperimentError):
            store.put(fluid_result)

    def test_document_without_cache_key_rejected(self, store, fluid_result):
        document = result_document(fluid_result)
        document.pop("cache_key")
        document.pop("spec")
        with pytest.raises(ExperimentError):
            store.put_document(document)


class TestIntegrityAndSchema:
    def test_stale_schema_is_a_miss(self, store, fluid_result):
        key = store.put(fluid_result)
        path = store.path_for(key)
        document = json.loads(path.read_text())
        document["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(document))
        assert store.get(key) is None

    def test_schema_2_entry_is_a_miss_but_still_loads(self, store, fluid_result):
        # schema 2 results may predate the flows= form running as its
        # from_bulk_flows scenario: readable, never served as a hit
        key = store.put(fluid_result)
        path = store.path_for(key)
        document = json.loads(path.read_text())
        document["schema_version"] = 2
        path.write_text(json.dumps(document))
        assert store.get(key) is None
        assert load_result(path)["schema_version"] == 2

    def test_tampered_spec_is_a_miss(self, store, fluid_result):
        key = store.put(fluid_result)
        path = store.path_for(key)
        document = json.loads(path.read_text())
        document["spec"]["duration"] = 99.0  # cache_key no longer matches
        path.write_text(json.dumps(document))
        assert store.get(key) is None

    def test_corrupt_json_is_a_miss(self, store, fluid_result):
        key = store.put(fluid_result)
        store.path_for(key).write_text("{not json")
        assert store.get(key) is None

    def test_non_utf8_entry_is_a_miss(self, store, fluid_result):
        key = store.put(fluid_result)
        store.path_for(key).write_bytes(b"\xff\xfe not utf-8")
        assert store.get(key) is None

    def test_misfiled_document_is_a_miss(self, store, fluid_result):
        key = store.put(fluid_result)
        wrong = "f" * 64
        target = store.path_for(wrong)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store.path_for(key).read_text())
        assert store.get(wrong) is None


class TestMaintenance:
    def test_stats(self, store, fluid_result):
        store.put(fluid_result)
        stats = store.stats()
        assert stats.entries == 1
        assert stats.total_bytes > 0
        assert stats.by_kind == {"single_flow": 1}
        assert stats.stale == 0

    def test_stats_empty_store(self, store):
        stats = store.stats()
        assert stats.entries == 0
        assert "0 entries" in stats.render()

    def test_gc_removes_stale_keeps_valid(self, store, fluid_result):
        key = store.put(fluid_result)
        other = execute(RunSpec(cc="reno", config=TINY_PATH, duration=0.5,
                                seed=2, backend="fluid"))
        stale_key = store.put(other)
        path = store.path_for(stale_key)
        document = json.loads(path.read_text())
        document["schema_version"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(document))

        stats = store.gc()
        assert stats.removed == 1
        assert stats.kept == 1
        assert stats.reclaimed_bytes > 0
        assert store.get(key) is not None

    def test_gc_clear_wipes_everything(self, store, fluid_result):
        store.put(fluid_result)
        stats = store.gc(clear=True)
        assert stats.removed == 1
        assert store.stats().entries == 0

    def test_gc_older_than(self, store, fluid_result):
        import os
        import time

        key = store.put(fluid_result)
        old = time.time() - 3600.0
        os.utime(store.path_for(key), (old, old))
        assert store.gc(older_than_s=7200.0).removed == 0
        assert store.gc(older_than_s=60.0).removed == 1

    def test_gc_max_bytes_evicts_oldest_first(self, store, fluid_result):
        import os

        keys = []
        for seed in (3, 4, 5):
            result = execute(RunSpec(cc="reno", config=TINY_PATH,
                                     duration=0.5, seed=seed,
                                     backend="fluid"))
            keys.append(store.put(result))
        # back-date so age order is deterministic: keys[0] oldest
        base = store.path_for(keys[0]).stat().st_mtime
        for age, key in enumerate(keys):
            when = base - 100.0 * (len(keys) - age)
            os.utime(store.path_for(key), (when, when))
        newest_size = store.path_for(keys[2]).stat().st_size

        stats = store.gc(max_bytes=newest_size)
        assert stats.removed == 2
        assert stats.kept == 1
        assert stats.reclaimed_bytes > 0
        assert not store.contains(keys[0])
        assert not store.contains(keys[1])
        assert store.contains(keys[2])

    def test_gc_max_bytes_noop_under_budget(self, store, fluid_result):
        key = store.put(fluid_result)
        stats = store.gc(max_bytes=store.stats().total_bytes)
        assert stats.removed == 0
        assert stats.kept == 1
        assert store.contains(key)

    def test_gc_max_bytes_zero_evicts_every_survivor(self, store, fluid_result):
        store.put(fluid_result)
        stats = store.gc(max_bytes=0)
        assert stats.removed == 1
        assert stats.kept == 0
        assert store.stats().entries == 0

    def test_gc_max_bytes_negative_rejected(self, store):
        with pytest.raises(ExperimentError, match="max_bytes"):
            store.gc(max_bytes=-1)

    def test_gc_max_bytes_composes_with_age_cutoff(self, store, fluid_result):
        import os

        old_key = store.put(fluid_result)
        other = execute(RunSpec(cc="reno", config=TINY_PATH, duration=0.5,
                                seed=9, backend="fluid"))
        new_key = store.put(other)
        written_at = store.path_for(new_key).stat().st_mtime
        stale = written_at - 7200.0
        os.utime(store.path_for(old_key), (stale, stale))
        # the age pass drops the stale entry; the size pass keeps the rest
        stats = store.gc(older_than_s=3600.0,
                         max_bytes=store.path_for(new_key).stat().st_size,
                         clock=lambda: written_at)
        assert stats.removed == 1
        assert stats.kept == 1
        assert store.contains(new_key)

    def test_gc_injected_clock(self, store, fluid_result):
        # instead of back-dating mtimes, move "now" forward: entries age
        # deterministically and the test never sleeps
        key = store.put(fluid_result)
        written_at = store.path_for(key).stat().st_mtime
        assert store.gc(older_than_s=60.0,
                        clock=lambda: written_at + 30.0).removed == 0
        assert store.gc(older_than_s=60.0,
                        clock=lambda: written_at + 90.0).removed == 1


class TestDefaults:
    def test_env_var_names_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "env-store"))
        assert ResultStore().root == tmp_path / "env-store"

    def test_fallback_default_root(self, monkeypatch):
        monkeypatch.delenv("REPRO_RESULT_STORE", raising=False)
        assert str(ResultStore().root) == ".repro-cache"


class TestJunkFilenames:
    """Maintenance must tolerate files a strict key lookup cannot name."""

    def _plant_junk(self, store):
        junk = store.objects_dir / "ab" / "not-a-key.json"
        junk.parent.mkdir(parents=True, exist_ok=True)
        junk.write_text("backup copy")
        return junk

    def test_stats_counts_junk_as_stale(self, store, fluid_result):
        store.put(fluid_result)
        self._plant_junk(store)
        stats = store.stats()
        assert stats.entries == 2
        assert stats.stale == 1

    def test_gc_reclaims_junk(self, store, fluid_result):
        store.put(fluid_result)
        junk = self._plant_junk(store)
        stats = store.gc()
        assert stats.removed == 1
        assert not junk.exists()
        assert store.stats().entries == 1


class TestUnreadableEntries:
    """An entry that cannot be read is a miss, never an exception."""

    def test_directory_at_entry_path_is_skipped(self, store, fluid_result):
        store.put(fluid_result)
        blocked = "ab" + "0" * 62
        store.path_for(blocked).mkdir(parents=True)
        assert store.get(blocked) is None
        assert not store.contains(blocked)
        assert store.misses == 1
        stats = store.stats()
        assert (stats.entries, stats.stale) == (1, 0)
        gc = store.gc()
        assert (gc.removed, gc.kept) == (0, 1)
        assert store.path_for(blocked).is_dir()

    def test_entry_removed_between_listing_and_read_is_a_miss(
            self, store, fluid_result, monkeypatch):
        key = store.put(fluid_result)
        read_text = pathlib.Path.read_text

        def removed_first(path, *args, **kwargs):
            path.unlink()  # a concurrent gc wins the race
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "read_text", removed_first)
        assert store.get(key) is None
        assert store.misses == 1

    def test_unreadable_file_is_a_stale_miss(self, store, fluid_result,
                                             monkeypatch):
        key = store.put(fluid_result)

        def denied(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(pathlib.Path, "read_text", denied)
        assert store.get(key) is None
        stats = store.stats()
        assert (stats.entries, stats.stale) == (1, 1)
