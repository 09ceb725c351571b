"""Registry consistency: every entry's derived spec actually runs.

Replaces the old kwarg-shim assumptions (``config_kwarg``/``duration_kwarg``
string indirection) with direct checks on the declarative specs: each
fluid-capable experiment runs under both backends on a small grid, the
fluid variants are literal ``with_backend("fluid")`` derivations, and the
campaign-shaped entries (E7, E9, E13) take the same uniform overrides.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import ExperimentError
from repro.experiments import EXPERIMENTS, all_experiments, get_experiment
from repro.experiments.registry import ExperimentSpec
from repro.experiments.sweeps import SweepResult
from repro.spec import ComparisonSpec, SweepSpec, execute, spec_from_json
from repro.testing import SMALL_PATH
from repro.workloads import PathConfig

SPEC_IDS = [entry.experiment_id for entry in all_experiments()
            if entry.base_id is None]
#: Comparison and sweep entries that can derive a fluid variant (excludes
#: packet-only algorithms and scenarios: E8's cubic/hystart, the parking lot).
FLUID_CAPABLE_IDS = [experiment_id for experiment_id in SPEC_IDS
                     if isinstance(get_experiment(experiment_id).spec,
                                   (ComparisonSpec, SweepSpec))
                     and f"{experiment_id}F" in EXPERIMENTS]
SCENARIO_IDS = [experiment_id for experiment_id in SPEC_IDS
                if getattr(get_experiment(experiment_id).spec, "scenario", None)]
#: Entries whose spec is a campaign of cells.
CAMPAIGN_IDS = ["E7", "E9", "E13"]


def _shrunk(spec):
    """Scale a registry spec down to a fast two-point grid on SMALL_PATH."""
    spec = spec.with_config(SMALL_PATH).with_duration(1.5).with_seed(2)
    if isinstance(spec, SweepSpec):
        field_values = (spec.field_values[:2]
                        if spec.field_values is not None else None)
        spec = spec.replace(values=spec.values[:2], field_values=field_values)
    return spec


class TestSpecEntries:
    @pytest.mark.parametrize("experiment_id", FLUID_CAPABLE_IDS)
    def test_runs_under_both_backends(self, experiment_id):
        entry = get_experiment(experiment_id)
        for backend in ("packet", "fluid"):
            spec = _shrunk(entry.spec).with_backend(backend)
            result = execute(spec, max_workers=1)
            if isinstance(spec, SweepSpec):
                assert isinstance(result, SweepResult)
                assert len(result.rows) == len(spec.values)
                assert all(spec.row_key in row for row in result.rows)
            else:
                assert set(result.runs) == set(spec.algorithms)
                for run in result.runs.values():
                    assert run.backend == backend
                    assert run.flow.bytes_acked > 0
            assert result.spec == spec

    @pytest.mark.parametrize("experiment_id", SPEC_IDS)
    def test_spec_round_trips(self, experiment_id):
        entry = get_experiment(experiment_id)
        clone = spec_from_json(entry.spec.to_json())
        assert clone == entry.spec
        assert clone.cache_key() == entry.spec.cache_key()

    def test_run_applies_uniform_overrides(self):
        result = get_experiment("E2").run(config=SMALL_PATH, duration=1.5,
                                          seed=2, backend="fluid")
        assert result.duration == 1.5
        assert result.comparison.runs["reno"].backend == "fluid"

    def test_run_takes_only_the_uniform_overrides(self):
        with pytest.raises(TypeError, match="warp"):
            get_experiment("E3").run(config=SMALL_PATH, warp=9)

    def test_pinned_variant_rejects_other_backend(self):
        with pytest.raises(ExperimentError, match="pinned"):
            get_experiment("E2F").run(config=SMALL_PATH, duration=1.0,
                                      backend="packet")


class TestScenarioEntries:
    """Registry entries whose spec carries a declared scenario (E11)."""

    def test_parking_lot_is_registered_packet_only(self):
        assert "E11" in SCENARIO_IDS
        entry = get_experiment("E11")
        assert entry.spec.scenario.name == "parking_lot"
        # no derived fluid variant exists for a multi-flow scenario
        with pytest.raises(ExperimentError, match="unknown experiment"):
            get_experiment("E11F")

    def test_parking_lot_runs_scaled_down(self):
        result = get_experiment("E11").run(duration=0.75, seed=2)
        assert len(result.flows) == 4
        assert all(f.goodput_bps > 0 for f in result.flows)
        assert 0.0 < result.jain_index <= 1.0

    def test_parking_lot_rejects_fluid(self):
        # multi-flow fluid exists now, but only for the canonical dumbbell:
        # the parking lot's shape is named in the rejection
        with pytest.raises(ExperimentError, match="packet backend instead"):
            get_experiment("E11").run(backend="fluid")


class TestCampaignEntries:
    """E7, E9 and E13: campaigns of cells, folded into their tables."""

    @pytest.mark.parametrize("experiment_id", CAMPAIGN_IDS)
    def test_spec_is_a_campaign_of_atomic_cells(self, experiment_id):
        spec = get_experiment(experiment_id).spec
        assert spec.kind == "campaign"
        assert spec.units and not spec.experiments and not spec.sweeps
        assert len(spec.expand()) == len(spec.units)

    def test_every_entry_takes_a_backend(self):
        # the backend goes through with_backend; a packet-only shape names
        # what the fluid engine cannot run
        for experiment_id in ("E7", "E8", "E9", "E13"):
            entry = get_experiment(experiment_id)
            assert entry.backend_aware
            if f"{experiment_id}F" not in EXPERIMENTS:
                with pytest.raises(ExperimentError, match="fluid"):
                    entry.configured_spec(backend="fluid")

    def test_fairness_entry_runs_on_the_fluid_backend(self):
        result = get_experiment("E9").run(
            config=SMALL_PATH, duration=2.0, seed=2, backend="fluid")
        assert len(result.rows) == 6
        assert result.runs[(2, "standard")].backend == "fluid"
        assert result.telemetry is not None

    def test_fluid_variants_of_campaigns(self):
        for base_id in ("E7", "E9"):
            variant = get_experiment(f"{base_id}F")
            assert variant.spec == get_experiment(base_id).spec.with_backend("fluid")
            assert variant.build_result is get_experiment(base_id).build_result
        result = get_experiment("E7F").run(config=SMALL_PATH, duration=1.5, seed=2)
        assert [row["rule"] for row in result.rows][-1] == "relay_tuned+allcock_modified"

    def test_relay_row_keeps_the_registry_gains_under_a_path_override(self):
        # every E7 row derives its gains from the default path; a path
        # override does not re-tune the relay row
        spec = get_experiment("E7").configured_spec(config=SMALL_PATH)
        assert [unit.rss_config for unit in spec.units] == [
            unit.rss_config for unit in get_experiment("E7").spec.units]
        assert all(unit.config == SMALL_PATH for unit in spec.units)

    def test_gallery_rebuilds_through_its_builder(self):
        # E13's path and flow starts derive from the requested path and
        # duration, so overrides rebuild the grid instead of editing cells
        from repro.experiments.aqm_gallery import aqm_gallery_grid_spec

        entry = get_experiment("E13")
        assert entry.spec == aqm_gallery_grid_spec()
        assert entry.configured_spec(config=SMALL_PATH, duration=3.0, seed=4) \
            == aqm_gallery_grid_spec(config=SMALL_PATH, duration=3.0, seed=4)

    def test_registry_specs_start_from_the_default_path(self):
        # the CLI's path flags edit PathConfig's defaults, which is every
        # overridable registry spec's own path
        for entry in all_experiments():
            if entry.builder is None:
                assert entry.spec.path_config == PathConfig(), entry.experiment_id

    def test_run_records_every_unit_in_a_store(self, tmp_path):
        from repro.campaign import ResultStore

        store = ResultStore(tmp_path / "store")
        entry = get_experiment("E9F")
        entry.run(config=SMALL_PATH, duration=1.0, max_workers=0, store=store)
        spec = entry.configured_spec(config=SMALL_PATH, duration=1.0)
        assert all(store.contains(unit.cache_key) for unit in spec.expand())


class TestShimRemoval:
    def test_kwarg_shims_are_gone(self):
        stored = {f.name for f in dataclasses.fields(ExperimentSpec)}
        assert {"config_kwarg", "duration_kwarg",
                "backend_aware", "pinned_backend"}.isdisjoint(stored)
        entry = get_experiment("E3")
        assert not hasattr(entry, "config_kwarg")
        assert not hasattr(entry, "duration_kwarg")

    def test_every_entry_has_a_spec(self):
        stored = {f.name for f in dataclasses.fields(ExperimentSpec)}
        assert "runner" not in stored
        for entry in all_experiments():
            assert entry.spec.cache_key()
