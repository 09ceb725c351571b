"""Tests for the declarative campaign spec and its flattening."""

from __future__ import annotations

import pickle

import pytest

from repro.campaign import CampaignSpec, CampaignUnit
from repro.errors import ExperimentError
from repro.experiments import get_experiment
from repro.experiments.sweeps import ifq_sweep_spec
from repro.spec import (
    ComparisonSpec,
    MultiFlowSpec,
    RunSpec,
    dumbbell,
    spec_from_dict,
    spec_from_json,
)
from repro.testing import TINY_PATH


def small_campaign() -> CampaignSpec:
    return CampaignSpec(
        name="test",
        units=(RunSpec(config=TINY_PATH, duration=1.0),
               ComparisonSpec(base=RunSpec(config=TINY_PATH, duration=1.0))),
        experiments=("E3F",),
        sweeps=(ifq_sweep_spec(sizes=(10, 20), duration=1.0,
                               base_config=TINY_PATH, backend="fluid"),),
    )


class TestConstruction:
    def test_empty_campaign_rejected(self):
        with pytest.raises(ExperimentError, match="empty campaign"):
            CampaignSpec()

    def test_sweep_in_units_redirected(self):
        with pytest.raises(ExperimentError, match="belongs in sweeps"):
            CampaignSpec(units=(ifq_sweep_spec(),))

    def test_non_sweep_in_sweeps_rejected(self):
        with pytest.raises(ExperimentError, match="must be SweepSpec"):
            CampaignSpec(sweeps=(RunSpec(),))

    def test_unknown_experiment_rejected_eagerly(self):
        with pytest.raises(ExperimentError, match="unknown experiment"):
            CampaignSpec(experiments=("E42",))

    def test_campaign_experiment_contributes_its_units(self):
        # E7's spec is itself a campaign: it flattens into its cells,
        # labelled under the experiment id
        units = CampaignSpec(experiments=("E7F",)).expand()
        cells = get_experiment("E7F").spec.expand()
        assert [u.spec for u in units] == [c.spec for c in cells]
        assert [u.label for u in units] == [f"E7F/{c.label}" for c in cells]

    def test_scenario_not_a_unit(self):
        with pytest.raises(ExperimentError):
            CampaignSpec(units=(dumbbell(TINY_PATH, 1),))


class TestExpansion:
    def test_point_granularity(self):
        campaign = small_campaign()
        units = campaign.expand()
        # unit0 (1) + comparison (2 algos) + E3F (6 points x 2 algos)
        # + sweep (2 points x 2 algos)
        assert len(units) == 1 + 2 + 12 + 4
        assert all(isinstance(u, CampaignUnit) for u in units)
        assert all(u.spec.kind in ("run", "multi_flow") for u in units)

    def test_labels_name_point_and_algorithm(self):
        labels = [u.label for u in small_campaign().expand()]
        assert "unit1/restricted" in labels
        assert "E3F[ifq_capacity_packets=25]/reno" in labels
        assert "ifq_size_sweep[ifq_capacity_packets=10]/restricted" in labels

    def test_comparison_flattens_to_per_algorithm_runs(self):
        campaign = CampaignSpec(units=(ComparisonSpec(
            base=RunSpec(config=TINY_PATH), algorithms=("reno", "restricted")),))
        units = campaign.expand()
        assert [u.spec.cc for u in units] == ["reno", "restricted"]

    def test_multiflow_unit_stays_atomic(self):
        campaign = CampaignSpec(
            units=(MultiFlowSpec(scenario=dumbbell(TINY_PATH, 2),
                                 duration=1.0),))
        units = campaign.expand()
        assert len(units) == 1
        assert units[0].spec.kind == "multi_flow"


class TestOverrides:
    """``with_*`` apply to every unit and sweep, as on the other kinds."""

    def campaign(self) -> CampaignSpec:
        return CampaignSpec(
            units=(RunSpec(duration=1.0),
                   ComparisonSpec(base=RunSpec(duration=1.0))),
            sweeps=(ifq_sweep_spec(sizes=(10, 20), duration=1.0),))

    def test_every_member_takes_the_override(self):
        campaign = self.campaign()
        for method, value in (("with_config", TINY_PATH), ("with_duration", 2.0),
                              ("with_seed", 5), ("with_backend", "fluid")):
            changed = getattr(campaign, method)(value)
            assert changed.units == tuple(getattr(unit, method)(value)
                                          for unit in campaign.units)
            assert changed.sweeps == tuple(getattr(sweep, method)(value)
                                           for sweep in campaign.sweeps)

    def test_path_and_backend_read_the_first_unit(self):
        campaign = self.campaign().with_config(TINY_PATH).with_backend("fluid")
        assert campaign.path_config == TINY_PATH
        assert campaign.backend == "fluid"

    def test_named_experiments_refuse_overrides(self):
        with pytest.raises(ExperimentError, match="E3F"):
            CampaignSpec(experiments=("E3F",)).with_seed(2)


class TestSerialization:
    def test_json_round_trip(self):
        campaign = small_campaign()
        clone = spec_from_json(campaign.to_json())
        assert clone == campaign
        assert clone.cache_key() == campaign.cache_key()

    def test_kind_registered_lazily(self):
        # spec_from_dict must resolve "campaign" even in a fresh process
        # (exercised here at least via the registry path)
        document = small_campaign().to_dict()
        assert document["kind"] == "campaign"
        assert isinstance(spec_from_dict(document), CampaignSpec)

    def test_unknown_field_rejected(self):
        document = small_campaign().to_dict()
        document["surprise"] = 1
        with pytest.raises(ExperimentError, match="surprise"):
            spec_from_dict(document)

    def test_unit_kind_policed_on_decode(self):
        document = CampaignSpec(units=(RunSpec(),)).to_dict()
        document["units"] = [ifq_sweep_spec().to_dict()]
        with pytest.raises(ExperimentError, match="units entries"):
            spec_from_dict(document)

    def test_pickles(self):
        campaign = small_campaign()
        assert pickle.loads(pickle.dumps(campaign)) == campaign

    def test_expansion_is_deterministic(self):
        a = [u.cache_key for u in small_campaign().expand()]
        b = [u.cache_key for u in small_campaign().expand()]
        assert a == b
