"""The one codec: how every document (spec, result payload, metrics) is
written and read back, rule by rule."""

from __future__ import annotations

import dataclasses
import enum
import inspect
import json
import math
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro import codec
from repro.errors import DocumentError
from repro.experiments.runner import CampaignResult, ComparisonResult
from repro.spec import (
    ComparisonSpec,
    MultiFlowSpec,
    RunSpec,
    aqm_dumbbell,
    dumbbell,
    spec_from_json,
)
from repro.testing import SMALL_PATH
from repro.workloads import BulkFlowSpec


class Colour(enum.Enum):
    RED = "red"


@dataclass(frozen=True)
class Leaf:
    name: str
    weight: float = 1.0
    count: int | None = None


@dataclass(frozen=True)
class Tree:
    leaves: tuple[Leaf, ...] = ()
    by_name: dict[str, Leaf] = field(default_factory=dict)
    colour: Colour | None = None
    note: str | None = field(default=None, metadata=codec.OMIT_DEFAULT)


@dataclass(frozen=True)
class Apple(codec.Tagged):
    kind = "apple"
    size: int = 1


@dataclass(frozen=True)
class Pear(codec.Tagged):
    kind = "pear"
    ripe: bool = False


@dataclass(frozen=True)
class Basket:
    fruit: Apple | Pear = field(default_factory=Apple)


class TestEncode:
    def test_numpy_arrays_become_lists(self):
        out = codec.encode({"a": np.array([1.0, 2.0])})
        assert out == {"a": [1.0, 2.0]}

    def test_numpy_scalars_become_python(self):
        for value in (np.float64(1.5), np.int64(3), np.bool_(True)):
            out = codec.encode(value)
            assert type(out) in (float, int, bool) and out == value

    def test_infinities_are_encoded(self):
        assert codec.encode(math.inf) == "Infinity"
        assert codec.encode(-math.inf) == "-Infinity"
        assert codec.encode([1.5, math.inf]) == [1.5, "Infinity"]

    def test_numpy_values_are_taken_as_tolist_gives_them(self):
        # arrays and NumPy scalars convert in one step; an inf among them
        # stays a float, as result payloads have always stored it
        assert codec.encode(np.array([1.0, np.inf])) == [1.0, math.inf]
        assert codec.encode(np.float64(np.inf)) == math.inf

    def test_nan_is_taken_as_it_is(self):
        assert math.isnan(codec.encode(math.nan))

    def test_nested_structures(self):
        out = codec.encode({"x": [(1, 2), {"y": np.array([3])}]})
        assert out == {"x": [[1, 2], {"y": [3]}]}

    def test_enum_values_and_string_keys(self):
        assert codec.encode({1: Colour.RED}) == {"1": "red"}

    def test_dataclass_fields_by_name(self):
        tree = Tree(leaves=(Leaf("a"),), by_name={"b": Leaf("b", 2.0, 3)},
                    colour=Colour.RED)
        assert codec.encode(tree) == {
            "leaves": [{"name": "a", "weight": 1.0, "count": None}],
            "by_name": {"b": {"name": "b", "weight": 2.0, "count": 3}},
            "colour": "red",
        }

    def test_omit_default_leaves_out_only_the_default(self):
        assert "note" not in codec.encode(Tree())
        assert codec.encode(Tree(note="x"))["note"] == "x"

    def test_tagged_classes_carry_their_kind_first(self):
        assert list(codec.encode(Apple(size=2)).items()) == [("kind", "apple"),
                                                             ("size", 2)]

    def test_functions_take_no_mode(self):
        assert list(inspect.signature(codec.encode).parameters) == ["value"]
        assert list(inspect.signature(codec.decode).parameters) == ["cls", "data"]


class TestProvenance:
    def test_a_result_spec_stays_out_of_the_payload(self):
        result = CampaignResult(runs=[], spec=object())
        assert codec.encode(result) == {"runs": []}

    def test_a_missing_spec_is_kept_as_null(self):
        assert codec.encode(CampaignResult(runs=[])) == {"runs": [], "spec": None}

    def test_nested_results_drop_their_specs_too(self):
        run = dataclasses.make_dataclass(
            "Run", [("x", int), ("spec", object, field(default=None,
                                                      metadata=codec.PROVENANCE))])
        result = ComparisonResult(baseline="reno", runs={"reno": run(1, spec=RunSpec())},
                                  spec=ComparisonSpec())
        assert codec.encode(result) == {"baseline": "reno", "runs": {"reno": {"x": 1}}}

    def test_a_spec_inside_a_spec_is_kind_tagged(self):
        document = ComparisonSpec(base=RunSpec(cc="reno")).to_dict()
        assert document["kind"] == "comparison"
        assert document["base"]["kind"] == "run"

    def test_flow_ecn_false_is_left_out(self):
        plain = dumbbell(SMALL_PATH, 1).to_dict()
        assert all("ecn" not in flow for flow in plain["flows"])
        marked = aqm_dumbbell(SMALL_PATH, 1, discipline="red", ecn=True).to_dict()
        assert all(flow["ecn"] is True for flow in marked["flows"])
        # also inside a spec that nests the scenario
        run = RunSpec(scenario=dumbbell(SMALL_PATH, 1)).to_dict()
        assert all("ecn" not in flow for flow in run["scenario"]["flows"])

    def test_absent_churn_is_left_out(self):
        assert "churn" not in MultiFlowSpec(flows=(BulkFlowSpec(),)).to_dict()


class TestDecode:
    def test_round_trip_through_json(self):
        tree = Tree(leaves=(Leaf("a", math.inf),), by_name={"b": Leaf("b", 2.0, 3)},
                    colour=Colour.RED, note="n")
        text = json.dumps(codec.encode(tree))
        assert "Infinity" in text and json.loads(text)["leaves"][0]["weight"] == "Infinity"
        assert codec.decode(Tree, json.loads(text)) == tree

    def test_negative_infinity_decodes_where_a_float_is_annotated(self):
        assert codec.decode(Leaf, {"name": "a", "weight": "-Infinity"}).weight == -math.inf

    def test_infinity_in_an_untyped_container_round_trips(self):
        spec = RunSpec(cc="limited_slow_start",
                       cc_kwargs={"max_ssthresh_segments": math.inf})
        assert spec.to_dict()["cc_kwargs"] == {"max_ssthresh_segments": "Infinity"}
        assert spec_from_json(spec.to_json()) == spec

    def test_tagged_union_picks_by_kind(self):
        assert codec.decode(Basket, {"fruit": {"kind": "pear", "ripe": True}}) \
            == Basket(Pear(ripe=True))
        # an untagged document takes the union's first class
        assert codec.decode(Basket, {"fruit": {"size": 3}}) == Basket(Apple(3))
        with pytest.raises(DocumentError, match="must be one of"):
            codec.decode(Basket, {"fruit": {"kind": "plum"}})

    def test_unknown_field_raises_the_codec_error(self):
        with pytest.raises(DocumentError, match=r"unknown Leaf field\(s\).*\['colour'\]"):
            codec.decode(Leaf, {"name": "a", "colour": "red"})

    def test_missing_required_field(self):
        with pytest.raises(DocumentError, match=r"lacks required field\(s\) \['name'\]"):
            codec.decode(Leaf, {})

    def test_null_takes_the_default_only_where_it_means_one(self):
        assert codec.decode(Leaf, {"name": "a", "count": None}) == Leaf("a")
        with pytest.raises(DocumentError, match="'weight' cannot be null"):
            codec.decode(Leaf, {"name": "a", "weight": None})

    def test_nested_values_are_checked(self):
        with pytest.raises(DocumentError, match=r"unknown Leaf field"):
            codec.decode(Tree, {"by_name": {"b": {"name": "b", "size": 1}}})
        with pytest.raises(DocumentError, match="Tree.leaves cannot take a dict"):
            codec.decode(Tree, {"leaves": {}})
        with pytest.raises(DocumentError, match="unknown Tree.colour 'blue'"):
            codec.decode(Tree, {"colour": "blue"})

    def test_not_an_object(self):
        with pytest.raises(DocumentError, match="must be a JSON object, got list"):
            codec.decode(Leaf, [])

    def test_unsupported_annotation_is_named(self):
        @dataclass
        class Odd:
            value: set[int]

        with pytest.raises(DocumentError, match="Odd.value: the codec has no rule"):
            codec.decode(Odd, {"value": []})

