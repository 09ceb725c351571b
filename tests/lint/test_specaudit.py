"""The reflection-based spec auditor (``repro lint --specs``).

The positive case — every registered kind passes — is the important one:
it is what CI runs.  The negative cases register deliberately broken spec
kinds and check that the auditor names the broken contract.
"""

from __future__ import annotations

import dataclasses
from typing import ClassVar

import pytest

from repro.lint import audit_specs
from repro.lint.specaudit import SPEC_AUDIT_CODES, _registered_kinds
from repro.spec.specs import SPEC_KINDS, SpecBase


class TestRegistryPasses:
    def test_every_registered_kind_is_clean(self):
        assert audit_specs() == []

    def test_walk_includes_lazy_kinds(self):
        # the campaign kind registers on import; the auditor must import it
        assert "campaign" in _registered_kinds()

    def test_known_kinds_present(self):
        kinds = _registered_kinds()
        for kind in ("run", "comparison", "multi_flow", "sweep", "campaign"):
            assert kind in kinds


@pytest.fixture
def registered():
    """Register a broken spec class for one test, then unregister it."""
    added: list[str] = []

    def register(cls):
        added.append(cls.kind)
        return cls

    yield register
    for kind in added:
        SPEC_KINDS.pop(kind, None)


def findings_for(kind):
    return [f for f in audit_specs() if f.snippet == kind]


class TestBrokenKindsAreCaught:
    def test_non_dataclass_spec(self, registered):
        @registered
        class NotADataclass(SpecBase):
            kind: ClassVar[str] = "lint_test_not_dataclass"

        codes = [f.code for f in findings_for("lint_test_not_dataclass")]
        assert codes == ["SPEC001"]

    def test_unconstructible_example(self, registered):
        @registered
        @dataclasses.dataclass(frozen=True)
        class NoExample(SpecBase):
            kind: ClassVar[str] = "lint_test_no_example"
            required: str = dataclasses.field(
                default_factory=lambda: (_ for _ in ()).throw(
                    ValueError("no default")))

        codes = [f.code for f in findings_for("lint_test_no_example")]
        assert codes == ["SPEC005"]

    def test_unknown_fields_swallowed(self, registered):
        @registered
        @dataclasses.dataclass(frozen=True)
        class Sloppy(SpecBase):
            kind: ClassVar[str] = "lint_test_sloppy"
            value: int = 1

            @classmethod
            def from_dict(cls, data):
                # silently drops anything it does not recognise — the typo
                # hazard SPEC003 exists to catch
                return cls(value=int(data.get("value", 1)))

        codes = [f.code for f in findings_for("lint_test_sloppy")]
        assert codes == ["SPEC003"]

    def test_field_type_without_a_decoder_rule(self, registered):
        @registered
        @dataclasses.dataclass(frozen=True)
        class Undecodable(SpecBase):
            kind: ClassVar[str] = "lint_test_undecodable"
            tags: frozenset = frozenset()

        findings = findings_for("lint_test_undecodable")
        assert [f.code for f in findings] == ["SPEC002"]
        assert "Undecodable.tags" in findings[0].message

    def test_audit_code_table_is_complete(self):
        assert sorted(SPEC_AUDIT_CODES) == [
            "SPEC001", "SPEC002", "SPEC003", "SPEC004", "SPEC005"]
