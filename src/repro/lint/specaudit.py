"""Reflection-based spec auditor (``repro lint --specs``).

The campaign cache addresses results by ``spec.cache_key()``, so every
registered spec kind must uphold the same hygiene contract the golden-key
tests pin for today's kinds — and must keep upholding it when a future PR
registers a new kind.  This auditor walks the live registry
(:data:`repro.spec.specs.SPEC_KINDS`, lazy kinds imported first) and
verifies, for each kind's example instance:

========  ==================================================================
code      contract
========  ==================================================================
SPEC001   the class is a frozen dataclass (specs are value objects)
SPEC002   ``from_dict(to_dict())`` reconstructs the spec field-by-field
SPEC003   unknown document fields are rejected loudly (typo safety)
SPEC004   ``cache_key()`` is stable across a JSON round trip
SPEC005   the ``kind`` tag dispatches back to the same class, and an
          example instance is constructible at all
========  ==================================================================

New kinds are covered automatically: the registry is the source of truth,
and a kind whose defaults cannot construct provides a minimal
``example()`` classmethod (see :meth:`repro.spec.SpecBase.example`).
Every kind decodes through the one annotation-driven
:meth:`repro.spec.SpecBase.from_dict`, so SPEC002 also fails a kind with a
field annotation that decoder has no rule for.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import TYPE_CHECKING

from ..errors import ReproError
from .findings import Finding

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..spec.specs import SpecBase

__all__ = ["SPEC_AUDIT_CODES", "audit_specs"]

#: One-line summary per audit code (mirrors the module docstring table).
SPEC_AUDIT_CODES: dict[str, str] = {
    "SPEC001": "spec class must be a frozen dataclass",
    "SPEC002": "to_dict/from_dict must round-trip field-by-field",
    "SPEC003": "unknown document fields must be rejected",
    "SPEC004": "cache_key must be stable across a JSON round trip",
    "SPEC005": "kind tag must dispatch back to the class; example must construct",
}

#: A field name no real spec will ever grow, used to probe SPEC003.
_PROBE_FIELD = "repro_lint_unknown_field_probe"


def _finding(kind: str, code: str, message: str) -> Finding:
    return Finding(path="<specs>", line=1, column=0, code=code,
                   message=f"spec kind {kind!r}: {message}", snippet=kind)


def _registered_kinds() -> dict[str, type["SpecBase"]]:
    """The full registry, lazy kinds imported so the walk is complete."""
    from ..spec.specs import _LAZY_KINDS, SPEC_KINDS

    for kind, module in _LAZY_KINDS.items():
        if kind not in SPEC_KINDS:
            importlib.import_module(module)
    return dict(SPEC_KINDS)


def _audit_kind(kind: str, cls: type["SpecBase"]) -> list[Finding]:
    findings: list[Finding] = []

    # SPEC001 — frozen dataclass
    if not dataclasses.is_dataclass(cls):
        findings.append(_finding(kind, "SPEC001",
                                 f"{cls.__name__} is not a dataclass"))
        return findings
    params = getattr(cls, "__dataclass_params__", None)
    if params is None or not params.frozen:
        findings.append(_finding(
            kind, "SPEC001",
            f"{cls.__name__} is not frozen: specs are value objects whose "
            "identity is their cache_key — a mutable spec can drift from "
            "the key its result was stored under"))

    # SPEC005 (construction half) — an example instance must be buildable
    try:
        example: "SpecBase" = cls.example()
    except Exception as exc:  # noqa: BLE001 - report, don't crash the audit
        findings.append(_finding(
            kind, "SPEC005",
            f"cannot construct an example instance ({type(exc).__name__}: "
            f"{exc}); give {cls.__name__} a minimal example() classmethod"))
        return findings

    # SPEC005 (dispatch half) — the kind tag must map back to the class
    document = example.to_dict()
    if document.get("kind") != kind:
        findings.append(_finding(
            kind, "SPEC005",
            f"to_dict() tags the document {document.get('kind')!r}, not the "
            "registered kind"))
    from ..spec.specs import spec_from_dict

    try:
        decoded = spec_from_dict(document)
    except ReproError as exc:
        findings.append(_finding(
            kind, "SPEC002", f"from_dict rejects its own to_dict output: {exc}"))
        return findings
    if type(decoded) is not cls:
        findings.append(_finding(
            kind, "SPEC005",
            f"spec_from_dict dispatched the {kind!r} document to "
            f"{type(decoded).__name__}, not {cls.__name__}"))
        return findings

    # SPEC002 — field-by-field round trip
    for f in dataclasses.fields(cls):
        original = getattr(example, f.name)
        rebuilt = getattr(decoded, f.name)
        if original != rebuilt:
            findings.append(_finding(
                kind, "SPEC002",
                f"field {f.name!r} does not survive to_dict/from_dict: "
                f"{original!r} became {rebuilt!r}"))
    if decoded != example:
        findings.append(_finding(
            kind, "SPEC002",
            "decoded spec compares unequal to the original (check __eq__ "
            "and normalisation in __post_init__)"))

    # SPEC003 — unknown fields must be rejected
    try:
        spec_from_dict({**document, _PROBE_FIELD: 1})
    except ReproError:
        pass
    else:
        findings.append(_finding(
            kind, "SPEC003",
            "a document with an unknown field decodes silently; drop the "
            "from_dict override (SpecBase.from_dict decodes every kind from "
            "its field annotations and rejects unknown fields) so typos "
            "fail loudly instead of being dropped (they would change "
            "nothing but the user's intent)"))

    # SPEC004 — cache-key stability across serialization
    key = example.cache_key()
    if decoded.cache_key() != key:
        findings.append(_finding(
            kind, "SPEC004",
            "cache_key changes across a to_dict/from_dict round trip — "
            "stored results would never be found again"))
    from ..spec.specs import spec_from_json

    if spec_from_json(example.to_json()).cache_key() != key:
        findings.append(_finding(
            kind, "SPEC004",
            "cache_key changes across a JSON text round trip"))
    return findings


def audit_specs() -> list[Finding]:
    """Audit every registered spec kind; returns the (sorted) findings."""
    findings: list[Finding] = []
    for kind, cls in sorted(_registered_kinds().items()):
        findings.extend(_audit_kind(kind, cls))
    return sorted(findings)
