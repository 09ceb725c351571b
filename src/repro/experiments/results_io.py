"""Persisting experiment results.

Long sweeps are expensive to rerun, so the harness can serialise results to
JSON and reload them for later analysis or regression comparison.  Only
plain data is stored (floats, ints, lists, dictionaries).  The payload and
the spec are both written by the one codec, :func:`repro.codec.encode`:
NumPy arrays and scalars become lists and Python numbers, a Python float
``±inf`` (the Web100 ``CurSsthresh`` before the first loss, say) the string
``"Infinity"``/``"-Infinity"``, and a result's ``spec`` field, marked as
provenance, stays out of the payload because the document carries it once
at the top level.

The format is intentionally simple and stable:

.. code-block:: json

    {
      "kind": "single_flow",
      "schema_version": 4,
      "spec": { "kind": "run", ... },
      "cache_key": "sha256...",
      "payload": { ... }
    }

``kind`` names the result type: ``single_flow``, ``multi_flow``,
``comparison``, ``sweep``, ``flow`` or ``campaign`` (a campaign's payload
holds its unit payloads in ``expand()`` order).

Version 2 added the metrics plane (``records``/``summary`` on multi-flow
payloads).  Version 3 changed no field: it marks the results of multi-flow
specs in the ``flows=`` form, which the packet engine now runs as the
scenario :func:`~repro.spec.scenario.from_bulk_flows` declares (honouring
``path_index`` and a restricted flow's ``cc_kwargs``).  Version 4 dropped
the single-flow ``events_processed`` work count (the telemetry sidecar
keeps it) and made every aggregate goodput delivered bits over the
summary horizon.  Documents at a
version in :data:`LEGACY_SCHEMA_VERSIONS` still
load — they simply predate those fields — while unknown (future or
nonsense) versions are rejected.  The campaign store is stricter on
purpose: a cached entry at a legacy version is a *miss* (see
:mod:`repro.campaign.store`), because a cache hit must be
indistinguishable from a fresh run.

``spec`` and ``cache_key`` are present when the result carries its
originating declarative spec (:mod:`repro.spec`): the spec document is the
run's provenance record (``repro run --spec`` replays it via
:func:`repro.spec.load_spec`) and the cache key is the spec's stable
content hash, the lookup key for spec-keyed result caching.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

from ..codec import encode
from ..errors import ExperimentError
from ..spec import spec_from_dict
from .runner import (
    CampaignResult,
    ComparisonResult,
    FlowResult,
    MultiFlowResult,
    SingleFlowResult,
)
from .sweeps import SweepResult

__all__ = [
    "result_document",
    "save_result",
    "load_result",
    "validate_document",
    "SCHEMA_VERSION",
    "LEGACY_SCHEMA_VERSIONS",
]

#: Bumped whenever the on-disk layout changes incompatibly.
#: 2: multi-flow payloads carry canonical flow ``records`` + a population
#: ``summary`` (the unified metrics plane).
#: 3: same layout; the packet engine runs ``MultiFlowSpec(flows=...)`` as
#: its ``from_bulk_flows`` scenario, so those results changed under
#: unchanged cache keys.
#: 4: single-flow payloads lose ``events_processed`` (a work count, kept in
#: the telemetry sidecar as ``events``/``fluid_steps``), and every
#: aggregate goodput and link utilization is delivered bits over the
#: summary horizon instead of a sum of per-flow goodputs.
SCHEMA_VERSION = 4

#: Older versions :func:`validate_document` still accepts (read-compatible:
#: they merely lack fields added since).  The campaign store does NOT serve
#: cache hits from these — see :meth:`repro.campaign.store.ResultStore.get`.
LEGACY_SCHEMA_VERSIONS = frozenset({1, 2, 3})

_KINDS = {
    "single_flow": SingleFlowResult,
    "multi_flow": MultiFlowResult,
    "comparison": ComparisonResult,
    "sweep": SweepResult,
    "flow": FlowResult,
    "campaign": CampaignResult,
}


def _kind_of(result: Any) -> str:
    for kind, cls in _KINDS.items():
        if isinstance(result, cls):
            return kind
    raise ExperimentError(
        f"cannot serialise results of type {type(result).__name__}; "
        f"supported: {sorted(_KINDS)}"
    )


def result_document(result: Any) -> dict:
    """The plain-data document a result serialises to (see module docstring).

    The same document is what :func:`save_result` writes to disk and what
    the campaign result store (:mod:`repro.campaign`) caches under the
    spec's ``cache_key`` — building it here keeps exactly one definition of
    the on-disk layout.
    """
    document = {
        "kind": _kind_of(result),
        "schema_version": SCHEMA_VERSION,
        "payload": encode(result),
    }
    spec = getattr(result, "spec", None)
    if spec is not None:
        document["spec"] = spec.to_dict()
        document["cache_key"] = spec.cache_key()
    telemetry = getattr(result, "telemetry", None)
    if telemetry is not None:
        # Observability sidecar: top-level on purpose, NEVER inside payload
        # or spec — cache_key hashes the spec document only, so documents
        # with and without telemetry key (and byte-compare) identically.
        document["telemetry"] = telemetry.to_dict()
    return document


def save_result(result: Any, path: str | pathlib.Path) -> pathlib.Path:
    """Serialise a result object to ``path`` (JSON).  Returns the path."""
    path = pathlib.Path(path)
    document = result_document(result)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2, sort_keys=True))
    return path


def validate_document(document: Any, source: str = "document") -> dict:
    """Check a loaded result document's shape, schema version and integrity.

    The integrity check recomputes the embedded spec's ``cache_key`` from
    the spec document itself: a stored ``cache_key`` that does not match is
    either a tampered/hand-edited file or a stale artefact of an older
    serialization — both silently poison spec-keyed caching, so they are
    rejected loudly instead of returned.
    """
    if not isinstance(document, dict) or "payload" not in document:
        raise ExperimentError(f"{source} is not a saved repro result")
    version = document.get("schema_version")
    if version != SCHEMA_VERSION and version not in LEGACY_SCHEMA_VERSIONS:
        raise ExperimentError(
            f"unsupported result schema version {version!r} (expected "
            f"{SCHEMA_VERSION} or a legacy version in "
            f"{sorted(LEGACY_SCHEMA_VERSIONS)})"
        )
    if document.get("kind") not in _KINDS:
        raise ExperimentError(f"unknown result kind {document.get('kind')!r}")
    if "spec" in document:
        recomputed = spec_from_dict(document["spec"]).cache_key()
        if document.get("cache_key") != recomputed:
            raise ExperimentError(
                f"{source} fails its integrity check: the embedded spec's "
                f"cache_key recomputes to {recomputed} but the document "
                f"records {document.get('cache_key')!r} — the file was "
                "tampered with or saved by an incompatible serialization"
            )
    return document


def load_result(path: str | pathlib.Path) -> dict:
    """Load a previously saved result.

    Returns a dictionary ``{"kind": ..., "schema_version": ..., "payload": ...}``
    where the payload mirrors the dataclass fields of the original result.
    Reconstruction into live dataclasses is deliberately not attempted — the
    consumers of saved results (plotting, regression diffs) want plain data.
    Documents embedding a spec are integrity-checked: the spec's
    ``cache_key`` is recomputed and a mismatch raises
    :class:`ExperimentError` instead of returning a tampered/stale document.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ExperimentError(f"no saved result at {path}")
    try:
        document = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ExperimentError(f"corrupt result file {path}: {exc}") from exc
    return validate_document(document, source=str(path))
