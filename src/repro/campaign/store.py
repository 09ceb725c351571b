"""Content-addressed on-disk store of experiment result documents.

The store maps a spec's ``cache_key()`` (the sha256 of its canonical JSON,
see :meth:`repro.spec.SpecBase.cache_key`) to the same result document
:func:`repro.experiments.results_io.save_result` writes — so a stored entry
is simultaneously a cache hit for the campaign executor and a normal saved
result any existing consumer (plotting, regression diffs) can load.

Layout (all JSON; result entries are compact, one line each)::

    <root>/
      objects/<key[:2]>/<key>.json   one result document per cache key
      manifests/<key>.json           campaign manifests (see repro.campaign.run)

Guarantees:

* **atomic writes** — documents are written to a temporary file in the
  same directory and ``os.replace``\\ d into place, so a crashed or
  interrupted run never leaves a half-written entry for a later run to
  trip over;
* **schema-version awareness** — entries are stamped with
  :data:`~repro.experiments.results_io.SCHEMA_VERSION`; a bump invalidates
  every older entry (reads treat them as misses, :meth:`ResultStore.gc`
  deletes them).  That makes "how do I invalidate the cache?" a
  non-question: change the result layout, bump the version;
* **integrity on read** — every document is re-checked on ``get`` (shape,
  schema version, and the embedded spec's recomputed ``cache_key``); an
  entry that fails — tampered, hand-edited, or stored under the wrong
  name — is treated as a miss rather than returned.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ExperimentError

__all__ = [
    "ResultStore",
    "StoreStats",
    "GCStats",
    "STORE_ENV",
    "DEFAULT_STORE_ROOT",
]

#: Environment variable naming the default store root (CI, shared boxes).
STORE_ENV = "REPRO_RESULT_STORE"

#: Store root used when neither an explicit path nor the env var is given.
DEFAULT_STORE_ROOT = ".repro-cache"

_HEX = set("0123456789abcdef")


def _checked_key(key: str) -> str:
    if not (isinstance(key, str) and len(key) == 64 and set(key) <= _HEX):
        raise ExperimentError(
            f"cache keys are 64-char sha256 hex digests, got {key!r}")
    return key


@dataclass(frozen=True)
class StoreStats:
    """Snapshot of a store's contents (``repro campaign gc`` prints one)."""

    root: str
    entries: int
    total_bytes: int
    by_kind: dict = field(default_factory=dict)
    stale: int = 0

    def render(self) -> str:
        kinds = ", ".join(f"{k}={n}" for k, n in sorted(self.by_kind.items()))
        line = (f"store {self.root}: {self.entries} entries, "
                f"{self.total_bytes / 1024:.1f} KiB")
        if kinds:
            line += f" ({kinds})"
        if self.stale:
            line += f", {self.stale} stale/invalid (run gc)"
        return line


@dataclass(frozen=True)
class GCStats:
    """What one :meth:`ResultStore.gc` pass removed."""

    removed: int
    kept: int
    reclaimed_bytes: int

    def render(self) -> str:
        return (f"gc: removed {self.removed}, kept {self.kept}, "
                f"reclaimed {self.reclaimed_bytes / 1024:.1f} KiB")


class ResultStore:
    """Content-addressed result cache keyed by spec ``cache_key()``.

    ``hits``/``misses`` count this process's ``get`` outcomes — the
    campaign executor reports them and tests assert on them.
    """

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        if root is None:
            root = os.environ.get(STORE_ENV) or DEFAULT_STORE_ROOT
        self.root = pathlib.Path(root)
        self.hits = 0
        self.misses = 0

    # -- layout ----------------------------------------------------------
    @property
    def objects_dir(self) -> pathlib.Path:
        return self.root / "objects"

    @property
    def manifests_dir(self) -> pathlib.Path:
        return self.root / "manifests"

    def path_for(self, key: str) -> pathlib.Path:
        key = _checked_key(key)
        return self.objects_dir / key[:2] / f"{key}.json"

    def _object_paths(self) -> list[pathlib.Path]:
        """Every regular file named like an entry; anything else under
        ``objects/`` (a directory, a socket) is neither read nor unlinked."""
        if not self.objects_dir.is_dir():
            return []
        return sorted(path for path in self.objects_dir.glob("*/*.json")
                      if path.is_file())

    # -- reads -----------------------------------------------------------
    def contains(self, key: str) -> bool:
        """Whether a *valid* entry exists for ``key`` (checked like ``get``)."""
        return self._read(key) is not None

    def get(self, key: str) -> dict | None:
        """The stored result document for ``key``, or ``None`` on a miss.

        Corrupt, stale-schema and integrity-failing entries count as misses
        (and are reclaimed by :meth:`gc`), so callers never need to guard a
        hit: a returned document is well-formed at the current schema
        version and its embedded spec hashes to ``key``.
        """
        document = self._read(key)
        if document is None:
            self.misses += 1
        else:
            self.hits += 1
        return document

    def _read(self, key: str) -> dict | None:
        return self._read_path(self.path_for(key), key)

    @staticmethod
    def _read_path(path: pathlib.Path, key: str) -> dict | None:
        from ..experiments.results_io import SCHEMA_VERSION, validate_document

        try:
            document = validate_document(json.loads(path.read_text()),
                                         source=str(path))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                ExperimentError):
            # OSError: absent (a concurrent gc may just have removed it) or
            # unreadable, such as a directory in the entry's place
            return None
        if document.get("schema_version") != SCHEMA_VERSION:
            # validate_document tolerates legacy versions so saved files
            # keep loading, but a cache hit must be indistinguishable from
            # a fresh run — legacy entries are misses (and gc fodder)
            return None
        if document.get("cache_key") != key:
            return None  # filed under the wrong name — do not trust it
        return document

    def _entry_document(self, path: pathlib.Path) -> dict | None:
        """The valid document behind one ``objects/`` file, else ``None``.

        Unlike :meth:`get` this tolerates junk *filenames* too (editor
        backups, hand-copied files): maintenance must be able to walk —
        and reclaim — entries a strict key lookup would refuse to name.
        """
        stem = path.stem
        if len(stem) != 64 or not set(stem) <= _HEX:
            return None
        return self._read_path(path, stem)

    # -- writes ----------------------------------------------------------
    def put(self, result) -> str:
        """Store a live result object; returns its cache key.

        The result must carry its originating spec (every
        ``repro.spec.execute`` result does) — the spec is both the cache
        key and the provenance record embedded in the stored document.
        """
        from ..experiments.results_io import result_document

        if getattr(result, "spec", None) is None:
            raise ExperimentError(
                f"cannot store a {type(result).__name__} without a spec: "
                "the spec's cache_key is the store address (run it through "
                "repro.spec.execute)")
        return self.put_document(result_document(result))

    def put_document(self, document: dict) -> str:
        """Store a result document under its own ``cache_key``; atomic."""
        from ..experiments.results_io import validate_document

        validate_document(document, source="document to store")
        key = document.get("cache_key")
        if key is None:
            raise ExperimentError(
                "cannot store a result document without a spec/cache_key: "
                "the cache key is the store address")
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                # compact, in one write: json.dumps without indent runs the C
                # encoder, json.dump(indent=...) the pure-Python one
                handle.write(json.dumps(document, sort_keys=True, separators=(",", ":")))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):  # left behind only on failure
                os.unlink(tmp)
        return key

    # -- maintenance -----------------------------------------------------
    def stats(self) -> StoreStats:
        """Entry counts, sizes and kinds (stale/invalid entries counted)."""
        entries = 0
        total = 0
        stale = 0
        by_kind: dict[str, int] = {}
        for path in self._object_paths():
            entries += 1
            total += path.stat().st_size
            document = self._entry_document(path)
            if document is None:
                stale += 1
                continue
            kind = document.get("kind", "?")
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return StoreStats(root=str(self.root), entries=entries,
                          total_bytes=total, by_kind=by_kind, stale=stale)

    def gc(self, older_than_s: float | None = None, clear: bool = False,
           clock: Callable[[], float] | None = None,
           max_bytes: int | None = None) -> GCStats:
        """Delete unusable (and optionally old, oversized, or all) entries.

        By default only entries a ``get`` would refuse anyway are removed:
        corrupt JSON, documents at a different ``schema_version`` (the
        cache-invalidation mechanism — bump the version, gc the store), and
        integrity failures.  ``older_than_s`` additionally drops valid
        entries whose file modification time is older than that many
        seconds; ``max_bytes`` then evicts surviving entries oldest-first
        (by mtime, ties broken by filename for determinism) until the
        survivors' total size fits the budget; ``clear=True`` wipes
        everything.

        ``clock`` supplies "now" for the age cutoff and defaults to the
        wall clock — entry mtimes are wall-clock stamps, so that *is* gc's
        contract, and the injection point exists so tests can age entries
        without sleeping.  This is also the repo's canonical ``REP002``
        pragma example: results must never depend on the host clock, but a
        cache-eviction cutoff is not part of any result.
        """
        import time

        if clock is None:
            clock = time.time  # repro: allow[REP002] gc's age cutoff compares wall-clock mtimes; never result-affecting
        if max_bytes is not None and max_bytes < 0:
            raise ExperimentError("gc max_bytes must be >= 0")
        removed = reclaimed = 0
        survivors: list[tuple[float, str, pathlib.Path, int]] = []
        cutoff = (clock() - older_than_s) if older_than_s is not None else None
        for path in self._object_paths():
            stat = path.stat()
            size = stat.st_size
            drop = clear or self._entry_document(path) is None
            if not drop and cutoff is not None and stat.st_mtime < cutoff:
                drop = True
            if drop:
                path.unlink()
                removed += 1
                reclaimed += size
            else:
                survivors.append((stat.st_mtime, path.name, path, size))
        kept = len(survivors)
        if max_bytes is not None:
            total = sum(size for _mtime, _name, _path, size in survivors)
            for _mtime, _name, path, size in sorted(survivors):
                if total <= max_bytes:
                    break
                path.unlink()
                removed += 1
                kept -= 1
                reclaimed += size
                total -= size
        return GCStats(removed=removed, kept=kept, reclaimed_bytes=reclaimed)

