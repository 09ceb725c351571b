"""Golden schema binding — the result-store contract, pinned.

A stored result is served when its spec's ``cache_key`` and
:data:`repro.experiments.results_io.SCHEMA_VERSION` match.  The cache key
sees only the spec, so when an engine's output moves under an unchanged
spec, the schema bump is the only thing that keeps every existing store
from serving results the engines no longer compute.

The pinned result digests are the tier-1 record of what the engines
compute: the packet goldens (``tests/workloads/test_packet_goldens.py``),
the fluid goldens (``tests/fluid/test_fluid_goldens.py``) and the
restricted churn digest (``tests/fluid/test_fluid_vector.py``).  This test
binds each schema version to a sha256 over all of them, so re-pinning a
golden without a schema bump fails here.

If a failure below is intentional: bump ``SCHEMA_VERSION``, add its row to
SCHEMA_DIGESTS (the digest the failure prints), keep the older rows, and
extend the README's cache-invalidation table.
"""

from __future__ import annotations

import hashlib
import importlib.util
import pathlib

from repro.experiments.results_io import SCHEMA_VERSION

TESTS = pathlib.Path(__file__).resolve().parent.parent

#: schema version -> sha256 over the sorted pinned result digests the
#: engines produced under that version.
SCHEMA_DIGESTS = {
    3: "671095174177278fc33a1c0afb008fe2d3e720e34e559eb70731a722077830b9",
    4: "e431d8ede19ef2a3d783b87fed13bfd49f520232d99d898feb982ed5b5a68765",
}


def _load(relative: str):
    path = TESTS / relative
    spec = importlib.util.spec_from_file_location(
        f"_pins_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pinned_digests() -> dict[str, str]:
    """Every pinned result-document digest, by ``<suite>:<case>``."""
    packet = _load("workloads/test_packet_goldens.py")
    fluid = _load("fluid/test_fluid_goldens.py")
    vector = _load("fluid/test_fluid_vector.py")
    pins = {f"packet:{name}": entry[1] for name, entry in packet.GOLDENS.items()}
    pins.update({f"fluid:{name}": entry[1] for name, entry in fluid.GOLDENS.items()})
    pins["vector:restricted_churn"] = vector.RESTRICTED_CHURN_DIGEST
    return pins


def combined_digest(pins: dict[str, str]) -> str:
    return hashlib.sha256("\n".join(sorted(pins.values())).encode()).hexdigest()


class TestSchemaBinding:
    def test_current_version_has_a_row(self):
        # a bump must add its row; older rows stay as the record
        assert max(SCHEMA_DIGESTS) == SCHEMA_VERSION

    def test_pinned_digests_match_the_schema_version(self):
        pins = pinned_digests()
        digest = combined_digest(pins)
        listing = "\n".join(f"  {name}: {value[:16]}…"
                            for name, value in sorted(pins.items()))
        assert digest == SCHEMA_DIGESTS[SCHEMA_VERSION], (
            f"the pinned result digests changed under SCHEMA_VERSION "
            f"{SCHEMA_VERSION}: every stored result of this version would be "
            "served stale.  If the engines' output moved on purpose, bump "
            "results_io.SCHEMA_VERSION, add the row "
            f"{SCHEMA_VERSION + 1}: {digest!r} to SCHEMA_DIGESTS and extend "
            "the README cache-invalidation table.  Pins now:\n" + listing)

    def test_every_pin_is_a_sha256(self):
        for name, value in pinned_digests().items():
            assert len(value) == 64 and set(value) <= set("0123456789abcdef"), name
