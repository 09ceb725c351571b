"""Pinned spec documents: each decodes to the same spec, key and document.

``spec_documents.json`` holds hand-written and legacy-shaped documents
(a ``RunSpec`` without ``backend``/``scenario`` keys, ``null`` containers,
an untagged sweep base, QueueSpec/LossSpec links, churn, every unit kind of
a campaign) together with the ``cache_key()`` and the canonical
``to_dict()`` their decoded spec had when the fixture was recorded.  Every
stored result is addressed by that key, so a decoder change that moves one
of them silently orphans cached results.  Do not regenerate the fixture to
make a failure go away; a real format change bumps
``results_io.SCHEMA_VERSION`` and says so.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.spec import spec_from_dict, spec_from_json

ENTRIES = json.loads(
    (pathlib.Path(__file__).with_name("spec_documents.json")).read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e["name"])
class TestPinnedDocuments:
    def test_decodes_to_the_pinned_key_and_document(self, entry):
        spec = spec_from_dict(entry["document"])
        assert spec.cache_key() == entry["cache_key"]
        assert spec.to_dict() == entry["to_dict"]

    def test_canonical_document_decodes_to_an_equal_spec(self, entry):
        spec = spec_from_dict(entry["document"])
        canonical = spec_from_json(json.dumps(entry["to_dict"]))
        assert canonical == spec
        assert canonical.cache_key() == entry["cache_key"]


def test_fixture_covers_every_spec_kind():
    kinds = {entry["document"]["kind"] for entry in ENTRIES}
    assert kinds == {"run", "comparison", "multi_flow", "sweep", "scenario",
                     "campaign"}


def test_decoding_without_churn_stays_import_light():
    # A fresh interpreter: decoding a run and a packet multi-flow document
    # must not load an engine package (campaign stores decode thousands).
    script = """
import sys
from repro.spec import MultiFlowSpec, RunSpec, spec_from_dict
from repro.workloads import BulkFlowSpec
documents = [
    RunSpec(cc="restricted", duration=2.0).to_dict(),
    MultiFlowSpec(flows=(BulkFlowSpec(), BulkFlowSpec(cc="restricted"))).to_dict(),
]
for document in documents:
    spec_from_dict(document)
heavy = sorted(name for name in sys.modules
               if name.startswith(("repro.fluid", "repro.experiments")))
assert not heavy, heavy
"""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})


def test_importing_the_codec_stays_import_light():
    # every layer encodes and decodes through repro.codec, so importing it
    # must load neither NumPy nor an engine nor the spec layer
    script = """
import sys
import repro.codec
heavy = sorted(name for name in sys.modules
               if name == "numpy" or name.startswith(
                   ("numpy.", "repro.net", "repro.tcp", "repro.sim",
                    "repro.host", "repro.fluid", "repro.spec")))
assert not heavy, heavy
"""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    subprocess.run([sys.executable, "-c", script], check=True,
                   env={**os.environ, "PYTHONPATH": str(src)})
