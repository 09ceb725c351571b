"""Guard: importing the package loads only the runtime dependencies it declares.

A fresh interpreter imports the spec, campaign and CLI surfaces.  Every
third-party top-level module it then holds, minus what a bare interpreter
already loads at start-up (``site`` hooks), must be listed in pyproject's
``dependencies``.  An undeclared import would fail on a clean install and
cost every short-lived process its import time.
"""

from __future__ import annotations

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROBE = """
import sys
{imports}
print(" ".join(sorted({{name.partition(".")[0] for name in sys.modules}})))
"""


def loaded_top_level(imports: str) -> set[str]:
    """Top-level module names a fresh interpreter holds after ``imports``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE.format(imports=imports)],
                         env=env, cwd=ROOT, capture_output=True, text=True,
                         check=True)
    return set(out.stdout.split())


def declared_dependencies() -> set[str]:
    """Distribution names in pyproject's ``[project] dependencies``."""
    text = (ROOT / "pyproject.toml").read_text()
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert block is not None, "pyproject.toml declares no dependencies list"
    return {
        re.match(r"[A-Za-z0-9_.-]+", dep).group(0).lower().replace("-", "_")
        for dep in re.findall(r"[\"']([^\"']+)[\"']", block.group(1))
    }


def test_runtime_imports_are_declared_dependencies():
    baseline = loaded_top_level("pass")
    loaded = loaded_top_level("import repro.spec, repro.campaign, repro.cli")
    assert "repro" in loaded
    third_party = {
        name for name in loaded - baseline
        if name != "repro" and not name.startswith("__")
        and name not in sys.stdlib_module_names
    }
    assert third_party <= declared_dependencies(), (
        f"undeclared runtime imports: {sorted(third_party - declared_dependencies())}")
