"""Guard: every example script and benchmark module imports cleanly.

Nothing else imports ``examples/*.py`` or ``benchmarks/bench_*.py``, so a
reference to a removed or renamed name would otherwise surface only when
someone runs the script.  Importing a module runs its top-level imports
and definitions; the scripts' ``main()`` sits behind ``__main__`` guards
and the benchmarks' bodies inside test functions, so nothing simulates.
"""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
BENCHMARKS = sorted((ROOT / "benchmarks").glob("bench_*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"_example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("path", BENCHMARKS, ids=lambda p: p.stem)
def test_benchmark_imports(path, monkeypatch):
    # benchmark modules import their shared helpers relatively, so they load
    # as members of the ``benchmarks`` package rooted at the repository
    monkeypatch.syspath_prepend(str(ROOT))
    importlib.import_module(f"benchmarks.{path.stem}")


def test_every_script_is_collected():
    assert len(EXAMPLES) >= 6 and len(BENCHMARKS) >= 18
