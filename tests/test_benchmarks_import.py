"""Every benchmark script still imports.

Most scripts under ``benchmarks/`` run in no test or CI step, so a name
they import that the library no longer has would go unnoticed until
someone ran them.  Importing a script runs none of its work: each one
does that only under ``if __name__ == "__main__"`` or in its test
functions.
"""

import importlib.util
import pathlib

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
SCRIPTS = sorted(BENCHMARKS.glob("*.py"))


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.stem for path in SCRIPTS])
def test_benchmark_script_imports(path, monkeypatch):
    # The scripts import their helpers (``_common``, ``bench_adaptive``)
    # from their own directory, as they do when run from it.
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(f"benchmark_script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
