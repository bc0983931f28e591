"""Smoke tests: every example script parses, and the fast ones run.

The examples double as living documentation; these tests keep them from
rotting.  The slower simulation-driven ones are compile-checked here and
exercised in full by the documentation workflow (they also run during
development via ``python examples/<name>.py``).
"""

import pathlib
import py_compile
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

ALL_EXAMPLES = [
    "quickstart.py",
    "collaborative_editing.py",
    "churn_membership.py",
    "alert_and_recovery.py",
    "clock_family_tour.py",
    "async_chat.py",
    "partition_heal.py",
]

# Examples cheap enough to execute inside the unit-test run.
FAST_EXAMPLES = ["alert_and_recovery.py", "async_chat.py", "partition_heal.py"]


class TestExamplesCompile:
    @pytest.mark.parametrize("name", ALL_EXAMPLES)
    def test_example_compiles(self, name):
        path = EXAMPLES_DIR / name
        assert path.exists(), f"missing example {name}"
        py_compile.compile(str(path), doraise=True)


class TestFastExamplesRun:
    @pytest.mark.parametrize("name", FAST_EXAMPLES)
    def test_example_runs_to_completion(self, name, capsys):
        # run_path executes the script as __main__; the examples assert
        # their own invariants internally, so completing is the test.
        runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
        out = capsys.readouterr().out
        assert out.strip(), f"{name} produced no output"


class TestExampleInventoryMatchesReadme:
    def test_every_example_is_documented(self):
        readme = (EXAMPLES_DIR.parent / "README.md").read_text(encoding="utf-8")
        for name in ALL_EXAMPLES:
            assert name in readme, f"{name} missing from README"
