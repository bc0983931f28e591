"""Every exported name is paid for.

A name in a package's ``__all__`` must be used by the program itself: it
appears as a name, an attribute or an import in some module under
``src/``, ``benchmarks/`` or ``examples/`` other than a package
``__init__``.  Tests do not count — a variant only its own tests select
is dead weight.  The few names kept without such a user are listed in
``KEPT`` with the reason they stay.
"""

import ast
import importlib
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGES = (
    "repro",
    "repro.core",
    "repro.sim",
    "repro.net",
    "repro.analysis",
    "repro.crdt",
    "repro.obs",
)
USERS = ("src", "benchmarks", "examples")

KEPT = {
    "__version__": "the package version",
    "create_endpoint": "the documented transport-less entry point",
    "ConstantDelayModel": "the reorder-free delay model tests build exact schedules on",
    "p_violation_bound": "§5's P_nc·P_err bound, the yardstick for measured error",
    "p_reorder_same_sender": "§5's same-sender reorder term of that bound",
    "predicted_error_series": "§5's predicted error curve next to a measured one",
    "ResultStore": "the archive that lets a run be compared with an older one",
    "compare_results": "the comparison of two archived runs",
}


def _used_names():
    used = set()
    for top in USERS:
        for path in (ROOT / top).rglob("*.py"):
            if path.name == "__init__.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    used.update(alias.name.split(".")[-1] for alias in node.names)
    return used


@pytest.fixture(scope="module")
def exports():
    return {
        package: list(importlib.import_module(package).__all__) for package in PACKAGES
    }


def test_every_export_has_a_user_outside_the_tests(exports):
    used = _used_names()
    unpaid = [
        f"{package}.{name}"
        for package, names in exports.items()
        for name in names
        if name not in used and name not in KEPT
    ]
    assert unpaid == [], f"exported but used only by tests (delete, or list in KEPT): {unpaid}"


def test_kept_names_are_still_exported_and_still_unused(exports):
    used = _used_names()
    exported = {name for names in exports.values() for name in names}
    assert sorted(set(KEPT) - exported) == []
    assert sorted(set(KEPT) & used) == []
