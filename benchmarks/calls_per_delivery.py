"""Python calls per delivery: CPU as an exact count.

A µs reading on a shared host moves by 15–20 % from run to run; the
number of Python function calls a delivery costs does not.  Under
virtual time a twin replays the same schedule on every run, so cProfile's
call count over it is deterministic, and its call sites name the same
hot spots a traced µs budget would.

The four twins are those of ``tests/test_wire_counts.py`` — the
virtual-time stand-ins of the end-to-end benchmark's workloads — each
profiled over its whole run (warm-up burst and paced phase), so the
deliveries it divides by are every remote delivery of the run.

Usage::

    PYTHONPATH=src:benchmarks python benchmarks/calls_per_delivery.py [--top 20] [--out FILE]

Prints the interpreter, then per twin the calls per delivery, the LEB128 helpers'
(``decode_varint``, ``encode_varint``) share of them, and the ``--top``
call sites by calls per delivery.  ``--out`` also writes that text to
``FILE``, as committed under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import cProfile
import pathlib
import platform
import pstats
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))  # the twins live in tests/

from repro.sim.vtime import run_virtual  # noqa: E402
from tests.test_wire_counts import LOSSY, busy_mesh, paced_mesh, paced_overlay  # noqa: E402

# name, scenario, remote deliveries over the whole run: n (n - 1) x
# (burst + paced broadcasts per node).
TWINS = (
    ("paced_mesh (mesh4_paced)", lambda: paced_mesh(seed=1), 4 * 3 * 700),
    ("busy_mesh (mesh4_saturate)", lambda: busy_mesh(seed=1), 4 * 3 * 700),
    ("lossy busy_mesh (mesh4_lossy)", lambda: busy_mesh(seed=1, faults=LOSSY), 4 * 3 * 700),
    ("paced_overlay (overlay16_paced)", lambda: paced_overlay(seed=1), 16 * 15 * 50),
)
WATCHED = ("decode_varint", "encode_varint")


def site(key) -> str:
    """A call site without the host's install paths: ``repro/...`` for
    the library, the last directory and file for anything else."""
    filename, line, function = key
    if filename == "~":
        return function  # a built-in
    path = pathlib.PurePath(filename)
    parts = path.parts
    anchor = next((i for i, part in enumerate(parts) if part in ("repro", "tests")), None)
    short = "/".join(parts[anchor:] if anchor is not None else parts[-2:])
    return f"{short}:{line}({function})"


def profile(scenario, deliveries: int, top: int) -> str:
    profiler = cProfile.Profile()
    profiler.enable()
    run_virtual(scenario())
    profiler.disable()
    stats = pstats.Stats(profiler).stats
    total = sum(calls for calls, *_ in stats.values())
    lines = [f"  {total:,} calls for {deliveries:,} deliveries: {total / deliveries:.1f} per delivery"]
    for name in WATCHED:
        calls = sum(entry[0] for key, entry in stats.items() if key[2] == name)
        lines.append(f"  {name}: {calls / deliveries:.1f} per delivery")
    lines.append(f"  top {top} call sites, calls per delivery:")
    ranked = sorted(stats.items(), key=lambda item: -item[1][0])[:top]
    for key, (calls, *_) in ranked:
        lines.append(f"    {calls / deliveries:8.1f}  {site(key)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--top", type=int, default=20, help="call sites listed per twin")
    parser.add_argument("--out", type=pathlib.Path, help="also write the report here")
    args = parser.parse_args(argv)
    # The counts include the interpreter's own calls (asyncio's), so the
    # report names the interpreter it is exact for.
    sections = [f"interpreter: {platform.python_implementation()} {platform.python_version()}"]
    print(sections[0], flush=True)
    for name, scenario, deliveries in TWINS:
        sections.append(f"{name}\n{profile(scenario, deliveries, args.top)}")
        print(sections[-1], flush=True)
    if args.out is not None:
        args.out.write_text("\n\n".join(sections) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
