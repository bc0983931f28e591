"""Calls-per-delivery gate: no twin may cost more Python calls per
delivery than the committed report allows.

Profiles the four virtual-time twins of ``calls_per_delivery.py`` and
compares each twin's total call count with the one committed in
``benchmarks/results/calls_per_delivery.txt``.  The count is the same
schedule's on every run but not exactly the same number: it moves by a
few dozen calls in millions between processes (hash seeds), so the gate
allows a 2 % band: a twin more than 2 % above its
committed count fails — about 10 calls per delivery on the meshes and 18
on the overlay, what one extra helper with a loop or a few calls of its
own on the delivery path costs.  A change that lowers the counts should
commit the new report, so the band tightens behind it.

Usage::

    PYTHONPATH=src:benchmarks python benchmarks/check_calls_per_delivery.py [REPORT]
"""

from __future__ import annotations

import pathlib
import re
import sys

import calls_per_delivery

BAND = 0.02
REPORT = pathlib.Path(__file__).resolve().parent / "results" / "calls_per_delivery.txt"
_TOTAL = re.compile(r"^  ([\d,]+) calls for ", re.MULTILINE)


def committed_totals(text: str) -> dict:
    """Twin name -> total calls, read from a report's sections."""
    totals = {}
    for section in text.strip().split("\n\n"):
        name, _, body = section.partition("\n")
        match = _TOTAL.search(body)
        if match:
            totals[name] = int(match.group(1).replace(",", ""))
    return totals


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    report = pathlib.Path(argv[0]) if argv else REPORT
    committed = committed_totals(report.read_text(encoding="utf-8"))
    failed = False
    for name, scenario, deliveries in calls_per_delivery.TWINS:
        text = calls_per_delivery.profile(scenario, deliveries, top=0)
        total = int(_TOTAL.search(text).group(1).replace(",", ""))
        limit = committed[name] * (1.0 + BAND)
        verdict = "ok" if total <= limit else "FAIL"
        failed |= verdict == "FAIL"
        print(f"{name}: {total:,} calls ({total / deliveries:.1f} per delivery), "
              f"committed {committed[name]:,}, limit {limit:,.0f}: {verdict}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
