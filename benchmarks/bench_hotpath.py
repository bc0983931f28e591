"""Hot-path microbenchmark: the entry-indexed drain vs the reference drain.

The tentpole claim of the vectorized delivery engine is an asymptotic
one — the naive drain re-checks every pending message against the local
vector on every delivery (O(P·R) work per delivery), while the
entry-indexed :class:`~repro.core.pending.PendingBuffer` only rechecks
the pending messages registered under the entries a delivery actually
incremented (amortized O(K + unblocked·R)).  This script measures it:

* a shared, pre-generated, causally-entangled trace per scenario
  (N senders, R-entry clocks, a fraction of arrivals delayed to build a
  deep pending queue — the retransmission regime of a 25 %-loss link);
* the *same* arrival sequence fed to an endpoint as shipped
  (``indexed``: :class:`PendingBuffer`) and to one handed the
  full-rescan :class:`~repro.core.pending.ReferenceBuffer` oracle
  (``naive``), timing full-trace ingestion;
* a micro-measurement of the vectorized ``Timestamp.dominates_on``
  against the per-entry Python-loop reference it replaced (the
  Algorithm 5 detector hot check).

Results land in ``BENCH_hotpath.json`` at the repo root — the committed
copy is the regression baseline checked by ``check_regression.py``.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py            # full
    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import random
import sys
import time
from typing import Dict, List, Tuple

import numpy as np

from repro.core.clocks import ProbabilisticCausalClock, Timestamp
from repro.core.keyspace import HashKeyAssigner
from repro.core.pending import ReferenceBuffer
from repro.core.protocol import CausalBroadcastEndpoint, Message

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hotpath.json"

HEADLINE = "drain_n64_r100_loss25"

# name -> (senders, r, delayed_fraction, rounds)
SCENARIOS: Dict[str, Tuple[int, int, float, int]] = {
    "drain_n8_r100_loss25": (8, 100, 0.25, 160),
    "drain_n32_r100_loss25": (32, 100, 0.25, 48),
    "drain_n64_r100_loss25": (64, 100, 0.25, 48),
    "drain_n32_r32_loss25": (32, 32, 0.25, 48),
    "drain_n32_r256_loss25": (32, 256, 0.25, 48),
    "drain_n32_r100_loss0": (32, 100, 0.0, 48),
    "drain_n32_r100_loss10": (32, 100, 0.10, 48),
}

# Quick mode runs a subset at IDENTICAL sizes (so deliveries/sec stays
# comparable to the committed full-run baseline), with fewer repeats.
QUICK_SCENARIOS = (HEADLINE, "drain_n8_r100_loss25", "drain_n32_r100_loss0")


def build_trace(
    senders: int, r: int, k: int, rounds: int, seed: int
) -> List[Message]:
    """A causally-entangled broadcast history shared by both engines.

    Every sender broadcasts each round; each broadcast is applied (in
    order) at a random ~60 % of the other senders, so later timestamps
    causally chain across processes.
    """
    rng = random.Random(seed)
    assigner = HashKeyAssigner(r=r, k=k)
    endpoints = [
        CausalBroadcastEndpoint(
            f"s{i}", ProbabilisticCausalClock(r, assigner.assign(f"s{i}").keys)
        )
        for i in range(senders)
    ]
    trace: List[Message] = []
    order = list(range(senders))
    for _ in range(rounds):
        rng.shuffle(order)
        for index in order:
            message = endpoints[index].broadcast(None)
            trace.append(message)
            for other, endpoint in enumerate(endpoints):
                if other != index and rng.random() < 0.6:
                    endpoint.on_receive(message)
    return trace


def arrival_sequence(
    trace: List[Message], delayed_fraction: float, seed: int
) -> List[Message]:
    """Delay a fraction of arrivals by a random window.

    Models the retransmission regime of a lossy link: the dropped copy
    arrives one retransmit round later, behind a window of fresher
    traffic — exactly what builds a deep pending queue at the receiver.
    """
    rng = random.Random(seed)
    window = max(8, len(trace) // 4)
    keyed = []
    for position, message in enumerate(trace):
        if rng.random() < delayed_fraction:
            position += rng.uniform(1, window)
        keyed.append((position, rng.random(), message))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [message for _, _, message in keyed]


def time_engine(
    engine: str, r: int, k: int, arrivals: List[Message]
) -> Tuple[float, int]:
    assigner = HashKeyAssigner(r=r, k=k)
    clock = ProbabilisticCausalClock(r, assigner.assign("rx").keys)
    endpoint = CausalBroadcastEndpoint(
        "rx",
        clock,
        buffer=ReferenceBuffer(clock) if engine == "naive" else None,
    )
    deliver = endpoint.on_receive
    start = time.perf_counter()
    now = 0.0
    for message in arrivals:
        deliver(message, now)
        now += 1.0
    elapsed = time.perf_counter() - start
    if endpoint.pending_count != 0:
        raise RuntimeError(
            f"{engine} engine left {endpoint.pending_count} messages pending "
            "— the trace must fully drain for deliveries/sec to be comparable"
        )
    return elapsed, endpoint.stats.delivered


def run_scenario(name: str, repeats: int, k: int = 2, seed: int = 11) -> dict:
    senders, r, delayed, rounds = SCENARIOS[name]
    trace = build_trace(senders, r, k, rounds, seed)
    arrivals = arrival_sequence(trace, delayed, seed + 1)
    result = {
        "name": name,
        "params": {
            "senders": senders,
            "r": r,
            "k": k,
            "delayed_fraction": delayed,
            "rounds": rounds,
            "messages": len(trace),
        },
    }
    for engine in ("indexed", "naive"):
        best_seconds = None
        delivered = 0
        for _ in range(repeats):
            seconds, delivered = time_engine(engine, r, k, arrivals)
            if best_seconds is None or seconds < best_seconds:
                best_seconds = seconds
        result[engine] = {
            "seconds": round(best_seconds, 6),
            "delivered": delivered,
            "deliveries_per_sec": round(delivered / best_seconds, 1),
        }
    result["speedup"] = round(
        result["indexed"]["deliveries_per_sec"]
        / result["naive"]["deliveries_per_sec"],
        2,
    )
    return result


def bench_dominates_on(repeats: int, r: int = 100, samples: int = 2000) -> dict:
    """The reworked ``dominates_on`` vs the int()-loop it replaced.

    Two regimes: the K sender keys of the detector check (tiny index
    set — served by the scalar fast path) and a wide entry set (served
    by the vectorised comparison).  The old implementation ran the
    per-entry ``int()`` loop in both.
    """
    rng = np.random.default_rng(5)
    # Domination HOLDS between the vectors: the short-circuiting loop
    # must scan every entry, which is both its worst case and the common
    # case in the detector (recent-list entries usually dominate).
    vec_b = rng.integers(0, 1000, size=r).astype(np.int64)
    vec_a = vec_b + rng.integers(0, 5, size=r).astype(np.int64)
    vec_a.flags.writeable = False
    vec_b.flags.writeable = False

    def timed(fn) -> float:
        best = None
        for _ in range(max(2, repeats)):
            start = time.perf_counter()
            for _ in range(samples):
                fn()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
        return best / samples * 1e6  # µs per call

    result = {"r": r}
    for label, size in (("small_k3", 3), ("wide_k64", 64)):
        keys = tuple(sorted(rng.choice(r, size=size, replace=False).tolist()))
        ts_a = Timestamp(vector=vec_a, sender_keys=keys, seq=1)
        ts_b = Timestamp(vector=vec_b, sender_keys=keys, seq=1)
        entries = ts_b.sender_keys_array

        def old_loop(keys=keys):
            return all(int(vec_a[e]) >= int(vec_b[e]) for e in keys)

        loop_us = timed(old_loop)
        new_us = timed(lambda: ts_a.dominates_on(ts_b, entries))
        result[label] = {
            "entries": size,
            "old_loop_us": round(loop_us, 3),
            "new_us": round(new_us, 3),
            "speedup": round(loop_us / new_us, 2),
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: a scenario subset at identical sizes",
    )
    parser.add_argument(
        "--output",
        type=pathlib.Path,
        default=DEFAULT_OUTPUT,
        help=f"result JSON path (default {DEFAULT_OUTPUT})",
    )
    parser.add_argument("--repeats", type=int, default=None, help="timing repeats")
    args = parser.parse_args(argv)

    repeats = args.repeats if args.repeats is not None else 3
    names = QUICK_SCENARIOS if args.quick else tuple(SCENARIOS)

    scenarios = []
    for name in names:
        result = run_scenario(name, repeats)
        scenarios.append(result)
        print(
            f"{name:28s} messages={result['params']['messages']:5d}  "
            f"indexed={result['indexed']['deliveries_per_sec']:>10.1f}/s  "
            f"naive={result['naive']['deliveries_per_sec']:>10.1f}/s  "
            f"speedup={result['speedup']:.2f}x"
        )

    dominates = bench_dominates_on(repeats)
    for label, data in (("dominates_on K=3", dominates["small_k3"]),
                        ("dominates_on 64 entries", dominates["wide_k64"])):
        print(
            f"{label:28s} old_loop={data['old_loop_us']:.2f}us  "
            f"new={data['new_us']:.2f}us  speedup={data['speedup']:.2f}x"
        )

    headline = next((s for s in scenarios if s["name"] == HEADLINE), None)
    payload = {
        "meta": {
            "quick": args.quick,
            "repeats": repeats,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "headline": {
            "name": HEADLINE,
            "speedup": headline["speedup"] if headline else None,
        },
        "scenarios": scenarios,
        "dominates_on": dominates,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.output}")
    if headline is not None:
        print(f"headline {HEADLINE}: {headline['speedup']:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
