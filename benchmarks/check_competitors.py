"""CI gate: the competitor clock stays honest.

Two independent checks, one exit code:

1. **Bloom theory ratio** — a short simulation under ``clock="bloom"``
   with reception-order tracking; the oracle's measured violation rate
   (``eps_max``) must sit within an order of magnitude of the predicted
   ``P_nc · p_fp(m, h, X)`` at the *measured* reordering probability and
   concurrency.  Same tolerance philosophy as ``check_alert_sanity.py``:
   generous enough never to flake on statistics, tight enough to catch a
   dead oracle (rate ~ 0) or a broken key derivation (rate ~ P_nc).

2. **Clock-family table identity** — regenerates the Section 2 design
   table (``bench_table_clock_family.build_table``) and checks the
   Bloom column equals the (r, k) column: one covering curve predicts
   both families, so the table identity breaking means the theory and
   the table drifted apart.

Exit 0 when both hold, 1 otherwise.  Run with
``PYTHONPATH=src:benchmarks`` so both the package and the benchmark
modules resolve.
"""

import argparse
import sys

from repro.core.theory import p_fp
from repro.sim import PoissonWorkload, SimulationConfig, run_simulation


def check_bloom_theory(args, failures):
    config = SimulationConfig(
        n_nodes=args.nodes, r=args.r, k=args.k, clock="bloom",
        workload=PoissonWorkload(args.lambda_ms),
        duration_ms=args.duration_ms, seed=args.seed,
        detector="none", track_reception_order=True,
    )
    result = run_simulation(config)
    predicted = result.measured_p_nc * p_fp(
        args.r, args.k, result.measured_concurrency
    )
    measured = result.counters.eps_max
    print(
        f"bloom: X={result.measured_concurrency:.2f} "
        f"P_nc={result.measured_p_nc:.4f} eps_max={measured:.4e} "
        f"predicted={predicted:.4e} "
        f"({result.counters.deliveries} deliveries)"
    )
    if predicted <= 0:
        failures.append("bloom: predicted rate is 0 (run too short to measure)")
        return
    ratio = measured / predicted
    if not (1.0 / args.tolerance) <= ratio <= args.tolerance:
        failures.append(
            f"bloom: measured eps_max {measured:.4e} is {ratio:.2f}x the "
            f"predicted P_nc*p_fp {predicted:.4e} "
            f"(allowed band {1 / args.tolerance:.2f}x..{args.tolerance:.0f}x)"
        )
    if result.stuck_pending or result.undelivered_messages:
        failures.append(
            f"bloom: liveness broken (stuck={result.stuck_pending}, "
            f"undelivered={result.undelivered_messages})"
        )


def check_table_identity(failures):
    try:
        from bench_table_clock_family import build_table
    except ImportError:
        failures.append(
            "table: cannot import bench_table_clock_family "
            "(run with PYTHONPATH=src:benchmarks)"
        )
        return
    rows = build_table()
    # Columns 7/8 are the (r, k) clock, 9/10 the Bloom clock at the
    # same (m, h): identical wire size, identical covering probability.
    for row in rows:
        if row[9] != row[7] or row[10] != row[8]:
            failures.append(
                f"table: bloom column drifted from the (r, k) column at "
                f"n={row[0]}: B {row[9]} vs {row[7]}, "
                f"p {row[10]} vs {row[8]}"
            )
    print(f"table: bloom column identity holds across {len(rows)} system sizes")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=30)
    parser.add_argument("--r", type=int, default=40)
    parser.add_argument("--k", type=int, default=3)
    parser.add_argument("--lambda-ms", type=float, default=250.0)
    parser.add_argument("--duration-ms", type=float, default=12_000.0)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--tolerance", type=float, default=10.0,
                        help="allowed multiplicative deviation either way "
                             "for the bloom theory ratio")
    args = parser.parse_args()

    failures = []
    check_bloom_theory(args, failures)
    check_table_identity(failures)

    if failures:
        print("\ncompetitor gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\ncompetitor gate passed (bloom theory, table identity)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
