"""CI gate: the adaptive controller must hold the alert-rate band.

Runs the ``bench_adaptive`` ramp (quick by default) — offered
concurrency climbing 7x past the geometry the group was provisioned
for, on a membership-formed ``create_node()`` group under virtual time
— and gates three properties of the self-tuning loop
(``repro.net.adaptive``, DESIGN.md §11):

1. **band**: every adaptive level's settled alert rate (its second
   half) stays at or under the band ceiling — the controller's whole
   contract;
2. **stress**: the static arm *leaves* the band somewhere on the ramp —
   otherwise the fixture stopped exercising the failure mode the
   controller exists for and the band check above is vacuous;
3. **theory**: at the top of the ramp the settled alert rate tracks
   ``P_err(R, K, X)`` within an order of magnitude (the same sanity
   tolerance as ``check_alert_sanity.py``) — catching a dead alert
   pipeline (controller blind) or a detector firing on everything
   (controller thrashing) without flaking on statistics.

Exit 0 when all three hold, 1 otherwise.
"""

import argparse
import sys

import bench_adaptive
from repro.core.theory import p_error


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--full", action="store_true",
                        help="run the full 4-level ramp instead of the quick one")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--tolerance", type=float, default=10.0,
                        help="allowed multiplicative deviation from theory "
                             "at the top of the ramp")
    args = parser.parse_args()

    levels = bench_adaptive.FULL if args.full else bench_adaptive.QUICK
    band_high = bench_adaptive.BAND[1]
    adaptive = bench_adaptive.run_arm(True, levels, args.seed)
    static = bench_adaptive.run_arm(False, levels, args.seed)

    failures = []

    for level in adaptive:
        flag = "" if level["alert_rate"] <= band_high else "  <-- out of band"
        print(f"adaptive X={level['x_offered']:5.1f}  K={level['k']:2d}  "
              f"alert_rate={level['alert_rate']:.4f}  "
              f"(band high {band_high}){flag}")
        if level["alert_rate"] > band_high:
            failures.append(
                f"settled adaptive level at X={level['x_offered']} "
                f"has alert rate {level['alert_rate']:.4f} > {band_high}"
            )

    static_max = max(level["alert_rate"] for level in static)
    print(f"static  max alert_rate={static_max:.4f} "
          f"({static_max / band_high:.1f}x the band ceiling)")
    if static_max <= band_high:
        failures.append(
            f"static arm never left the band (max {static_max:.4f} <= "
            f"{band_high}) — the ramp no longer stresses the geometry"
        )

    top = adaptive[-1]
    predicted = p_error(bench_adaptive.R, top["k"], top["x_measured"])
    if predicted <= 0:
        failures.append("theory predicts zero error at the top of the ramp; "
                        "the gate cannot calibrate")
    else:
        ratio = top["alert_rate"] / predicted
        print(f"top of ramp: alert_rate={top['alert_rate']:.4f} vs "
              f"P_err(R={bench_adaptive.R}, K={top['k']}, "
              f"X={top['x_measured']:.1f})={predicted:.4f} -> ratio "
              f"{ratio:.2f}x (tolerance {args.tolerance:.0f}x)")
        if not (1.0 / args.tolerance <= ratio <= args.tolerance):
            failures.append(
                f"settled alert rate deviates {ratio:.2f}x from theory — "
                f"the alert pipeline is broken or the detector misfires"
            )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("adaptive sizing gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
