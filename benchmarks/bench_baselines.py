"""The (n, r, k) family head-to-head — Sections 2 and 5.3.

The paper situates its mechanism between the known extremes:

* vector clock (n, n, 1): exact causal order, O(N) timestamps;
* plausible clock (n, r, 1): fixed small timestamps, entry sharing
  causes errors;
* Lamport clock (n, 1, 1): one shared counter — every message "covers"
  every other (P_err = 1), so nearly every network reordering of
  causally related messages becomes a violation;
* this paper (n, r, k): fixed small timestamps, interior K minimising
  the error;
* Bloom clock (m, h per event): the same covering analysis with keys
  drawn fresh per event instead of statically per process.

This benchmark runs identical traffic under all five and reports error
bounds, delivery latency, and wire overhead per message.  Shape
assertions: the vector clock never errs but pays O(N) overhead; the
(R, K) clock beats the plausible clock on errors at equal overhead; the
Lamport clock's delivery latency dwarfs everyone's; the Bloom clock's
measured error tracks its ``p_fp`` curve within the same order-of-
magnitude tolerance ``check_alert_sanity.py`` uses for ``P_err``.
"""

from repro.analysis.sweep import run_repeated
from repro.analysis.tables import render_table
from repro.core.theory import p_fp, timestamp_overhead_bits
from repro.sim import GaussianDelayModel, PoissonWorkload, SimulationConfig

from _common import (
    MEAN_DELAY_MS,
    lambda_for_concurrency,
    report,
    run_duration,
)

N_NODES = 150
R = 100
K = 4
TARGET_X = 25.0
TARGET_DELIVERIES = 60_000.0
CLOCKS = ["vector", "probabilistic", "plausible", "lamport", "bloom"]
FP_TOLERANCE = 10.0  # same order-of-magnitude gate as check_alert_sanity


def run_baselines():
    lam = lambda_for_concurrency(N_NODES, TARGET_X)
    duration = run_duration(TARGET_DELIVERIES, N_NODES, lam)
    results = {}
    for clock in CLOCKS:
        config = SimulationConfig(
            n_nodes=N_NODES,
            r=R,
            k=K,
            clock=clock,
            key_assigner="random-colliding",
            workload=PoissonWorkload(lam),
            delay_model=GaussianDelayModel(MEAN_DELAY_MS),
            detector="none",
            duration_ms=duration,
            track_reception_order=True,
        )
        (results[clock],) = run_repeated(config, repeats=1, seed_base=1000)
    return results


def overhead_bits_for(clock: str) -> int:
    if clock == "vector":
        return timestamp_overhead_bits(N_NODES, 1)
    if clock in ("probabilistic", "bloom"):
        return timestamp_overhead_bits(R, K)
    if clock == "plausible":
        return timestamp_overhead_bits(R, 1)
    return timestamp_overhead_bits(1, 1)  # lamport


def test_baselines(benchmark):
    results = benchmark.pedantic(run_baselines, rounds=1, iterations=1)

    rows = []
    for clock, result in results.items():
        rows.append(
            [
                clock,
                result.counters.eps_min,
                result.counters.eps_max,
                result.latency["mean"],
                result.latency["p99"],
                overhead_bits_for(clock) // 8,
                result.counters.deliveries,
                result.stuck_pending,
            ]
        )
    table = render_table(
        [
            "clock",
            "eps_min",
            "eps_max",
            "latency mean (ms)",
            "latency p99 (ms)",
            "timestamp bytes",
            "deliveries",
            "stuck",
        ],
        rows,
        title=f"N={N_NODES}, R={R}, K={K}, X={TARGET_X} — identical traffic",
    )
    report("baselines_clock_family", table)

    vector = results["vector"]
    probabilistic = results["probabilistic"]
    plausible = results["plausible"]
    lamport = results["lamport"]
    bloom = results["bloom"]

    # Exactness of the vector-clock baseline.
    assert vector.counters.violations == 0
    assert vector.counters.ambiguous == 0
    # The paper's mechanism strictly improves on plausible clocks at the
    # same R (and the same wire size up to the K key indices).
    assert probabilistic.counters.eps_max < plausible.counters.eps_max
    # The Lamport extreme: one shared entry means every concurrent
    # message "covers" every other (P_err = 1), so essentially every
    # network reordering becomes a causal violation — by far the highest
    # error rate in the family.
    assert lamport.counters.eps_max > 3 * probabilistic.counters.eps_max
    assert lamport.counters.eps_max > plausible.counters.eps_max
    # Wire overhead ordering: lamport < probabilistic ~ plausible < vector
    # at these sizes (vector grows with N, the others are fixed).
    assert overhead_bits_for("lamport") < overhead_bits_for("plausible")
    assert overhead_bits_for("plausible") <= overhead_bits_for("probabilistic")
    assert overhead_bits_for("probabilistic") < overhead_bits_for("vector")
    # The Bloom clock's measured error must track its false-positive
    # curve p_fp(m, h, X) — the paper's P_err with per-event keys —
    # scaled by the measured network reordering probability P_nc, to the
    # same order-of-magnitude tolerance check_alert_sanity.py applies.
    predicted = bloom.measured_p_nc * p_fp(R, K, bloom.measured_concurrency)
    assert predicted / FP_TOLERANCE <= bloom.counters.eps_max, (
        f"bloom eps_max {bloom.counters.eps_max:.3e} implausibly below "
        f"theory {predicted:.3e} (dead oracle?)"
    )
    assert bloom.counters.eps_max <= predicted * FP_TOLERANCE, (
        f"bloom eps_max {bloom.counters.eps_max:.3e} more than "
        f"{FP_TOLERANCE}x theory {predicted:.3e}"
    )
    # Everyone stays live.
    for clock, result in results.items():
        assert result.stuck_pending == 0, clock
        assert result.undelivered_messages == 0, clock
