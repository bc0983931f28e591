"""Dissemination ablation — direct broadcast vs push gossip (Definition 2).

The paper positions its mechanism for large systems whose transport is a
*probabilistic broadcast* (gossip): redundant, duplicate-heavy, and only
probabilistically complete.  This benchmark runs identical traffic over
the reliable direct broadcast and over infect-and-die push gossip at
several fanouts, and measures what the transport choice costs the causal
layer:

* **redundancy** — gossip transmissions per delivered message (the
  duplicate factor the endpoint's filter absorbs);
* **coverage** — deliveries achieved vs expected (low fanout leaves
  nodes uncovered, which also strands their causal successors);
* **latency** — gossip's multi-hop paths stretch the delivery time;
* **ordering** — gossip's extra path-length variance raises P_nc and
  with it the violation rate.

Both rows are endpoint-only models of the network's reordering rate
P_nc, the factor the paper's bound ``P <= P_nc * P_err`` multiplies by.
Partial views and anti-entropy repair are measured on the shipping
stack instead (``bench_overlay.py``, ``bench_heal.py``).
"""

from repro.analysis.sweep import run_repeated
from repro.analysis.tables import render_table
from repro.sim import (
    DirectBroadcast,
    GaussianDelayModel,
    PoissonWorkload,
    PushGossip,
    SimulationConfig,
)

from _common import (
    MEAN_DELAY_MS,
    lambda_for_concurrency,
    report,
    run_duration,
)

N_NODES = 80
R = 100
K = 4
TARGET_X = 20.0
TARGET_DELIVERIES = 50_000.0
GOSSIP_FANOUTS = [3, 5, 8]


def run_dissemination_matrix():
    lam = lambda_for_concurrency(N_NODES, TARGET_X)
    duration = run_duration(TARGET_DELIVERIES, N_NODES, lam)
    delay = GaussianDelayModel(MEAN_DELAY_MS)

    def config(dissemination):
        return SimulationConfig(
            n_nodes=N_NODES,
            r=R,
            k=K,
            key_assigner="random-colliding",
            workload=PoissonWorkload(lam),
            delay_model=delay,
            dissemination=dissemination,
            detector="none",
            duration_ms=duration,
            track_reception_order=True,
        )

    scenarios = {"direct": config(DirectBroadcast(delay))}
    for fanout in GOSSIP_FANOUTS:
        scenarios[f"gossip(f={fanout})"] = config(PushGossip(delay, fanout=fanout))
    return {
        name: run_repeated(cfg, repeats=1, seed_base=1400)[0]
        for name, cfg in scenarios.items()
    }


def test_dissemination(benchmark):
    results = benchmark.pedantic(run_dissemination_matrix, rounds=1, iterations=1)

    rows = []
    for name, result in results.items():
        expected = result.sent * (N_NODES - 1)
        coverage = result.delivered_remote / expected if expected else 0.0
        redundancy = (
            (result.delivered_remote + result.duplicates) / result.delivered_remote
            if result.delivered_remote
            else 0.0
        )
        rows.append(
            [
                name,
                coverage,
                redundancy,
                result.latency["mean"],
                result.latency["p99"],
                result.measured_p_nc,
                result.counters.eps_min,
                result.counters.eps_max,
                result.stuck_pending,
            ]
        )
    table = render_table(
        [
            "transport",
            "coverage",
            "redundancy",
            "lat mean (ms)",
            "lat p99 (ms)",
            "P_nc",
            "eps_min",
            "eps_max",
            "stuck",
        ],
        rows,
        title=f"N={N_NODES}, R={R}, K={K}, X={TARGET_X}",
    )
    report("dissemination", table)

    direct = results["direct"]
    low_fanout = results[f"gossip(f={GOSSIP_FANOUTS[0]})"]
    high_fanout = results[f"gossip(f={GOSSIP_FANOUTS[-1]})"]

    # Direct broadcast: complete, duplicate-free, single-hop latency.
    assert direct.duplicates == 0
    assert direct.delivered_remote == direct.sent * (N_NODES - 1)
    # Gossip pays redundancy for its robustness...
    assert high_fanout.duplicates > 0
    # ...and multi-hop paths stretch latency beyond the single hop.
    assert high_fanout.latency["mean"] > direct.latency["mean"] * 1.3
    # Higher fanout buys coverage: the high-fanout run reaches at least
    # as much of the membership as the low-fanout run, and most of it.
    high_coverage = high_fanout.delivered_remote / (high_fanout.sent * (N_NODES - 1))
    low_coverage = low_fanout.delivered_remote / (low_fanout.sent * (N_NODES - 1))
    assert high_coverage >= low_coverage
    assert high_coverage > 0.9
    # Gossip's path-length variance raises the reordering rate.
    assert high_fanout.measured_p_nc > direct.measured_p_nc
    # Coverage gaps strand causal successors.
    assert high_fanout.stuck_pending > 0
