"""Churn during traffic — the paper's motivating scenario, on the shipping stack.

The paper's case for small fixed-size timestamps is "very large systems
with changing membership": a joining process takes a key set and
participates at once, while a vector clock would need a global
re-dimensioning.  The measured sections of the paper use static
membership; this benchmark supplies the missing experiment on
unmodified ``create_node()`` members (:class:`repro.sim.group.Group`
under :func:`repro.sim.vtime.run_virtual`, judged by the vector-clock
oracle) that form their group through the membership protocol:

* sweep the churn rate — Poisson joins (JOIN, state transfer) and
  Poisson graceful leaves (LEAVE) *while every member sends* — from
  none to aggressive, on the paper's §5.4 model at X = 20;
* every row must settle: each live member delivers every broadcast its
  state transfer did not cover;
* report ε under churn next to the static row (ε moving with the churn
  rate is a finding about the runtime, not a failed run);
* contrast the wire cost: the (R, K) timestamp is unchanged by churn,
  while a vector clock sized for every process that ever joined keeps
  growing.

Replaces the simulator's churn model, whose joiners took an instant
transfer at the oracle's level and whose departures sent no LEAVE;
EXPERIMENTS.md keeps its last table.  Every number is a count of one
seeded schedule.
"""

import asyncio

from repro.analysis.stats import proportion_estimate
from repro.analysis.tables import render_table
from repro.api import MembershipConfig, NodeConfig
from repro.core.theory import timestamp_overhead_bits
from repro.sim.group import Group
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual
from repro.util.rng import RandomSource

from _common import (
    DELAY_STD_MS,
    MEAN_DELAY_MS,
    SKEW_STD_MS,
    lambda_for_concurrency,
    poisson_sender,
    report,
)

N_NODES = 32
R = 100
K = 4
TARGET_X = 20.0
HORIZON = 4.0  # virtual seconds of sending
SEED = 1100
# Mean ms between joins, and between leaves; None = static.
CHURN_INTERVALS = [None, 4000.0, 1000.0, 400.0]


def config_of(name: str) -> NodeConfig:
    seeds = () if name == "n0" else ("n0",)
    return NodeConfig(r=R, k=K, membership=MembershipConfig(seed_peers=seeds))


async def churn_run(interval) -> dict:
    loop = asyncio.get_running_loop()
    delays = GaussianDelayModel(MEAN_DELAY_MS, DELAY_STD_MS, SKEW_STD_MS)
    rate = 1000.0 / lambda_for_concurrency(N_NODES, TARGET_X)
    group = await Group.start(N_NODES, config_of, SEED, 0.0, delays, judged=True,
                              capacity=4 * N_NODES)
    async with group:
        until = loop.time() + HORIZON
        senders = [asyncio.ensure_future(poisson_sender(group, node, rate, until, SEED))
                   for node in group.nodes]
        joined, left = [], []

        async def joins():
            rng = RandomSource(SEED).spawn("joins")
            while True:
                await asyncio.sleep(rng.exponential(interval / 1000.0))
                if loop.time() >= until:
                    return
                node = await group.join(f"n{N_NODES + len(joined)}")
                joined.append(node.node_id)
                senders.append(asyncio.ensure_future(
                    poisson_sender(group, node, rate, until, SEED)))

        async def leaves():
            rng = RandomSource(SEED).spawn("leaves")
            while True:
                await asyncio.sleep(rng.exponential(interval / 1000.0))
                if loop.time() >= until:
                    return
                # The founder stays: it is the group's seed peer.
                members = [node.node_id for node in group.nodes[1:]]
                if len(members) < N_NODES // 2:
                    continue
                victim = members[rng.integer(0, len(members))]
                left.append(victim)
                await group.leave(victim)

        if interval is not None:
            await asyncio.gather(joins(), leaves())
        await asyncio.gather(*senders)
        await group.settle()
        return {"totals": group.oracle.totals, "joins": len(joined), "leaves": len(left)}


def run_churn_sweep() -> list:
    return [run_virtual(churn_run(interval)) for interval in CHURN_INTERVALS]


def test_churn(benchmark):
    runs = benchmark.pedantic(run_churn_sweep, rounds=1, iterations=1)

    rows = []
    for interval, run in zip(CHURN_INTERVALS, runs):
        totals = run["totals"]
        rows.append([
            "static" if interval is None else interval,
            run["joins"],
            run["leaves"],
            totals.violations,
            str(proportion_estimate(totals.violations, totals.deliveries)),
            str(proportion_estimate(totals.violations + totals.ambiguous,
                                    totals.deliveries)),
            timestamp_overhead_bits(R, K) // 8,
            timestamp_overhead_bits(N_NODES + run["joins"], 1) // 8,
            totals.deliveries,
        ])
    table = render_table(
        ["churn interval (ms)", "joins", "leaves", "violations", "eps_min [95% CI]",
         "eps_max [95% CI]", "(R,K) ts bytes", "vector ts bytes @peak", "deliveries"],
        rows,
        title=(
            f"create_node() members on the virtual bus: N0={N_NODES}, R={R}, K={K}, "
            f"X={TARGET_X}, N({MEAN_DELAY_MS:.0f}, {DELAY_STD_MS:.0f}) + "
            f"N(d, {SKEW_STD_MS:.0f}) ms, Poisson senders for {HORIZON:.0f} s, "
            f"seed {SEED}; every row settled"
        ),
    )
    report("churn", table)

    # Churn actually happened at the aggressive end.
    assert runs[-1]["joins"] > 3 and runs[-1]["leaves"] > 3
    # The (R, K) timestamp is churn-invariant; the vector clock's grows
    # with every join (it can never shrink safely).
    assert rows[-1][6] == rows[0][6]
    assert rows[-1][7] > rows[0][7]
