"""Dissemination on the shipping stack: full mesh vs the relay overlay.

The paper assumes a reliable broadcast layer under the causal one
(Definition 2) and aims at large systems whose broadcast is gossip.
This benchmark runs the same traffic over the runtime's two
dissemination modes: unmodified ``create_node()`` groups
(:class:`repro.sim.group.Group`) on the seeded in-process bus under
:func:`repro.sim.vtime.run_virtual`, judged by the vector-clock oracle,
on the paper's §5.4 model (Poisson senders, N(100, 20) ms base delay
plus N(d, 20) ms per-receiver skew) at concurrency X = 20.

* **mesh** — every broadcast goes on N − 1 reliable links;
* **overlay(f=3)** / **overlay(f=5)** — per-origin eager relay trees
  over partial views, with anti-entropy repairing what they miss.

Per transport: remote deliveries, ε_min / ε_max with 95 % Wilson
intervals, broadcast → delivery latency, bytes and datagrams on the bus
per delivery, anti-entropy repairs sent, and how many of them were
needed (sent less ``repair_duplicates``: copies the receiver already
held).  Every row must settle:
every node delivers every broadcast.  The network's reordering rate
P_nc is not reported: a node exposes deliveries, not receptions.
(Replaces the simulator's infect-and-die push-gossip rows; EXPERIMENTS.md
keeps their last table.)  Every number is a count of one seeded
schedule.
"""

import asyncio

import numpy as np

from repro.analysis.stats import proportion_estimate
from repro.analysis.tables import render_table
from repro.api import NodeConfig
from repro.sim.group import Group
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual

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
HORIZON = 2.0  # virtual seconds of sending
SEED = 1400
TRANSPORTS = {
    "mesh": NodeConfig(r=R, k=K),
    "overlay(f=3)": NodeConfig(r=R, k=K, dissemination="overlay", fanout=3),
    "overlay(f=5)": NodeConfig(r=R, k=K, dissemination="overlay", fanout=5),
}


async def dissemination_run(config: NodeConfig) -> dict:
    loop = asyncio.get_running_loop()
    delays = GaussianDelayModel(MEAN_DELAY_MS, DELAY_STD_MS, SKEW_STD_MS)
    rate = 1000.0 / lambda_for_concurrency(N_NODES, TARGET_X)
    group = await Group.start(N_NODES, config, SEED, 0.0, delays, judged=True)
    async with group:
        before = group.counts()
        until = loop.time() + HORIZON
        await asyncio.gather(*(
            poisson_sender(group, node, rate, until, SEED) for node in group.nodes
        ))
        await group.settle()
        after = group.counts()
        return {
            "sent": group.sent,
            "totals": group.oracle.totals,
            "latencies_ms": [1000.0 * latency for latency in group.latencies],
            **{name: after[name] - before[name]
               for name in ("bytes", "datagrams", "repairs_sent", "repair_duplicates")},
        }


def run_dissemination_matrix() -> dict:
    return {name: run_virtual(dissemination_run(config))
            for name, config in TRANSPORTS.items()}


def test_dissemination(benchmark):
    results = benchmark.pedantic(run_dissemination_matrix, rounds=1, iterations=1)

    rows = []
    for name, run in results.items():
        totals = run["totals"]
        deliveries = totals.deliveries
        rows.append([
            name,
            deliveries,
            str(proportion_estimate(totals.violations, deliveries)),
            str(proportion_estimate(totals.violations + totals.ambiguous, deliveries)),
            float(np.mean(run["latencies_ms"])),
            float(np.percentile(run["latencies_ms"], 99)),
            run["bytes"] / deliveries,
            run["datagrams"] / deliveries,
            run["repairs_sent"],
            run["repairs_sent"] - run["repair_duplicates"],
        ])
    table = render_table(
        ["transport", "deliveries", "eps_min [95% CI]", "eps_max [95% CI]",
         "lat mean (ms)", "lat p99 (ms)", "bytes/dlv", "datagrams/dlv", "repairs",
         "needed"],
        rows,
        title=(
            f"create_node() on the virtual bus: N={N_NODES}, R={R}, K={K}, "
            f"X={TARGET_X}, N({MEAN_DELAY_MS:.0f}, {DELAY_STD_MS:.0f}) + "
            f"N(d, {SKEW_STD_MS:.0f}) ms, Poisson senders for {HORIZON:.0f} s, "
            f"seed {SEED}"
        ),
    )
    report("dissemination", table)

    mesh = results["mesh"]
    # Every broadcast reached every other node (settle() checked the
    # order; the oracle counted each remote delivery once).
    for name, run in results.items():
        assert run["totals"].deliveries == run["sent"] * (N_NODES - 1), name
    for fanout in (3, 5):
        overlay = results[f"overlay(f={fanout})"]
        # The trees miss copies that anti-entropy must repair; a mesh
        # repair only races a copy still in flight on its link.
        assert overlay["repairs_sent"] > mesh["repairs_sent"]
        # Relay trees cost hops: the overlay's latency exceeds the mesh's.
        assert np.mean(overlay["latencies_ms"]) > np.mean(mesh["latencies_ms"])
        # Multi-hop paths widen the reordering window, and with it ε.
        assert overlay["totals"].violations > mesh["totals"].violations
