"""Loss, a partition and its heal — on the shipping stack, under virtual time.

Unmodified ``create_node()`` groups (:class:`repro.sim.group.Group`,
the one virtual-time harness) run the paper's §5.4 endpoint
model (Poisson senders, Gaussian two-stage delays) on the seeded
in-process bus under :func:`repro.sim.vtime.run_virtual`, judged by the
vector-clock oracle.  ``R`` is small so that ε is measurable; delays
are N(10, 2) ms, not the paper's N(100, 20), because at 100 ms the relay
overlay's multi-hop paths saturate R = 16 (ε ≈ 0.23, fault or none).
An 8-node mesh and a 16-node relay overlay each run three arms: a
lossless control, 2 % loss, and that loss plus a ``FaultWindow`` split
of even from odd nodes for the middle third of the sending horizon.

Every arm must deliver every operation at every node — retransmission,
the gap pull and the anti-entropy round are all the repair there is.
Every number is a count of one seeded schedule: any process, under any
``PYTHONHASHSEED``, prints the same table.  (Replaces ``bench_recovery``
/ ``bench_partition``, which measured a simulator-only anti-entropy
model; EXPERIMENTS.md keeps their last tables.)
"""

import asyncio

from repro.analysis.tables import render_table
from repro.api import NodeConfig
from repro.sim.group import Group
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual
from repro.util.rng import RandomSource

from _common import report

R, K = 16, 2
LOSS_RATE = 0.02
SPLIT = (3.0, 6.0)  # virtual seconds after the group is wired
HORIZON = 9.0
SEED = 1700
# name: (nodes, broadcasts/s per sender, config).  The rates put both
# groups near concurrency X = 2 (messages received during one transit):
# a relay path is two to three hops, a mesh path one.
TOPOLOGIES = {
    "mesh8": (8, 30.0, NodeConfig(r=R, k=K)),
    "overlay16": (16, 6.0, NodeConfig(r=R, k=K, dissemination="overlay")),
}
ARMS = {"control": (0.0, False), "loss": (LOSS_RATE, False), "loss+split": (LOSS_RATE, True)}


async def heal_run(size, rate, config, loss_rate, split) -> dict:
    """One arm; returns its counts at the start, the split, the heal and the end."""
    loop = asyncio.get_running_loop()
    group = await Group.start(
        size, config, SEED, loss_rate, GaussianDelayModel(10.0, 2.0, 2.0), judged=True,
        split=SPLIT if split else None,
    )
    origin = loop.time()

    async def sender(node):
        rng = RandomSource(SEED).spawn(f"send-{node.node_id}")
        while True:
            await asyncio.sleep(rng.exponential(1.0 / rate))
            if loop.time() - origin >= HORIZON:
                return
            await node.broadcast(None)

    async with group:
        start = group.counts()
        senders = asyncio.gather(*(sender(node) for node in group.nodes))
        await asyncio.sleep(SPLIT[0])
        at_split = group.counts()
        await asyncio.sleep(SPLIT[1] - SPLIT[0])
        at_heal = group.counts()
        await senders
        # Every operation at every node, or the arm fails.
        await group.settle()
        await asyncio.sleep(1.0)
        return {"start": start, "at_split": at_split, "at_heal": at_heal, "end": group.counts()}


def run_heal_matrix() -> dict:
    return {
        (topology, arm): run_virtual(heal_run(*TOPOLOGIES[topology], *ARMS[arm]))
        for topology in TOPOLOGIES
        for arm in ARMS
    }


def eps(run: dict, earlier: str, later: str) -> float:
    """``eps_max`` over the deliveries made between two snapshots."""
    deliveries = run[later]["deliveries"] - run[earlier]["deliveries"]
    violations = run[later]["violations"] - run[earlier]["violations"]
    return violations / deliveries if deliveries else 0.0


def test_heal(benchmark):
    results = benchmark.pedantic(run_heal_matrix, rounds=1, iterations=1)
    rows = [
        [f"{topology} {arm}",
         run["end"]["deliveries"] / (run["end"]["sent"] * (TOPOLOGIES[topology][0] - 1)),
         f"{run['end']['repairs_sent']} / "
         f"{run['end']['repairs_sent'] - run['end']['repair_duplicates']}",
         *(run["end"][name] for name in ("digests", "retransmits", "drops", "cut")),
         run["end"]["alerts"] / run["end"]["deliveries"],
         eps(run, "start", "at_split"), eps(run, "at_split", "at_heal"),
         eps(run, "at_heal", "end")]
        for (topology, arm), run in results.items()
    ]
    rates = ", ".join(f"{rate:.0f}/s ({name})" for name, (_, rate, _) in TOPOLOGIES.items())
    report("heal", render_table(
        ["scenario", "complete", "repairs sent / needed", "digests", "retransmits",
         "given up", "cut", "alerts/dlv", "eps before", "eps during", "eps after"],
        rows,
        title=(
            f"create_node() on the virtual bus: R={R}, K={K}, N(10, 2) ms, Poisson {rates} "
            f"per sender for {HORIZON:.0f} s, loss={LOSS_RATE}, "
            f"split {SPLIT[0]:.0f}-{SPLIT[1]:.0f} s, seed {SEED}"
        ),
    ))

    # Completeness is group.settle() in heal_run: an arm that returned made it.
    for (topology, arm), run in results.items():
        assert (run["end"]["cut"] > 0) == (arm == "loss+split"), (topology, arm)
        # The session outlasts a 3 s cut: nothing is given up, the mesh
        # heals by retransmission and the overlay by anti-entropy.
        assert run["end"]["drops"] == 0, (topology, arm)
    for topology in TOPOLOGIES:
        loss, split = results[topology, "loss"], results[topology, "loss+split"]
        # The cut strands half of every broadcast until it lifts...
        assert (split["end"]["repairs_sent"] + split["end"]["retransmits"]) > 2 * (
            loss["end"]["repairs_sent"] + loss["end"]["retransmits"]
        ), topology
        # ...and the backlog arrives as a burst that covers entries of
        # messages still in flight: ε after the heal exceeds both the
        # same run before the cut and the unpartitioned arm.
        assert eps(split, "at_heal", "end") > eps(split, "start", "at_split"), topology
        assert eps(split, "at_heal", "end") > eps(loss, "at_heal", "end"), topology
    # Exact per seed: the same arm again is the same run.
    assert run_virtual(heal_run(*TOPOLOGIES["mesh8"], *ARMS["loss+split"])) == (
        results["mesh8", "loss+split"]
    )
