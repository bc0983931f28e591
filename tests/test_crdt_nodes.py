"""CRDT replicas on networked nodes: a replica is a node's delivery handler.

Four unmodified ``create_node()`` mesh nodes on a lossy seeded bus under
:func:`~repro.sim.vtime.run_virtual`, each with one replica as its
``on_delivery``.  Every operation crosses the wire as a JSON payload,
and what the bus drops the sessions and anti-entropy resend.  Disjoint
key sets make delivery exactly causal, so every replica must converge
with no anomaly and no orphan.
"""

import asyncio

import pytest

from repro.api import NodeConfig
from repro.crdt import ORSet, RGA, ROOT
from repro.sim.group import Group, disjoint_keys
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual
from repro.util.rng import RandomSource

NODES = 4
OPERATIONS = 30  # per node
LOSS = 0.05


def orset_step(replica, rng):
    """Add an item, or remove one this replica sees (its observed tags
    name adds of other replicas)."""
    element = rng.choice(["milk", "eggs", "bread", "tea"])
    if element in replica and rng.random() < 0.5:
        return replica.remove(element)
    return replica.add(element)


def rga_step(replica, rng):
    """Type after a visible character (often another replica's), or
    delete one."""
    visible = replica.visible_ids()
    if visible and rng.random() < 0.2:
        return replica.delete(rng.choice(visible))
    parent = rng.choice(visible) if visible else ROOT
    return replica.insert_after(parent, rng.choice("abc"))


async def replicas_on_a_lossy_mesh(crdt_type, step, seed):
    group = await Group.start(
        0, disjoint_keys(NodeConfig()), seed, LOSS, GaussianDelayModel(10.0, 2.0, 2.0),
        judged=True, capacity=NODES,
    )
    replicas = {}
    async with group:
        for index in range(NODES):
            name = f"n{index}"
            replicas[name] = crdt_type(name)
            await group.join(name, on_delivery=replicas[name].on_delivery)

        async def editor(node):
            replica = replicas[node.node_id]
            rng = RandomSource(seed).spawn(f"edit-{node.node_id}")
            for _ in range(OPERATIONS):
                await asyncio.sleep(rng.exponential(0.02))
                await node.broadcast(step(replica, rng))

        await asyncio.gather(*(editor(node) for node in group.nodes))
        await group.settle()
        return replicas, group.counts(), group.bus.dropped


@pytest.mark.parametrize("crdt_type, step", [(ORSet, orset_step), (RGA, rga_step)])
def test_replicas_on_create_node_converge_under_loss(crdt_type, step):
    replicas, counts, dropped = run_virtual(replicas_on_a_lossy_mesh(crdt_type, step, seed=42))
    assert dropped > 0 and counts["retransmits"] > 0, counts
    assert counts["deliveries"] == NODES * (NODES - 1) * OPERATIONS
    assert counts["violations"] == 0, counts
    signatures = {replica.state_signature() for replica in replicas.values()}
    assert len(signatures) == 1, signatures
    assert [replica.anomalies for replica in replicas.values()] == [0] * NODES
    if crdt_type is RGA:
        assert [replica.orphan_count for replica in replicas.values()] == [0] * NODES
    assert replicas["n0"].value()
