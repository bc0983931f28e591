"""Overlay swarm soak: 64 real in-process nodes, oracle-checked.

The tentpole acceptance scenario at test scale: a 64-node swarm over
the in-process bus, disseminating exclusively through the bounded-
fanout relay overlay (fanout 3, view bound 12 — each node talks to a
dozen peers out of 63), with injected datagram loss so the anti-entropy
backstop actually earns its keep.  Every node starts with only a tiny
ring of seed peers; the piggybacked view gossip has to spread the rest
of the swarm's addresses by itself.

Asserted:

* **coverage** — 100% of broadcasts delivered everywhere once the
  relay wave plus anti-entropy settle (no probabilistic tail left);
* **safety** — zero causal violations against the ground-truth oracle
  (disjoint key sets make the (R, K) condition exact, so the zero is
  sound, not probabilistic);
* **per-sender FIFO** at every node;
* **view diversity** — the live rich-get-richer check (satellite of
  the overlay ISSUE): the swarm's views collectively cover most of the
  membership, no single node colonises the views, and the per-node
  diversity gauge stays well above the collapse floor;
* **redundancy is real** — duplicate relay copies arrive and are
  absorbed by the SeenFilter without re-forwarding (infect-and-die).

Marked ``soak``: excluded from tier-1 (see pyproject addopts), run in
CI's dedicated overlay-swarm job.
"""

import asyncio
from collections import Counter

import pytest

from repro.api import NodeConfig, RetransmitPolicy, create_node
from repro.net import LocalAsyncBus
from repro.sim.network import GaussianDelayModel
from repro.sim.oracle import CausalityOracle, DeliveryVerdict
from repro.util.rng import RandomSource

pytestmark = pytest.mark.soak

N_NODES = 64
ROUNDS = 3
FANOUT = 3
VIEW_SIZE = 12
SEED_PEERS = 4  # ring neighbours each node starts with


async def wait_for(predicate, timeout=240.0, interval=0.02):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


def test_overlay_swarm_converges_with_zero_violations():
    async def scenario():
        names = [f"n{i:02d}" for i in range(N_NODES)]
        bus = LocalAsyncBus(
            delay_model=GaussianDelayModel(5.0, 1.0, 0.0),
            rng=RandomSource(seed=13).spawn("overlay-swarm"),
            loss_rate=0.05,
        )
        oracle = CausalityOracle(capacity=N_NODES)
        order = {name: [] for name in names}
        violations = []
        config = NodeConfig(
            r=3 * N_NODES,
            k=3,
            retransmit=RetransmitPolicy(initial_timeout=0.05),
            anti_entropy_interval=0.15,
            dissemination="overlay",
            fanout=FANOUT,
            view_size=VIEW_SIZE,
        )

        def on_delivery(name):
            def callback(record):
                if record.local:
                    return
                order[name].append(record.message.message_id)
                result = oracle.classify_delivery(
                    name,
                    record.message.message_id,
                    now=asyncio.get_running_loop().time(),
                )
                if result.verdict is DeliveryVerdict.VIOLATION:
                    violations.append((name, record.message.message_id))

            return callback

        nodes = {}
        for i, name in enumerate(names):
            oracle.register_node(name)
            nodes[name] = await create_node(
                name,
                # Disjoint key sets: the delivery condition is exact.
                config.replace(keys=tuple(range(3 * i, 3 * i + 3))),
                transport=bus.attach(name),
                on_delivery=on_delivery(name),
            )
        # Sparse bootstrap: a ring of SEED_PEERS successors per node.
        # Everything beyond that must arrive through view gossip.
        for i, name in enumerate(names):
            for step in range(1, SEED_PEERS + 1):
                nodes[name].add_peer(names[(i + step) % N_NODES])

        sent = []
        try:
            for _ in range(ROUNDS):
                for name in names:
                    node = nodes[name]
                    message_id = (name, node.endpoint.clock.send_count + 1)
                    oracle.on_send(
                        name,
                        message_id,
                        now=asyncio.get_running_loop().time(),
                        fanout=N_NODES - 1,
                    )
                    await node.broadcast(message_id)
                    sent.append(message_id)
                await asyncio.sleep(0.05)

            expected = len(sent) * (N_NODES - 1)
            converged = lambda: (  # noqa: E731
                sum(len(o) for o in order.values()) == expected
            )
            assert await wait_for(converged), (
                f"coverage gap after anti-entropy: "
                f"{sum(len(o) for o in order.values())}/{expected} deliveries"
            )
            assert not violations, f"causal violations: {violations[:10]}"

            # Per-sender FIFO at every node.
            for name in names:
                last = {}
                for sender, seq in order[name]:
                    if sender in last:
                        assert seq == last[sender] + 1, (
                            f"{name} broke {sender}'s FIFO at seq {seq}"
                        )
                    last[sender] = seq

            # The overlay really carried the load: every broadcast went
            # out as a bounded push, redundant copies were absorbed.
            pushes = sum(n.overlay.stats.relay_pushes for n in nodes.values())
            intake = sum(
                n.overlay.stats.relay_first_intake for n in nodes.values()
            )
            duplicates = sum(
                n.overlay.stats.relay_duplicates for n in nodes.values()
            )
            assert pushes == len(sent)
            assert intake > 0
            assert duplicates > 0, (
                "no duplicate relay copies — gossip redundancy absent"
            )

            # View diversity (the live rich-get-richer check).  The
            # views collectively sample most of the swarm ...
            occupancy = Counter()
            total_slots = 0
            for name in names:
                for address in nodes[name].overlay.addresses():
                    occupancy[address] += 1
                    total_slots += 1
            assert len(occupancy) >= 0.5 * N_NODES, (
                f"views cover only {len(occupancy)}/{N_NODES} members"
            )
            # ... no single member colonised them (a collapsed overlay
            # concentrates every view on a few hubs) ...
            most_common = occupancy.most_common(1)[0][1]
            assert most_common <= 0.5 * total_slots, (
                f"one member holds {most_common}/{total_slots} view slots"
            )
            # ... and the per-node gauge agrees (collapse floor is
            # ~1/window ≈ 0.004; a healthy swarm sits far above it).
            diversities = [
                nodes[name].overlay.sample_diversity() for name in names
            ]
            assert sum(diversities) / len(diversities) > 0.05, (
                f"mean sample diversity {sum(diversities) / len(diversities)}"
            )
            for name in names:
                gauges = nodes[name].metrics.snapshot()["gauges"]
                assert gauges["repro_overlay_sample_diversity"] == (
                    pytest.approx(nodes[name].overlay.sample_diversity())
                )
        finally:
            await asyncio.gather(*(node.close() for node in nodes.values()))

    asyncio.run(scenario())
