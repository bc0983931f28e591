"""Continuous joins and leaves — the scenario vector clocks cannot serve.

The paper's opening argument: collaborative and social systems are large
*and churning*, and a vector clock needs to know the exact process count,
so it cannot follow.  The (R, K) scheme lets a newcomer take a key set
and participate at once.

This example runs the shipping node stack (``create_node()`` members of
:class:`repro.sim.group.Group`, on the seeded in-process bus under
virtual time) with the membership protocol on: a 16-member core, every
member broadcasting, while members join (JOIN, key grant, state
transfer) and leave gracefully (LEAVE) about once a second each.  It
shows:

* the system stays live: every member delivers every broadcast its
  state transfer did not cover, and nothing is left pending;
* newcomers start from the transferred state and send and deliver at
  once;
* the error rate, judged by a vector-clock oracle beside the run;
* the timestamp stays exactly R integers + K key indices, regardless of
  how many processes ever existed — while a vector clock sized for the
  union of all participants keeps growing.

Run:  python examples/churn_membership.py
"""

import asyncio

from repro.api import MembershipConfig, NodeConfig
from repro.core.theory import timestamp_overhead_bits
from repro.sim.group import Group
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual
from repro.util.rng import RandomSource

CORE = 16
R, K = 100, 4
SEND_RATE = 10.0  # broadcasts per second per member
CHURN_INTERVAL = 1.0  # mean seconds between joins, and between leaves
HORIZON = 6.0  # seconds of traffic
SEED = 23


def config_of(name: str) -> NodeConfig:
    seeds = () if name == "n0" else ("n0",)
    return NodeConfig(r=R, k=K, membership=MembershipConfig(seed_peers=seeds))


async def scenario() -> dict:
    loop = asyncio.get_running_loop()
    group = await Group.start(CORE, config_of, SEED, 0.0,
                              GaussianDelayModel(100.0, 20.0, 20.0),
                              judged=True, capacity=4 * CORE)
    async with group:
        until = loop.time() + HORIZON
        joined, left = [], []

        async def sender(node):
            rng = RandomSource(SEED).spawn(f"send-{node.node_id}")
            while True:
                await asyncio.sleep(rng.exponential(1.0 / SEND_RATE))
                if loop.time() >= until or node not in group.nodes:
                    return
                await node.broadcast(f"{node.node_id} says hi")

        senders = [asyncio.ensure_future(sender(node)) for node in group.nodes]

        async def joins():
            rng = RandomSource(SEED).spawn("joins")
            while loop.time() + (wait := rng.exponential(CHURN_INTERVAL)) < until:
                await asyncio.sleep(wait)
                node = await group.join(f"n{CORE + len(joined)}")
                joined.append(node.node_id)
                senders.append(asyncio.ensure_future(sender(node)))

        async def leaves():
            rng = RandomSource(SEED).spawn("leaves")
            while loop.time() + (wait := rng.exponential(CHURN_INTERVAL)) < until:
                await asyncio.sleep(wait)
                # Anyone but the founder, the newcomers' seed peer.
                members = [node.node_id for node in group.nodes[1:]]
                left.append(members[rng.integer(0, len(members))])
                await group.leave(left[-1])

        await asyncio.gather(joins(), leaves())
        await asyncio.gather(*senders)
        await group.settle()
        return {
            "joined": joined, "left": left, "sent": group.sent,
            "totals": group.oracle.totals,
            "newcomer_deliveries": {name: len(group.order[name]) for name in joined},
            "pending": sum(node.endpoint.pending_count for node in group.nodes),
            "members": len(group.nodes),
        }


def main() -> None:
    print(__doc__)
    result = run_virtual(scenario())
    totals = result["totals"]
    ever_existed = CORE + len(result["joined"])
    print(f"initial population: {CORE}, final: {result['members']}")
    print(f"joins: {len(result['joined'])}, leaves: {len(result['left'])}")
    print(f"processes that ever existed: {ever_existed}")
    print(f"deliveries by each newcomer: {result['newcomer_deliveries']}")
    print()
    print(f"messages broadcast: {result['sent']}, delivered remotely: {totals.deliveries}")
    print(f"left pending: {result['pending']} (must be 0)")
    print(
        f"error bounds under churn: eps_min={totals.eps_min:.2e}, "
        f"eps_max={totals.eps_max:.2e}"
    )
    print()
    rk_bytes = timestamp_overhead_bits(R, K) // 8
    vc_bytes = timestamp_overhead_bits(ever_existed, 1) // 8
    print(f"(R={R}, K={K}) timestamp: {rk_bytes} bytes — churn-invariant")
    print(f"vector clock over every process ever seen: {vc_bytes} bytes — and growing")

    assert result["pending"] == 0
    assert result["joined"] and result["left"]
    assert all(result["newcomer_deliveries"].values())


if __name__ == "__main__":
    main()
