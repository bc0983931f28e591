"""Churn during traffic on the shipping stack: mass leave and flash crowd.

Unmodified ``create_node()`` members (:class:`~repro.sim.group.Group`
under :func:`~repro.sim.vtime.run_virtual`) join and leave through the
membership protocol while every member keeps broadcasting on the
paper's §5.4 network model.  The founder grants keys from a perfect
assigner, so key sets are disjoint and the delivery condition exact:
every oracle violation is a runtime bug, and every scenario must settle
(each live member delivers every broadcast its state transfer did not
cover).
"""

import asyncio

from repro.api import MembershipConfig, NodeConfig
from repro.core.keyspace import PerfectKeyAssigner
from repro.sim.group import Group
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual
from repro.util.rng import RandomSource

R, K = 48, 3
DELAYS = GaussianDelayModel(100.0, 20.0, 20.0)


def config_of(name):
    seeds = () if name == "n0" else ("n0",)
    return NodeConfig(r=R, k=K, membership=MembershipConfig(seed_peers=seeds))


async def churn(size, seed, script, horizon=3.0, rate=15.0, crash=False):
    """``size`` members send Poisson traffic at ``rate``/s each for
    ``horizon`` virtual seconds; ``script`` is ``[(at, joiners,
    leavers)]``: at ``at`` seconds the joiners join one after another
    (and start sending), then the leavers leave together — or, with
    ``crash``, crash.  Returns the group's oracle totals, its final
    view and every name's delivery order."""
    loop = asyncio.get_running_loop()
    group = await Group.start(0, config_of, seed, 0.0, DELAYS, judged=True,
                              capacity=R // K)
    async with group:
        founder = await group.join("n0", assigner=PerfectKeyAssigner(R, K))
        for index in range(1, size):
            await group.join(f"n{index}")
        origin = loop.time()

        async def sender(node):
            rng = RandomSource(seed).spawn(f"send-{node.node_id}")
            while True:
                await asyncio.sleep(rng.exponential(1.0 / rate))
                if loop.time() - origin >= horizon or node not in group.nodes:
                    return
                await node.broadcast(None)

        senders = [asyncio.ensure_future(sender(node)) for node in group.nodes]
        depart = group.crash if crash else group.leave
        for at, joiners, leavers in script:
            await asyncio.sleep(origin + at - loop.time())
            for name in joiners:
                senders.append(asyncio.ensure_future(sender(await group.join(name))))
            await asyncio.gather(*(depart(name) for name in leavers))
        await asyncio.gather(*senders)
        await group.settle(timeout=30.0)
        joined = [name for _, joiners, _ in script for name in joiners]
        assert all(group.order[name] for name in joined), "a joiner delivered nothing"
        if not crash:
            # Nothing crashed: every broadcast is expected everywhere.
            assert group.expected() == group.sent
        return group.oracle.totals, founder.membership.view.member_ids(), group.order


class TestMassLeave:
    def test_half_the_group_leaves_at_once(self):
        """Five of ten members leave gracefully in the same instant while
        everyone sends.  A LEAVE that overtook the leaver's own data used
        to make the coordinator drop that data, which the others
        delivered, so everything after it pended at the coordinator."""
        totals, members, _ = run_virtual(
            churn(10, 1102, [(1.0, [], [f"n{i}" for i in range(5, 10)])])
        )
        assert members == ("n0", "n1", "n2", "n3", "n4")
        assert totals.deliveries > 0
        assert (totals.violations, totals.ambiguous) == (0, 0), totals


class TestFlashCrowd:
    def test_crowd_joins_mid_run(self):
        """Six joiners in quick succession against a four-member base,
        while everyone sends.  A joiner delivers the messages its state
        transfer missed, so the oracle must still hold them when the
        older members are done with them."""
        script = [(0.5 + 0.2 * i, [f"n{4 + i}"], []) for i in range(6)]
        totals, members, _ = run_virtual(churn(4, 1100, script))
        assert len(members) == 10
        assert (totals.violations, totals.ambiguous) == (0, 0), totals

    def test_flash_crowd_after_mass_leave(self):
        """Three of eight members leave, then a crowd of five joins and
        three more members leave right behind it, all mid-traffic.  A
        member's messages sent before it heard of a joiner reach the
        joiner only by repair, so a leave must hand them over before its
        LEAVE purges them everywhere."""
        script = [(0.8, [], ["n5", "n6", "n7"]),
                  (1.0, [f"n{8 + i}" for i in range(5)], ["n2", "n3", "n4"])]
        totals, members, _ = run_virtual(churn(8, 1100, script))
        assert members == ("n0", "n1", "n8", "n9", "n10", "n11", "n12")
        assert (totals.violations, totals.ambiguous) == (0, 0), totals


class TestCrashDuringTraffic:
    def test_survivors_settle_when_members_crash_mid_traffic(self):
        """Two of twelve members crash while everyone sends.  A crashed
        member delivers its own broadcast at once and may die before it
        leaves the node, so no survivor can deliver it: settle() expects
        what some survivor delivered.  Counting every self-delivery left
        every survivor "missing 1" forever."""
        crashed = ("n5", "n6")
        totals, _, order = run_virtual(
            churn(12, 1105, [(1.0, [], list(crashed))], crash=True)
        )
        survivors = [name for name in order if name not in crashed]
        (delivered,) = {frozenset(order[name]) for name in survivors}
        own = {message_id for name in crashed for message_id in order[name]
               if message_id[0] == name}
        assert own - delivered, "no broadcast died with its sender"
        assert (totals.violations, totals.ambiguous) == (0, 0), totals
