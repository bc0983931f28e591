"""The wire work per delivery, counted exactly on the virtual bus: the
virtual-time twins of the benchmark's ``mesh4_paced`` and
``overlay16_paced`` workloads.

``paced_mesh`` is ``mesh4_paced``: four nodes, a closed-loop burst,
then an open loop at 60 broadcasts/s per sender with ``Group.paced``'s
stagger of a quarter interval (4.17 ms).  A receiver's next broadcast
back to a given sender therefore leaves 4.2, 8.3 or 12.5 ms after that
sender's message arrived.  An ack held for up to two retransmit ticks
(20 ms) rides every one of those datagrams; a 5 ms ack timer caught only
the first gap and measured 1.677 datagrams, 0.664 standalone acks and
4.59 armed timers per delivery on this very scenario.

``paced_overlay`` is ``overlay16_paced``: sixteen relay-overlay nodes, a
10-message burst, then 40 broadcasts per sender at 2/s.  Each delivery
costs about 3.1 RELAY copies.  When every copy carried the full R = 128
vector and a view sample, the paced phase read 809.2 B, 3.256 datagrams,
920 digests, 420 repairs and 0 reference misses; half-weight envelopes
(the origin's delta forwarded verbatim, the sample only on the copies
whose coin won) read 471.0 B at the same datagram count.

Every count is exact for its seed (``tests/test_virtual_time.py`` holds
that); a failure message carries the counts.
"""

from repro.api import NodeConfig
from repro.sim.group import Group
from repro.sim.network import ConstantDelayModel
from repro.sim.vtime import run_virtual


def counts(group) -> dict:
    """``Group.counts()`` plus the relay copies and the encodings the
    message bodies crossed the links in."""
    wire = group.wire()
    return {
        **group.counts(), "relays": wire.relay_sent, "deltas": wire.delta_sent,
        "fulls": wire.full_sent, "ref_misses": wire.delta_ref_misses,
    }


async def paced_phase(group, burst: int, count: int, rate: float) -> dict:
    """A closed-loop burst, then ``count`` broadcasts per node at
    ``rate``; returns the counts of the paced phase."""
    async with group:
        await group.burst(burst)
        await group.settle()
        before = counts(group)
        await group.paced(count, rate=rate)
        await group.settle()
        after = counts(group)
    return {name: after[name] - before[name] for name in after}


async def paced_mesh(seed: int) -> dict:
    """4-node mesh, 1 ms links, no loss: a 100-broadcast burst per node,
    then 600 per node at 60/s."""
    group = await Group.start(4, NodeConfig(), seed, 0.0, ConstantDelayModel(1.0), judged=True)
    return await paced_phase(group, 100, 600, 60.0)


async def paced_overlay(seed: int) -> dict:
    """16-node relay overlay, 0.2 ms links, no loss: a 10-broadcast
    burst per node, then 40 per node at 2/s.  Constant delays and no
    loss leave the bus nothing to draw, so every seed runs the same
    scenario; the nodes' own generators are seeded by their names."""
    group = await Group.start(
        16, NodeConfig(dissemination="overlay"), seed, 0.0, ConstantDelayModel(0.2), judged=True
    )
    return await paced_phase(group, 10, 40, 2.0)


def test_acks_ride_the_data_on_a_paced_mesh():
    paced = run_virtual(paced_mesh(seed=1))
    deliveries = paced["deliveries"]
    assert deliveries == 4 * 3 * 600
    assert (paced["retransmits"], paced["violations"]) == (0, 0), paced
    assert paced["datagrams"] <= 1.10 * deliveries, paced
    assert paced["standalone_acks"] <= 0.05 * deliveries, paced
    assert paced["timers"] <= 2.4 * deliveries, paced
    # Exact for the seed: 75.1 B, 1.041 datagrams, 0.028 standalone acks
    # and 2.29 timers per delivery.
    assert (
        paced["bytes"], paced["datagrams"], paced["standalone_acks"], paced["timers"]
    ) == (540889, 7498, 204, 16475), paced


def test_relay_envelopes_carry_the_origins_delta_on_a_paced_overlay():
    paced = run_virtual(paced_overlay(seed=1))
    deliveries = paced["deliveries"]
    assert deliveries == 16 * 15 * 40
    assert (paced["ref_misses"], paced["violations"]) == (0, 0), paced
    # Paced at 2/s, every broadcast leaves long after its predecessor's
    # wave: every relay copy carries a delta.
    assert paced["deltas"] == paced["relays"] and paced["fulls"] == 0, paced
    assert paced["bytes"] <= 600 * deliveries, paced
    assert paced["datagrams"] <= 3.5 * deliveries, paced
    # Exact for the seed: 471.0 B, 3.256 datagrams, 0.096 digests and
    # 0.041 repairs per delivery, 3.10 relay copies.
    assert (
        paced["bytes"], paced["datagrams"], paced["digests"], paced["repairs_sent"],
        paced["relays"],
    ) == (4521557, 31260, 921, 395, 29724), paced
