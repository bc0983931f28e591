"""The session's wire work per delivery, counted exactly on the virtual bus.

``paced_mesh`` is the benchmark's ``mesh4_paced`` workload on the
virtual-time harness: four nodes, a closed-loop burst, then an open loop
at 60 broadcasts/s per sender with ``Group.paced``'s stagger of a
quarter interval (4.17 ms).  A receiver's next broadcast back to a given
sender therefore leaves 4.2, 8.3 or 12.5 ms after that sender's message
arrived.  An ack held for up to two retransmit ticks (20 ms) rides every
one of those datagrams; a 5 ms ack timer caught only the first gap and
measured 1.677 datagrams, 0.664 standalone acks and 4.59 armed timers
per delivery on this very scenario.

Every count is exact for its seed (``tests/test_virtual_time.py`` holds
that); a failure message carries the counts.
"""

from repro.api import NodeConfig
from repro.sim.group import Group
from repro.sim.network import ConstantDelayModel
from repro.sim.vtime import run_virtual


async def paced_mesh(seed: int) -> dict:
    """4-node mesh, 1 ms links, no loss: a 100-broadcast burst per node,
    then 600 per node at 60/s.  Returns the counts of the paced phase."""
    group = await Group.start(4, NodeConfig(), seed, 0.0, ConstantDelayModel(1.0), judged=True)
    async with group:
        await group.burst(100)
        await group.settle()
        before = group.counts()
        await group.paced(600, rate=60.0)
        await group.settle()
        after = group.counts()
    return {name: after[name] - before[name] for name in after}


def test_acks_ride_the_data_on_a_paced_mesh():
    paced = run_virtual(paced_mesh(seed=1))
    deliveries = paced["deliveries"]
    assert deliveries == 4 * 3 * 600
    assert (paced["retransmits"], paced["violations"]) == (0, 0), paced
    assert paced["datagrams"] <= 1.10 * deliveries, paced
    assert paced["standalone_acks"] <= 0.05 * deliveries, paced
    assert paced["timers"] <= 2.4 * deliveries, paced
    # Exact for the seed: 1.041, 0.028 and 2.29 per delivery.
    assert (paced["datagrams"], paced["standalone_acks"], paced["timers"]) == (
        7498, 204, 16475
    ), paced
