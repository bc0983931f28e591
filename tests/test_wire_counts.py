"""The wire work per delivery, counted exactly on the virtual bus: the
virtual-time twins of the benchmark's four workloads.

Every broadcast travels in one body, on every mesh link and relay hop: a
delta against the sender's previous broadcast when that is smaller than
the full form.  A receiver that meets a delta before its reference parks
it until the reference is admitted, so no twin counts a reference miss.
Each docstring below gives the parent tree's counts (per-link
references renewed by acked fulls every 64 messages, and a relay origin
that sent full within 30 ms of its previous broadcast) → this tree's.

``paced_mesh`` is ``mesh4_paced``: four nodes, a closed-loop burst,
then an open loop at 60 broadcasts/s per sender with ``Group.paced``'s
stagger of a quarter interval (4.17 ms).  A receiver's next broadcast
back to a given sender therefore leaves 4.2, 8.3 or 12.5 ms after that
sender's message arrived.  An ack held for up to two retransmit ticks
(20 ms) rides every one of those datagrams; a 5 ms ack timer caught only
the first gap and measured 1.677 datagrams, 0.664 standalone acks and
4.59 armed timers per delivery on this very scenario.

``busy_mesh`` is ``mesh4_saturate``, and behind ``LOSSY`` faults
``mesh4_lossy``.  On loopback those closed loops are bound by CPU: about
165 µs per delivery, three deliveries per broadcast and four nodes in one
process make about 500 broadcasts/s per node.  Under virtual time CPU is
free and a closed loop would issue its whole run at one instant, so the
twin is an open loop at that rate, after the benchmark's 100-broadcast
closed-loop warm-up.

``paced_overlay`` is ``overlay16_paced``: sixteen relay-overlay nodes, a
10-message burst, then 40 broadcasts per sender at 2/s.  Each delivery
costs about 3.1 RELAY copies.  When every copy carried the full R = 128
vector and a view sample, the paced phase read 809.2 B, 3.256 datagrams,
920 digests, 420 repairs and 0 reference misses.

Every count is exact for its seed (``tests/test_virtual_time.py`` holds
that); a failure message carries the counts.
"""

from repro.api import NodeConfig
from repro.sim.group import Group
from repro.sim.network import ConstantDelayModel
from repro.sim.vtime import run_virtual

# mesh4_lossy's FaultyTransport settings.
LOSSY = dict(drop_rate=0.05, reorder_rate=0.10, reorder_delay=(0.002, 0.02))


def counts(group) -> dict:
    """``Group.counts()`` plus the relay copies, the encodings the
    message bodies crossed the links in, the session frames sent, and
    the full forms rebuilt from a delta (by the node's message codec or
    its session's frame codec)."""
    wire = group.wire()
    return {
        **group.counts(), "relays": wire.relay_sent, "deltas": wire.delta_sent,
        "fulls": wire.full_sent, "ref_misses": wire.delta_ref_misses,
        "frames": wire.frames_sent,
        "rebuilds": sum(
            node.codec_counters.deltas_decoded + node.session.codec_counters.deltas_decoded
            for node in group.nodes
        ),
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


async def busy_mesh(seed: int, faults=None) -> dict:
    """4-node mesh, 1 ms links: a 100-broadcast burst per node, then 600
    per node at 500/s, with ``faults`` on every node's sends."""
    group = await Group.start(
        4, NodeConfig(), seed, 0.0, ConstantDelayModel(1.0), judged=True, faults=faults
    )
    return await paced_phase(group, 100, 600, 500.0)


async def paced_overlay(seed: int) -> dict:
    """16-node relay overlay, 0.2 ms links, no loss: a 10-broadcast
    burst per node, then 40 per node at 2/s.  Constant delays and no
    loss leave the bus nothing to draw, so every seed runs the same
    scenario; the nodes' own generators are seeded by their names."""
    group = await Group.start(
        16, NodeConfig(dissemination="overlay"), seed, 0.0, ConstantDelayModel(0.2), judged=True
    )
    return await paced_phase(group, 10, 40, 2.0)


def assert_one_delta_per_broadcast(paced: dict) -> None:
    """Every body crossed its link as a delta, and none bounced."""
    assert (paced["fulls"], paced["ref_misses"], paced["violations"]) == (0, 0, 0), paced


def test_acks_ride_the_data_on_a_paced_mesh():
    """Parent → this tree: 540,889 → 525,143 B (75.1 → 72.9 B per
    delivery, 108 fulls → 0); datagrams, standalone acks and timers
    unchanged."""
    paced = run_virtual(paced_mesh(seed=1))
    deliveries = paced["deliveries"]
    assert deliveries == 4 * 3 * 600
    assert paced["retransmits"] == 0, paced
    assert_one_delta_per_broadcast(paced)
    assert paced["datagrams"] <= 1.10 * deliveries, paced
    assert paced["standalone_acks"] <= 0.05 * deliveries, paced
    assert paced["timers"] <= 2.4 * deliveries, paced
    # Exact for the seed: 72.9 B, 1.041 datagrams, 1.044 frames, 0.028
    # standalone acks, 2.29 timers and 1.000 full-form rebuilds per
    # delivery.
    assert (
        paced["bytes"], paced["datagrams"], paced["frames"], paced["standalone_acks"],
        paced["timers"], paced["rebuilds"],
    ) == (525143, 7498, 7514, 204, 16475, 7200), paced


def test_a_busy_mesh_sends_one_body_per_broadcast():
    """``mesh4_saturate``.  Parent → this tree: 536,900 → 520,748 B
    (74.6 → 72.3 B per delivery, 109 fulls → 0); 7,202 datagrams, 0
    standalone acks and 12,496 timers on both."""
    busy = run_virtual(busy_mesh(seed=1))
    assert busy["deliveries"] == 4 * 3 * 600
    assert busy["retransmits"] == 0, busy
    assert_one_delta_per_broadcast(busy)
    assert (
        busy["bytes"], busy["datagrams"], busy["frames"], busy["standalone_acks"],
        busy["timers"], busy["digests"], busy["repairs_sent"], busy["rebuilds"],
    ) == (520748, 7202, 7236, 0, 12496, 8, 28, 7200), busy


def test_a_lossy_mesh_parks_the_deltas_that_overtake_their_reference():
    """``mesh4_lossy``: 5 % of datagrams dropped and 10 % held back
    2–20 ms, so a retransmitted frame is overtaken by its sender's next
    ones.  Those deltas wait for it instead of missing.  Parent → this
    tree: 611,943 → 520,574 B (85.0 → 72.3 B per delivery, 108 fulls →
    0), datagrams 7,220 → 7,224, standalone acks 9 → 12, timers 13,564 →
    13,573, retransmits 926 → 941, repairs 66 → 47."""
    lossy = run_virtual(busy_mesh(seed=1, faults=LOSSY))
    deliveries = lossy["deliveries"]
    assert deliveries == 4 * 3 * 600
    assert_one_delta_per_broadcast(lossy)
    assert lossy["datagrams"] <= 1.02 * 7220, lossy  # the parent's count
    assert (
        lossy["bytes"], lossy["datagrams"], lossy["frames"], lossy["standalone_acks"],
        lossy["timers"], lossy["retransmits"], lossy["digests"], lossy["repairs_sent"],
        lossy["rebuilds"],
    ) == (520574, 7224, 9106, 12, 13573, 941, 9, 47, 7200), lossy


def test_relay_envelopes_carry_the_origins_delta_on_a_paced_overlay():
    """Parent → this tree: 4,521,557 → 4,523,459 B (471.0 → 471.2 B
    per delivery), datagrams 31,260 → 31,286, digests 921 → 904, repairs
    395 → 339, relay copies 29,724 → 29,772."""
    paced = run_virtual(paced_overlay(seed=1))
    deliveries = paced["deliveries"]
    assert deliveries == 16 * 15 * 40
    assert_one_delta_per_broadcast(paced)
    assert paced["deltas"] == paced["relays"], paced
    assert paced["bytes"] <= 600 * deliveries, paced
    assert paced["datagrams"] <= 3.5 * deliveries, paced
    # Exact for the seed: 471.2 B, 3.259 datagrams, 3.263 frames, 0.094
    # digests and 0.035 repairs per delivery, 3.10 relay copies, and
    # 0.967 full-form rebuilds per delivery.
    assert (
        paced["bytes"], paced["datagrams"], paced["frames"], paced["digests"],
        paced["repairs_sent"], paced["relays"], paced["rebuilds"],
    ) == (4523459, 31286, 31323, 904, 339, 29772, 9284), paced
