"""Anti-entropy priced by damage: one digest partner per round and a
grace-timed gap pull, counted on the virtual-time harness.

Every count below is exact for its seed (``tests/test_virtual_time.py``
holds that); a failure message carries the counts, and re-running the
named scenario with the same seed replays them.
"""

import asyncio

import pytest

from repro.api import NodeConfig, RetransmitPolicy, create_endpoint, create_node
from repro.core.codec import MessageCodec, RelayFrame
from repro.net import FaultWindow, FaultyTransport, LocalAsyncBus
from repro.net import session as session_module
from repro.net.node import _GAP_PULL_GRACE
from repro.sim.group import Group
from repro.sim.network import ConstantDelayModel, GaussianDelayModel
from repro.sim.vtime import run_virtual

OVERLAY = NodeConfig(dissemination="overlay")
SWARM = 16


async def paced_overlay(seed: int, delay_ms: float, messages: int = 20) -> dict:
    """The benchmark's overlay workload on the virtual bus: 16 nodes,
    2 % loss, a 10-message closed-loop warm-up, then ``messages`` per
    sender at 2/s.  Returns the counts of the paced phase alone."""
    delays = GaussianDelayModel(delay_ms, delay_ms / 5, delay_ms / 5)
    group = await Group.start(SWARM, OVERLAY, seed, 0.02, delays, judged=True)
    async with group:
        await group.burst(10)
        await group.settle()
        await asyncio.sleep(0.05)
        before = group.counts()
        await group.paced(messages, rate=2.0)
        await group.settle()  # every operation delivered
        after = group.counts()
    return {name: after[name] - before[name] for name in after}


@pytest.mark.parametrize("seed", [1, 7])
def test_overlay_repair_is_priced_by_damage(seed):
    paced = run_virtual(paced_overlay(seed, delay_ms=10.0))
    assert paced["deliveries"] == SWARM * (SWARM - 1) * 20
    assert paced["violations"] == 0, paced
    needed = paced["repairs_sent"] - paced["repair_duplicates"]
    assert needed > 0, f"loss was never exercised: {paced}"
    # The parent answered every gap from all 12 view members (12.6
    # repairs per repair needed); one partner answers it about once,
    # plus what was still in flight when the digest was written.
    assert paced["repairs_sent"] < 2 * needed, paced
    assert paced["digests"] < 0.15 * paced["deliveries"], paced
    # Gaps are what the push wave missed; pulls do not outnumber them.
    assert paced["gap_pulls"] <= needed, paced


def test_a_lossless_burst_raises_no_retransmit_storm():
    """The storm guard.  A digest sent mid-wave claims everything in
    flight as missing; with no grace, this burst draws 3,726 repairs and
    318 retransmits for 160 broadcasts (EXPERIMENTS.md), with it a few
    dozen repairs of what the relay wave really missed and none of the
    retransmits."""

    async def scenario():
        group = await Group.start(SWARM, OVERLAY, 3, 0.0, ConstantDelayModel(10.0))
        async with group:
            await group.burst(10)
            await group.settle()
            await asyncio.sleep(1.0)
            return group.counts()

    burst = run_virtual(scenario())
    assert burst["retransmits"] == 0, burst
    assert burst["repairs_sent"] < SWARM * 10, burst


def test_no_gap_pull_is_armed_when_nothing_pends():
    """No loss and every broadcast fully delivered before the next is
    issued: nothing is ever pended, so no timer is armed, no pull sent."""

    async def scenario():
        group = await Group.start(SWARM, OVERLAY, 5, 0.0, ConstantDelayModel(10.0))
        async with group:
            for node in group.nodes * 2:
                await node.broadcast("one at a time")
                await group.settle()
            return group.counts()

    quiet = run_virtual(scenario())
    assert quiet["gap_pulls_armed"] == quiet["gap_pulls"] == 0, quiet


# ----------------------------------------------------------------------
# a partition that outlasts the retries
# ----------------------------------------------------------------------

OUTAGE = 20.0  # the default policy gives a frame up after at most 16.4 s


async def split_and_heal(size: int, config: NodeConfig, seed: int) -> tuple:
    """Even and odd nodes are cut apart from t = 1 s for ``OUTAGE``; every
    node broadcasts twice into the cut.  Returns the counts of the cut,
    the counts of the heal, and how long after the cut lifted the last
    node caught up."""
    loop = asyncio.get_running_loop()
    group = await Group.start(
        size, config, seed, 0.0, GaussianDelayModel(10.0, 2.0, 2.0), judged=True,
        split=(1.0, 1.0 + OUTAGE),
    )
    async with group:
        await group.burst(2)
        await group.settle()
        await asyncio.sleep(1.0 - loop.time())
        start = group.counts()
        await group.burst(2)
        await asyncio.sleep(OUTAGE - 0.5)
        # Each side has its own half of the cut's traffic and no more.
        assert group.exact_deliveries() == [size * 2 + size] * size
        lifted = group.counts()
        await group.settle()  # every operation delivered
        caught_up = loop.time() - (1.0 + OUTAGE)
        await asyncio.sleep(2.0)
        healed = group.counts()
    return (
        {name: lifted[name] - start[name] for name in start},
        {name: healed[name] - lifted[name] for name in start},
        caught_up,
    )


@pytest.mark.parametrize(
    "size, config, frames_given_up, repairs_sent, digests, heal_violations", [
        (4, NodeConfig(), 16, 16, 27, 0),
        (16, OVERLAY, 2, 256, 122, 0),
    ]
)
def test_a_split_that_outlasts_the_retries_is_healed_by_anti_entropy(
    size, config, frames_given_up, repairs_sent, digests, heal_violations
):
    """The damage is every broadcast of the cut at every node of the
    other side.  On the mesh the session retries each of those frames,
    gives all of them up before the cut lifts, and anti-entropy alone
    carries them over; on the overlay a relay push is never retried
    (the two frames it gives up on this seed are repairs answering a
    digest that crossed just before the cut).  Either way each missing
    copy is shipped exactly once.

    The heal is a burst of late messages under concurrent traffic — the
    one error the paper permits — so at R = 128, K = 3 a few of the
    overlay's 256 heal deliveries may break causal order: 46 of 7,680
    (0.60 %) over seeds 5–34, down from 122 (1.59 %) before deltas
    waited for their reference (EXPERIMENTS.md, "One delta rule")."""
    during, heal, caught_up = run_virtual(split_and_heal(size, config, seed=5))
    damage = (size * 2) * (size // 2)
    assert during["deliveries"] == (size * 2) * (size // 2 - 1)
    assert heal["deliveries"] == damage
    assert during["violations"] == 0
    assert heal["repairs_sent"] - heal["repair_duplicates"] == damage, heal
    # One partner per round: the first round after the lift that pairs
    # a node with the other side closes its gap.
    assert caught_up < 3 * 0.5 * 1.5, caught_up
    # Exact for the seed (tests/test_virtual_time.py holds that).
    assert (
        during["drops"], heal["repairs_sent"], heal["digests"], heal["violations"]
    ) == (frames_given_up, repairs_sent, digests, heal_violations), (during, heal)


# ----------------------------------------------------------------------
# the gap pull, step by step
# ----------------------------------------------------------------------


async def overlay_pair(bus, payloads=("first", "second")):
    """``a`` and ``b`` know each other; ``a`` holds broadcasts ``b``
    has not been pushed (``a`` had no targets when it issued them)."""
    a = await create_node("a", OVERLAY, transport=bus.attach("a"))
    b = await create_node("b", OVERLAY, transport=bus.attach("b"))
    for payload in payloads:
        await a.broadcast(payload)
    a.add_peer("b")
    b.add_peer("a")
    pushes = [
        RelayFrame(origin="a", seq=seq, hops=0, sent_at=0.0, sample=(),
                   payload=a.store.get("a", seq))
        for seq in range(1, len(payloads) + 1)
    ]
    return a, b, pushes


def test_gap_pull_asks_the_pusher_after_the_grace_and_not_before():
    async def scenario():
        bus = LocalAsyncBus(ConstantDelayModel(1.0))
        a, b, (first, second) = await overlay_pair(bus)
        try:
            b._handle_relay(second, "a")  # ahead of its causal past
            assert b.delivered_payloads() == []
            assert b.repair_stats.gap_pulls_armed == 1
            await asyncio.sleep(_GAP_PULL_GRACE * 0.9)
            assert b.transport_stats().digests_sent == 0
            await asyncio.sleep(_GAP_PULL_GRACE * 0.2 + 0.02)
            assert b.delivered_payloads() == ["first", "second"]
            return b.repair_stats, b.transport_stats("a"), a.repair_stats
        finally:
            await a.close()
            await b.close()

    pulled, link, served = run_virtual(scenario())
    assert (pulled.gap_pulls, pulled.gap_pulls_unneeded) == (1, 0)
    assert link.digests_sent == 1
    # The digest named "second" as held, so exactly the gap came back.
    assert (served.repairs_sent, pulled.repair_duplicates) == (1, 0)


def test_a_gap_the_relay_wave_closes_in_time_costs_nothing():
    async def scenario():
        bus = LocalAsyncBus(ConstantDelayModel(1.0))
        a, b, (first, second) = await overlay_pair(bus)
        try:
            b._handle_relay(second, "a")
            await asyncio.sleep(_GAP_PULL_GRACE / 2)
            b._handle_relay(first, "a")  # the longer relay path
            await asyncio.sleep(_GAP_PULL_GRACE)
            assert b.delivered_payloads() == ["first", "second"]
            return b.repair_stats, b.transport_stats()
        finally:
            await a.close()
            await b.close()

    stats, wire = run_virtual(scenario())
    assert (stats.gap_pulls_armed, stats.gap_pulls) == (1, 0)
    assert wire.digests_sent == 0


def test_a_gap_that_opens_while_the_timer_runs_is_pulled_too():
    """Bugfix: one gap-pull timer per node, and it used to look only at
    the message that armed it.  Here the wave releases that message
    within the grace, but a second gap opened meanwhile: the fired timer
    re-arms for it, and the second grace ends in a pull instead of a
    wait for the next anti-entropy round."""

    async def scenario():
        bus = LocalAsyncBus(ConstantDelayModel(1.0))
        a, b, (first, second, third, fourth) = await overlay_pair(
            bus, ("first", "second", "third", "fourth")
        )
        try:
            b._handle_relay(second, "a")  # arms the timer
            await asyncio.sleep(_GAP_PULL_GRACE / 2)
            b._handle_relay(first, "a")  # the wave releases "second"...
            b._handle_relay(fourth, "a")  # ...while "third" goes missing
            assert b.delivered_payloads() == ["first", "second"]
            await asyncio.sleep(_GAP_PULL_GRACE / 2 + 0.005)
            # The first grace ended with "second" released: re-armed.
            assert (b.repair_stats.gap_pulls_armed, b.repair_stats.gap_pulls) == (2, 0)
            await asyncio.sleep(_GAP_PULL_GRACE + 0.02)
            assert b.delivered_payloads() == ["first", "second", "third", "fourth"]
            return b.repair_stats, a.repair_stats
        finally:
            await a.close()
            await b.close()

    pulled, served = run_virtual(scenario())
    assert (pulled.gap_pulls_armed, pulled.gap_pulls) == (2, 1)
    assert (served.repairs_sent, pulled.repair_duplicates) == (1, 0)


def test_a_pull_at_an_unknown_pusher_falls_back_to_the_rounds_partner():
    """Bugfix: a resync aimed at an address that is neither a peer nor a
    view member used to be dropped without a trace — and left a
    rate-limit mark nothing would ever remove."""

    async def scenario():
        bus = LocalAsyncBus(ConstantDelayModel(1.0))
        a, b, (first, second) = await overlay_pair(bus)
        try:
            b._handle_relay(second, "stranger")
            b.overlay.discard("stranger")  # the sample merge may have kept it
            await asyncio.sleep(_GAP_PULL_GRACE + 0.02)
            assert b.delivered_payloads() == ["first", "second"]
            assert "stranger" not in b._resync_last
            assert "stranger" not in b.session.all_stats() or (
                b.transport_stats("stranger").digests_sent == 0
            )
            return b.repair_stats, b.transport_stats("a")
        finally:
            await a.close()
            await b.close()

    stats, link = run_virtual(scenario())
    assert (stats.gap_pulls, stats.resync_fallbacks) == (1, 1)
    assert link.digests_sent == 1


async def parked_behind_a_lost_reference(bus):
    """``b``, an overlay node with four digest targets that answer
    nothing, holds a relay push of ``a``'s third broadcast: a delta whose
    reference, the second, no node will ever send it."""
    b = await create_node(
        "b",
        NodeConfig(r=16, keys=(4, 5, 6), dissemination="overlay", anti_entropy_interval=0),
        transport=bus.attach("b"),
    )
    for peer in ("a", "c", "d", "e"):
        b.add_peer(peer)
    origin = create_endpoint("a", NodeConfig(r=16, keys=(1, 2, 3)))
    second, third = [origin.broadcast(payload) for payload in ("1", "2", "3")][1:]
    delta = MessageCodec().encode_delta(third, second.seq, second.timestamp.vector)
    b._handle_relay(
        RelayFrame(origin="a", seq=3, hops=0, sent_at=0.0, sample=(), payload=delta), "a"
    )
    assert b.state_sizes()["parked_deltas"] == 1
    assert b.repair_stats.gap_pulls_armed == 1
    return b


def test_a_gap_nobody_can_close_costs_one_pass_of_pulls():
    """The pull asks the pusher, then the next partner a grace later
    while the message waits — once round the digest targets, not for as
    long as the gap stays open.  The periodic round owns it after that."""

    async def scenario():
        b = await parked_behind_a_lost_reference(LocalAsyncBus(ConstantDelayModel(1.0)))
        try:
            await asyncio.sleep(50 * _GAP_PULL_GRACE)
            assert b._gap_pull_timer is None
            assert b.state_sizes()["parked_deltas"] == 1
            return b.repair_stats
        finally:
            await b.close()

    stats = run_virtual(scenario())
    assert stats.gap_pulls_armed == 1
    assert 1 <= stats.gap_pulls <= 4, stats


def test_evicting_the_sender_stops_its_gap_pull():
    """The eviction purges the parked delta the pull was waiting on; the
    next grace finds nothing to pull for and sends nothing."""

    async def scenario():
        b = await parked_behind_a_lost_reference(LocalAsyncBus(ConstantDelayModel(1.0)))
        try:
            await asyncio.sleep(_GAP_PULL_GRACE + 0.005)
            pulled = b.repair_stats.gap_pulls
            assert pulled == 1 and b._gap_pull_timer is not None
            b.evict_peer("a", "a")
            digests = b.transport_stats().digests_sent
            await asyncio.sleep(50 * _GAP_PULL_GRACE)
            assert b._gap_pull_timer is None
            assert b.transport_stats().digests_sent == digests
            return pulled, b.repair_stats
        finally:
            await b.close()

    pulled, stats = run_virtual(scenario())
    assert stats.gap_pulls == pulled == 1, stats


def test_repair_and_gap_pull_series_follow_the_nodes_own_counters():
    """``repro_antientropy_*`` / ``repro_gap_pulls_*`` mirror
    ``node.repair_stats``; ``repro_overlay_push_coverage`` is relay
    first intakes over remote deliveries (overlay mode only)."""

    async def scenario():
        bus = LocalAsyncBus(ConstantDelayModel(1.0))
        a, b, (first, second) = await overlay_pair(bus)
        mesh = await create_node(
            "m", NodeConfig(r=16, k=2), transport=bus.attach("m")
        )
        try:
            b._handle_relay(second, "a")  # pended: armed, then pulled
            await asyncio.sleep(_GAP_PULL_GRACE + 0.02)
            assert b.delivered_payloads() == ["first", "second"]
            # A second copy of the repair over the link buys nothing.
            a.session.push("b", a.store.get("a", 1))
            await asyncio.sleep(0.02)
            return (
                a.metrics.snapshot(), b.metrics.snapshot(),
                mesh.metrics.snapshot(), b.repair_stats,
            )
        finally:
            await asyncio.gather(a.close(), b.close(), mesh.close())

    served, pulled, mesh, ledger = run_virtual(scenario())
    assert served["counters"]["repro_antientropy_repairs_sent_total"] == 1
    counters = pulled["counters"]
    assert counters["repro_gap_pulls_armed_total"] == ledger.gap_pulls_armed == 1
    assert counters["repro_gap_pulls_total"] == ledger.gap_pulls == 1
    assert counters["repro_gap_pulls_unneeded_total"] == 0
    assert counters["repro_antientropy_repair_duplicates_total"] == 1
    assert counters["repro_antientropy_resync_fallbacks_total"] == 0
    # One of two remote deliveries came by relay push, one by repair.
    assert pulled["gauges"]["repro_overlay_push_coverage"] == 0.5
    assert "repro_overlay_push_coverage" not in mesh["gauges"]
    assert mesh["counters"]["repro_antientropy_repairs_sent_total"] == 0


# ----------------------------------------------------------------------
# the shuffled rotation and its bound
# ----------------------------------------------------------------------


def test_any_window_of_len_targets_rounds_visits_every_target_once():
    async def scenario():
        bus = LocalAsyncBus(ConstantDelayModel(1.0))
        node = await create_node(
            "n", NodeConfig(r=16, k=2, anti_entropy_interval=0), transport=bus.attach("n")
        )
        try:
            assert node._next_partner() is None  # nobody to digest yet
            peers = [f"p{index}" for index in range(5)]
            for peer in peers:
                node.add_peer(peer)
            visits = [node._next_partner() for _ in range(4 * len(peers))]
            for start in range(len(visits) - len(peers) + 1):
                assert sorted(visits[start:start + len(peers)]) == peers, visits
            assert visits[:len(peers)] != peers  # shuffled, not add_peer order
            # A departed target leaves the rotation, a new one enters it,
            # and the window property holds for the new set.
            node.remove_peer("p2")
            node.add_peer("p9")
            peers = sorted(set(peers) - {"p2"} | {"p9"})
            visits = [node._next_partner() for _ in range(3 * len(peers))]
            for start in range(len(visits) - len(peers) + 1):
                assert sorted(visits[start:start + len(peers)]) == peers, visits
            assert node.state_sizes()["partner_rotation"] == len(peers)
        finally:
            await node.close()

    run_virtual(scenario())


@pytest.mark.parametrize("salt", ["", "x", "y", "z", "w", "v"])
def test_a_message_one_peer_holds_heals_within_len_peers_rounds(salt, monkeypatch):
    """``a`` broadcasts into a partition that outlasts ``_MAX_RETRIES``:
    all three frames are dropped for good and only ``a`` holds the
    message.  Each of the others digests ``a`` — the one node that can
    answer — within ``len(peers)`` rounds of the partition lifting: the
    bound the rotation gives and an independent draw per round would not
    (it misses ``a`` three times running with probability 8/27).
    ``salt`` varies the node names, which seed each node's shuffle."""
    interval, outage = 0.5, 0.4
    monkeypatch.setattr(session_module, "_MAX_RETRIES", 2)
    names = [f"{salt}{letter}" for letter in "abcd"]
    holder, others = names[0], names[1:]
    config = NodeConfig(
        r=32, k=2, anti_entropy_interval=interval,
        retransmit=RetransmitPolicy(initial_timeout=0.02),
    )

    async def scenario():
        loop = asyncio.get_running_loop()
        bus = LocalAsyncBus(ConstantDelayModel(5.0))
        healed = {}
        nodes = {}
        for name in names:
            transport = bus.attach(name)
            if name == holder:
                transport = FaultyTransport(
                    transport, windows=(FaultWindow(0.0, outage, drop=True),)
                )
                transport.arm()

            def on_delivery(record, name=name):
                healed[name] = loop.time()

            nodes[name] = await create_node(
                name, config, transport=transport, on_delivery=on_delivery
            )
        for name, node in nodes.items():
            for peer in names:
                if peer != name:
                    node.add_peer(peer)
        try:
            await nodes[holder].broadcast("held by one")
            await asyncio.sleep(outage)
            assert nodes[holder].transport_stats().drops == len(others)
            assert list(healed) == [holder]
            lifted = loop.time()
            asked = {
                name: nodes[name].transport_stats(holder).digests_sent
                for name in others
            }
            # A round lasts under 1.5 x interval.
            await asyncio.sleep(len(others) * 1.5 * interval)
            asked = {
                name: nodes[name].transport_stats(holder).digests_sent - before
                for name, before in asked.items()
            }
            return asked, {name: healed.get(name, float("inf")) - lifted for name in others}
        finally:
            await asyncio.gather(*(node.close() for node in nodes.values()))

    asked, waited = run_virtual(scenario())
    assert all(count >= 1 for count in asked.values()), asked
    # The holder's answer adds one round trip to the last of the rounds.
    assert max(waited.values()) <= len(others) * 1.5 * interval + 0.05, waited
