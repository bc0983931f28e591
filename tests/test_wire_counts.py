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
10-message burst, then 40 broadcasts per sender at 2/s.  The burst
builds the per-origin eager trees (its duplicates prune them), so each
paced delivery costs about one RELAY copy; fanout-3 infect-and-die
gossip sent 3.1.  When every copy carried the full R = 128 vector and a
view sample, the paced phase read 809.2 B, 3.256 datagrams, 920
digests, 420 repairs and 0 reference misses.

Every count is exact for its seed (``tests/test_virtual_time.py`` holds
that); a failure message carries the counts.  Where a docstring gives
"v3 → v4 entries", the counts moved with the delta's entry block: v3
spent a varint pair per changed entry, v4 sends the smaller of a list of
one varint per entry and a changed-entry bitmap (``core/codec.py``).
"v4 → v5 deltas" is the delta body's header losing its scheme, epoch
and reference gap bytes and a byte of its sender length: 4 B off every
delta body sent.
"""

import contextlib

import numpy as np

from benchmarks.wire_bytes import Capture
from repro.api import NodeConfig
from repro.sim.group import Group
from repro.sim.network import ConstantDelayModel
from repro.sim.vtime import run_virtual

# mesh4_lossy's FaultyTransport settings.
LOSSY = dict(drop_rate=0.05, reorder_rate=0.10, reorder_delay=(0.002, 0.02))


def counts(group) -> dict:
    """``Group.counts()`` plus the relay copies, the encodings the
    message bodies crossed the links in, the session frames sent, the
    DATA frames that reached a receiver already holding them, and the
    full forms the stores built around a held delta (repairs served
    from them)."""
    wire = group.wire()
    return {
        **group.counts(), "relays": wire.relay_sent, "deltas": wire.delta_sent,
        "fulls": wire.full_sent, "ref_misses": wire.delta_ref_misses,
        "frames": wire.frames_sent, "duplicates": wire.duplicates,
        "rebuilds": sum(node.codec_counters.full_rebuilds for node in group.nodes),
    }


async def paced_phase(group, burst: int, count: int, rate: float, split: bool) -> dict:
    """A closed-loop burst, then ``count`` broadcasts per node at
    ``rate``; returns the counts of the paced phase and its broadcast →
    remote delivery latency (``latency_ms``: p50, p90, p99 and max) —
    with ``split``, also its bytes by component (``parts``, from
    ``benchmarks/wire_bytes.py``, whose parsing would otherwise weigh
    on ``benchmarks/calls_per_delivery.py``'s count)."""
    async with group:
        await group.burst(burst)
        await group.settle()
        before, mark = counts(group), len(group.latencies)
        with Capture() if split else contextlib.nullcontext() as capture:
            await group.paced(count, rate=rate)
            await group.settle()
            after = counts(group)
    paced = {name: after[name] - before[name] for name in after}
    if split:
        paced["parts"] = capture.parts
    latencies = 1000.0 * np.array(group.latencies[mark:])
    paced["latency_ms"] = tuple(
        round(float(value), 1) for value in np.percentile(latencies, [50, 90, 99, 100])
    )
    return paced


async def paced_mesh(seed: int, split: bool = False) -> dict:
    """4-node mesh, 1 ms links, no loss: a 100-broadcast burst per node,
    then 600 per node at 60/s."""
    group = await Group.start(4, NodeConfig(), seed, 0.0, ConstantDelayModel(1.0), judged=True)
    return await paced_phase(group, 100, 600, 60.0, split)


async def busy_mesh(seed: int, faults=None, split: bool = False) -> dict:
    """4-node mesh, 1 ms links: a 100-broadcast burst per node, then 600
    per node at 500/s, with ``faults`` on every node's sends."""
    group = await Group.start(
        4, NodeConfig(), seed, 0.0, ConstantDelayModel(1.0), judged=True, faults=faults
    )
    return await paced_phase(group, 100, 600, 500.0, split)


async def paced_overlay(seed: int, split: bool = False) -> dict:
    """16-node relay overlay, 0.2 ms links, no loss: a 10-broadcast
    burst per node, then 40 per node at 2/s.  Constant delays and no
    loss leave the bus nothing to draw, so every seed runs the same
    scenario; the nodes' own generators are seeded by their names."""
    group = await Group.start(
        16, NodeConfig(dissemination="overlay"), seed, 0.0, ConstantDelayModel(0.2), judged=True
    )
    return await paced_phase(group, 10, 40, 2.0, split)


def assert_one_delta_per_broadcast(paced: dict) -> None:
    """Every body crossed its link as a delta, and none bounced; and
    every byte of the phase was charged to one wire component."""
    assert (paced["fulls"], paced["ref_misses"], paced["violations"]) == (0, 0, 0), paced
    assert sum(paced["parts"].values()) == paced["bytes"], paced


def test_acks_ride_the_data_on_a_paced_mesh():
    """Parent → this tree: 540,889 → 525,143 B (75.1 → 72.9 B per
    delivery, 108 fulls → 0); datagrams, standalone acks and timers
    unchanged.  Rebuilds 7,200 → 34 since the store keeps each body as
    it arrived and builds the full form only for the 34 repairs it
    serves (it used to rebuild every delivered delta at intake).  v3 →
    v4 entries: 525,143 → 453,233 B (72.9 → 62.9 B per delivery), every
    other count unchanged.  v3 → v4 frames: 453,233 → 417,575 B (62.9 →
    58.0 B per delivery); datagrams 7,498 → 7,499, frames 7,514 → 7,515,
    standalone acks 204 → 205, timers 16,475 → 16,476.  v4 → v5 deltas:
    417,575 → 388,775 B (58.0 → 54.0 B per delivery, 4 B off each of the
    7,200 delta bodies), every other count unchanged.  Digest answers
    hold back what a link still owes the requester: 388,775 → 382,233 B
    (54.0 → 53.1 B per delivery), repairs and rebuilds 34 → 2, datagrams
    7,499 → 7,475, frames 7,515 → 7,483, timers 16,476 → 16,429,
    standalone acks and digests unchanged.  A broadcast queues its
    frames in the caller's turn, with no task per link, and a round's
    digest leaves at once, with the ack built alongside it: 382,233 →
    381,801 B, datagrams 7,475 → 7,449, frames 7,483 → 7,453, standalone
    acks 205 → 177 (frames leave a loop turn earlier, so 28 held acks
    that went alone now ride data), timers 16,429 → 16,401, repairs and
    rebuilds 2 → 0, digests unchanged."""
    paced = run_virtual(paced_mesh(seed=1, split=True))
    deliveries = paced["deliveries"]
    assert deliveries == 4 * 3 * 600
    assert paced["retransmits"] == 0, paced
    assert_one_delta_per_broadcast(paced)
    assert paced["datagrams"] <= 1.10 * deliveries, paced
    assert paced["standalone_acks"] <= 0.05 * deliveries, paced
    assert paced["timers"] <= 2.4 * deliveries, paced
    assert paced["bytes"] <= 64 * deliveries, paced
    assert paced["repairs_sent"] <= 0.001 * deliveries, paced
    # Exact for the seed: 53.0 B, 1.035 datagrams, 1.035 frames, 0.025
    # standalone acks and 2.28 timers per delivery, and no full-form
    # rebuild.
    assert (
        paced["bytes"], paced["datagrams"], paced["frames"], paced["standalone_acks"],
        paced["timers"], paced["rebuilds"],
    ) == (381801, 7449, 7453, 177, 16401, 0), paced


def test_a_busy_mesh_sends_one_body_per_broadcast():
    """``mesh4_saturate``.  Parent → this tree: 536,900 → 520,748 B
    (74.6 → 72.3 B per delivery, 109 fulls → 0); 7,202 datagrams, 0
    standalone acks and 12,496 timers on both.  Rebuilds 7,200 → 28,
    one per repair served from a held delta.  v3 → v4 entries: 520,748
    → 448,943 B (72.3 → 62.4 B per delivery), every other count
    unchanged.  v3 → v4 frames: 448,943 → 413,266 B (62.4 → 57.4 B per
    delivery), every other count unchanged.  v4 → v5 deltas: 413,266 →
    384,466 B (57.4 → 53.4 B per delivery, 4 B off each of the 7,200
    delta bodies), every other count unchanged.  Digest answers hold back
    what a link still owes the requester: 384,466 → 379,059 B (53.4 →
    52.6 B per delivery), repairs and rebuilds 28 → 1, datagrams 7,202 →
    7,200, frames 7,236 → 7,209, timers 12,496 → 12,492, standalone acks
    and digests unchanged.  A broadcast queues its frames in the
    caller's turn, with no task per link, and a round's digest leaves at
    once, with the ack built alongside it: 379,059 → 378,619 B, datagrams
    7,200 → 7,204, frames 7,209 → 7,208, timers 12,492 → 12,496, repairs
    and rebuilds 1 → 0, standalone acks and digests unchanged.  (The
    fan-out alone read 379,523 B and 3 repairs: more frames left between
    a digest's build and its flush, and their acks, read first, unmasked
    messages the digest lacked.)"""
    busy = run_virtual(busy_mesh(seed=1, split=True))
    assert busy["deliveries"] == 4 * 3 * 600
    assert busy["retransmits"] == 0, busy
    assert_one_delta_per_broadcast(busy)
    assert busy["bytes"] <= 64 * busy["deliveries"], busy
    assert busy["repairs_sent"] <= 0.001 * busy["deliveries"], busy
    assert (
        busy["bytes"], busy["datagrams"], busy["frames"], busy["standalone_acks"],
        busy["timers"], busy["digests"], busy["repairs_sent"], busy["rebuilds"],
    ) == (378619, 7204, 7208, 0, 12496, 8, 0, 0), busy


def test_a_lossy_mesh_parks_the_deltas_that_overtake_their_reference():
    """``mesh4_lossy``: 5 % of datagrams dropped and 10 % held back
    2–20 ms, so a retransmitted frame is overtaken by its sender's next
    ones.  Those deltas wait for it instead of missing.  Parent → this
    tree: 611,943 → 520,574 B (85.0 → 72.3 B per delivery, 108 fulls →
    0), datagrams 7,220 → 7,224, standalone acks 9 → 12, timers 13,564 →
    13,573, retransmits 926 → 941, repairs 66 → 47.  Rebuilds 7,200 →
    47, one per repair served from a held delta.  v3 → v4 entries:
    520,574 → 482,122 B (72.3 → 67.0 B per delivery), every other count
    unchanged.  v3 → v4 frames: 482,122 → 449,916 B (67.0 → 62.5 B per
    delivery); the shorter frames pack the 1,400-byte datagrams
    differently, so the seeded faults drop and delay other frames:
    datagrams 7,224 → 7,233, frames 9,106 → 9,137, timers 13,573 →
    13,604, retransmits 941 → 932, repairs and rebuilds 47 → 74 (73 of
    them duplicates, against 47 of 47), standalone acks and digests
    unchanged.  v4 → v5 deltas: 449,916 → 417,418 B (62.5 → 58.0 B per
    delivery), datagrams 7,233 → 7,235, timers 13,604 → 13,602, latency
    max 134.5 → 124.5 ms, every other count unchanged.  With the
    1,400-byte coalescing budget lifted on both trees every count but
    bytes is the same (7,212 datagrams, 940 retransmits, 544 duplicates)
    and bytes fall 443,957 → 411,397, 4 B for each of the 8,140 delta
    bodies sent and resent: the moves are frames packing differently.
    Digest answers hold back what a link still owes the requester:
    417,418 → 403,679 B (58.0 → 56.1 B per delivery), repairs and
    rebuilds 74 → 3, datagrams 7,235 → 7,214, frames 9,137 → 9,107,
    timers 13,602 → 13,598; the faults then fall on other frames:
    retransmits 932 → 958, duplicates 539 → 547, and latency p50 / p90 /
    p99 / max 5.5 / 33.5 / 64.1 / 124.5 → 5.7 / 38.5 / 92.5 / 176.5 ms
    (a repair that answered a digest ahead of a retransmission chain
    cut it short; over seeds 2–7 the p99 rises by 0.1 to 151 ms).

    Of the 932 retransmits, 539 reached a receiver that already held the
    frame (``duplicates``), pinned so that a change to the retransmit
    or NACK policy shows here; whether they answered frames only held
    back (2–20 ms) or acks lost is not traced.  Of the 958 retransmits
    after the change above, 547 did.

    A broadcast queues its frames in the caller's turn, with no task
    per link, and a round's digest leaves at once, with the ack built
    alongside it: 403,679 → 400,954 B (56.1 → 55.7 B per delivery),
    datagrams 7,214 → 7,163, frames 9,107 → 9,065, standalone acks 12 →
    11, timers 13,598 → 13,473, retransmits 958 → 949, duplicates 547 →
    541, repairs and rebuilds 3 → 0, latency p50 / p90 / p99 / max 5.7 /
    38.5 / 92.5 / 176.5 → 5.5 / 33.5 / 71.5 / 112.5 ms; digests
    unchanged."""
    lossy = run_virtual(busy_mesh(seed=1, faults=LOSSY, split=True))
    deliveries = lossy["deliveries"]
    assert deliveries == 4 * 3 * 600
    assert_one_delta_per_broadcast(lossy)
    assert lossy["datagrams"] <= 1.02 * 7220, lossy  # the parent's count
    assert lossy["bytes"] <= 64 * deliveries, lossy
    assert lossy["repairs_sent"] <= 0.001 * deliveries, lossy
    assert (
        lossy["bytes"], lossy["datagrams"], lossy["frames"], lossy["standalone_acks"],
        lossy["timers"], lossy["retransmits"], lossy["duplicates"], lossy["digests"],
        lossy["repairs_sent"], lossy["rebuilds"],
    ) == (400954, 7163, 9065, 11, 13473, 949, 541, 9, 0, 0), lossy


def test_relay_envelopes_carry_the_origins_delta_on_a_paced_overlay():
    """Fanout-3 infect-and-die gossip → per-origin eager trees:
    4,523,459 → 1,513,698 B (471.2 → 157.7 B per delivery), datagrams
    31,286 → 10,683, frames 31,323 → 10,712, digests 904 → 646, repairs
    339 → 0, relay copies 29,772 → 9,833 (3.10 → 1.02 per delivery),
    rebuilds 336 → 0.  Latency p50 / p90 / p99 / max 2.4 / 4.8 / 77.2 /
    267.0 → 2.4 / 3.6 / 3.6 / 3.6 ms: the tail was the deliveries the
    gossip wave missed, which waited for a gap pull.  v3 → v4 entries:
    1,513,698 → 976,775 B (157.7 → 101.7 B per delivery: a broadcast
    here follows about 41 changed entries of R = 128, which the bitmap
    names in 16 bytes plus one bit each), and the shorter bodies shift
    the schedule — datagrams 10,683 → 10,696, frames 10,712 → 10,721,
    digests 646 → 637, relay copies 9,833 → 9,842, latency max 3.6 →
    4.8 ms; still no repair and no rebuild.  v3 → v4 frames: 976,775 →
    797,629 B (101.7 → 83.1 B per delivery: the envelope drops its copy
    of the body's origin and seq, ``sent_at`` and its lengths, a batched
    frame its magic and version, and the view sample's addresses their
    u16 lengths); datagrams 10,696 → 10,561, frames 10,721 → 10,592,
    digests 637 → 652, relay copies 9,842 → 9,770, latency unchanged.
    Every count but bytes is the parent's when the 1,400-byte coalescing
    budget is lifted on both trees: the moves are frames packing into
    datagrams differently, which reorders arrivals and so prunes.  v4 →
    v5 deltas: 797,629 → 769,020 B (83.1 → 80.1 B per delivery),
    datagrams 10,561 → 10,673, frames 10,592 → 10,704, digests 652 →
    644, relay copies 9,770 → 9,830, latency max 4.8 → 3.6 ms; with the
    budget lifted on both trees every count but bytes is the same
    (10,512 datagrams, 9,749 relay copies) and bytes fall 795,260 →
    756,263, 4 B for each relay copy and one batch element whose length
    varint lost a byte."""
    paced = run_virtual(paced_overlay(seed=1, split=True))
    deliveries = paced["deliveries"]
    assert deliveries == 16 * 15 * 40
    assert_one_delta_per_broadcast(paced)
    assert paced["deltas"] == paced["relays"], paced
    assert paced["bytes"] <= 86 * deliveries, paced
    assert paced["datagrams"] <= 3.5 * deliveries, paced
    assert paced["relays"] <= 1.3 * deliveries, paced
    _, p90, p99, _ = paced["latency_ms"]
    assert p90 <= 5.0 and p99 <= 77.0, paced
    # Exact for the seed: 80.1 B, 1.112 datagrams, 1.115 frames and
    # 0.067 digests per delivery, 1.02 relay copies, no repair.
    assert (
        paced["bytes"], paced["datagrams"], paced["frames"], paced["digests"],
        paced["repairs_sent"], paced["relays"], paced["rebuilds"], paced["latency_ms"],
    ) == (769020, 10673, 10704, 644, 0, 9830, 0, (2.4, 3.6, 3.6, 3.6)), paced
