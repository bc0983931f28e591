"""Differential test: PendingBuffer == the reference full-rescan drain.

The entry-indexed :class:`~repro.core.pending.PendingBuffer` is a pure
performance rework of Algorithm 2's delivery loop — it must be
*observationally identical* to the full-rescan
:class:`~repro.core.pending.ReferenceBuffer` oracle.  These tests run
both over the same randomized traces (multiple causally-entangled
senders, drops, reorders, duplicates) and assert byte-identical delivery
order, alerts, stats, pending sets, and clock state.

What the index buys is a work count, pinned exactly on one deep-queue
trace: pending messages examined per delivery.
"""

import random

import pytest

from repro.core.clocks import ProbabilisticCausalClock
from repro.core.detector import BasicAlertDetector, RefinedAlertDetector
from repro.core.keyspace import HashKeyAssigner
from repro.core.pending import PendingBuffer, ReferenceBuffer
from repro.core.protocol import CausalBroadcastEndpoint


def make_trace(rng, senders=4, rounds=12, r=16, k=2, gossip=0.7):
    """A causally-entangled broadcast history.

    Senders broadcast in a random interleaving; after each broadcast the
    message is (reliably, in causal order) applied at a random subset of
    the other senders, so later timestamps chain across processes.
    Returns the global broadcast sequence plus the key assignment.
    """
    assigner = HashKeyAssigner(r=r, k=k)
    names = [f"s{i}" for i in range(senders)]
    eps = {
        name: CausalBroadcastEndpoint(
            name, ProbabilisticCausalClock(r, assigner.assign(name).keys)
        )
        for name in names
    }
    trace = []
    for _ in range(rounds):
        for name in rng.sample(names, len(names)):
            message = eps[name].broadcast(f"{name}:{eps[name].clock.send_count + 1}")
            trace.append(message)
            for other in names:
                if other != name and rng.random() < gossip:
                    eps[other].on_receive(message)
    return trace, assigner


def arrival_schedule(rng, trace, loss=0.15, dup=0.1, window=6):
    """Receiver-side arrival sequence: drops, duplicates, local reorder."""
    arrivals = []
    for index, message in enumerate(trace):
        if rng.random() < loss:
            continue
        arrivals.append((index + rng.uniform(0, window), rng.random(), message))
        if rng.random() < dup:
            arrivals.append((index + rng.uniform(0, window), rng.random(), message))
    arrivals.sort(key=lambda t: (t[0], t[1]))
    return [message for _, _, message in arrivals]


def _rx_keys(assigner):
    if "rx" in assigner.assignments:
        return assigner.lookup("rx").keys
    return assigner.assign("rx").keys


def make_receiver(engine, assigner, r=16, detector_cls=BasicAlertDetector):
    """``"indexed"`` is the endpoint as shipped; ``"naive"`` hands it the
    reference buffer."""
    clock = ProbabilisticCausalClock(r, _rx_keys(assigner))
    return CausalBroadcastEndpoint(
        "rx",
        clock,
        detector=detector_cls(),
        buffer=ReferenceBuffer(clock) if engine == "naive" else None,
    )


def observe(endpoint, arrivals):
    delivered = []
    for now, message in enumerate(arrivals):
        for record in endpoint.on_receive(message, now=float(now)):
            delivered.append(
                (record.message.message_id, record.message.payload, record.alert)
            )
    return delivered


def observe_with_sends(endpoint, arrivals, send_before):
    """Like :func:`observe`, but the receiver broadcasts before the
    arrivals whose indices appear in ``send_before`` — interleaving the
    Algorithm 1 local increments that historically escaped the indexed
    buffer's wakeup index."""
    delivered = []
    for now, message in enumerate(arrivals):
        if now in send_before:
            endpoint.broadcast(f"local:{now}", now=float(now))
        for record in endpoint.on_receive(message, now=float(now)):
            delivered.append(
                (record.message.message_id, record.message.payload, record.alert)
            )
    return delivered


def assert_equivalent_with_sends(candidate, naive, arrivals, send_before):
    deliveries_candidate = observe_with_sends(candidate, arrivals, send_before)
    deliveries_naive = observe_with_sends(naive, arrivals, send_before)
    assert deliveries_candidate == deliveries_naive
    assert candidate.clock.snapshot() == naive.clock.snapshot()
    assert candidate.stats == naive.stats
    assert [m.message_id for m in candidate.pending_messages()] == [
        m.message_id for m in naive.pending_messages()
    ]
    return deliveries_candidate


def assert_equivalent(indexed, naive, arrivals):
    deliveries_indexed = observe(indexed, arrivals)
    deliveries_naive = observe(naive, arrivals)
    assert deliveries_indexed == deliveries_naive
    assert indexed.clock.snapshot() == naive.clock.snapshot()
    assert indexed.stats == naive.stats
    assert [m.message_id for m in indexed.pending_messages()] == [
        m.message_id for m in naive.pending_messages()
    ]
    assert indexed.seen_frontiers() == naive.seen_frontiers()
    return deliveries_indexed


class TestDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_randomized_traces_match(self, seed):
        rng = random.Random(1000 + seed)
        trace, assigner = make_trace(rng)
        arrivals = arrival_schedule(rng, trace)
        indexed = make_receiver("indexed", assigner)
        naive = make_receiver("naive", assigner)
        deliveries = assert_equivalent(indexed, naive, arrivals)
        assert deliveries  # the trace actually exercised delivery

    @pytest.mark.parametrize("seed", range(6))
    def test_heavy_reorder_and_loss(self, seed):
        rng = random.Random(2000 + seed)
        trace, assigner = make_trace(rng, senders=6, rounds=10, gossip=0.9)
        arrivals = arrival_schedule(rng, trace, loss=0.3, dup=0.2, window=25)
        indexed = make_receiver("indexed", assigner)
        naive = make_receiver("naive", assigner)
        assert_equivalent(indexed, naive, arrivals)

    @pytest.mark.parametrize("seed", range(6))
    def test_refined_detector_alerts_match(self, seed):
        rng = random.Random(3000 + seed)
        trace, assigner = make_trace(rng, senders=5, rounds=8, k=1, gossip=0.5)
        arrivals = arrival_schedule(rng, trace, loss=0.25, window=15)
        indexed = make_receiver("indexed", assigner, detector_cls=RefinedAlertDetector)
        naive = make_receiver("naive", assigner, detector_cls=RefinedAlertDetector)
        assert_equivalent(indexed, naive, arrivals)

    def test_in_order_trace_matches(self):
        rng = random.Random(42)
        trace, assigner = make_trace(rng, senders=3, rounds=5)
        indexed = make_receiver("indexed", assigner)
        naive = make_receiver("naive", assigner)
        deliveries = assert_equivalent(indexed, naive, list(trace))
        assert len(deliveries) == len(trace)
        assert indexed.pending_count == 0

    @pytest.mark.parametrize("engine", ["indexed", "naive"])
    def test_local_send_unblocks_pending(self, engine):
        """Regression for the 340-vs-342 ``check_competitors`` hair: a
        *local* broadcast (Algorithm 1) increments the receiver's own
        keys, which can satisfy a pending message's last unsatisfied
        entries without any delivery touching them.  The next drain must
        deliver that message exactly where the naive pass-1 rescan would.
        """
        r = 8
        s0 = CausalBroadcastEndpoint("s0", ProbabilisticCausalClock(r, (0, 1)))
        s1 = CausalBroadcastEndpoint("s1", ProbabilisticCausalClock(r, (2, 3)))
        s0.broadcast("m1")  # lost: m2 stays pending at the receiver
        m2 = s0.broadcast("m2")
        d1 = s1.broadcast("d1")
        clock = ProbabilisticCausalClock(r, (0, 1))
        rx = CausalBroadcastEndpoint(
            "rx",
            clock,
            buffer=ReferenceBuffer(clock) if engine == "naive" else None,
        )
        assert rx.on_receive(m2, now=0.0) == []  # deficit on entries {0, 1}
        # The receiver's own keys coincide with the deficit entries: its
        # send completes m2's delivery condition out of band.
        rx.broadcast("local", now=0.5)
        ids = [rec.message.message_id for rec in rx.on_receive(d1, now=1.0)]
        assert ids == [d1.message_id, m2.message_id]
        assert rx.pending_count == 0

    @pytest.mark.parametrize("seed", range(8))
    def test_interleaved_local_sends_match(self, seed):
        rng = random.Random(4000 + seed)
        trace, assigner = make_trace(rng, senders=5, rounds=10, gossip=0.8)
        arrivals = arrival_schedule(rng, trace, loss=0.25, dup=0.1, window=20)
        send_before = {i for i in range(len(arrivals)) if rng.random() < 0.2}
        indexed = make_receiver("indexed", assigner)
        naive = make_receiver("naive", assigner)
        assert_equivalent_with_sends(indexed, naive, arrivals, send_before)

    def test_wave_unblock_chain_matches(self):
        """A deep dependency chain delivered in reverse arrival order."""
        assigner = HashKeyAssigner(r=12, k=2)
        sender = CausalBroadcastEndpoint(
            "s0", ProbabilisticCausalClock(12, assigner.assign("s0").keys)
        )
        chain = [sender.broadcast(i) for i in range(20)]
        arrivals = [chain[0]] + list(reversed(chain[1:]))
        indexed = make_receiver("indexed", assigner, r=12)
        naive = make_receiver("naive", assigner, r=12)
        deliveries = assert_equivalent(indexed, naive, arrivals)
        assert [payload for _, payload, _ in deliveries] == list(range(20))
        assert indexed.pending_count == 0


def test_the_index_examines_two_pending_messages_per_delivery_on_a_deep_queue():
    """64 senders, R = 100, K = 2, 48 rounds, and a quarter of arrivals
    held back by up to a quarter of the trace: the retransmission regime
    of a 25 %-loss link, which builds a queue up to 187 deep.  The full
    rescan re-checks the whole queue on every pass; the entry index
    examines 1.92 pending messages per delivery, 1.53 of them still
    blocked (it registers a message under a superset of its unsatisfied
    entries).  Exact for the seed."""
    rng = random.Random(11)
    trace, assigner = make_trace(rng, senders=64, rounds=48, r=100, k=2, gossip=0.6)
    keyed = []
    for position, message in enumerate(trace):
        if rng.random() < 0.25:
            position += rng.uniform(1, len(trace) // 4)
        keyed.append((position, rng.random(), message))
    keyed.sort(key=lambda entry: entry[:2])
    buffer = PendingBuffer(100)
    receiver = CausalBroadcastEndpoint(
        "rx", ProbabilisticCausalClock(100, _rx_keys(assigner)), buffer=buffer
    )
    for now, (_, _, message) in enumerate(keyed):
        receiver.on_receive(message, now=float(now))
    assert (receiver.stats.delivered, receiver.pending_count) == (3072, 0)
    assert (buffer.wakeups, buffer.spurious_wakeups) == (5890, 4686)
