"""Tests for the causal broadcast endpoint (protocol machine)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocks import ProbabilisticCausalClock, VectorCausalClock
from repro.core.detector import BasicAlertDetector
from repro.core.errors import ConfigurationError
from repro.core.protocol import CausalBroadcastEndpoint, DeliveryRecord, Message
from repro.util.rng import RandomSource


def endpoint(name, keys, r=6, **kwargs):
    return CausalBroadcastEndpoint(
        process_id=name, clock=ProbabilisticCausalClock(r, keys), **kwargs
    )


class TestBroadcast:
    def test_broadcast_returns_timestamped_message(self):
        ep = endpoint("a", (0, 1))
        message = ep.broadcast("hello")
        assert message.sender == "a"
        assert message.seq == 1
        assert message.payload == "hello"
        assert message.timestamp.sender_keys == (0, 1)
        assert message.message_id == ("a", 1)

    def test_sequence_numbers_increase(self):
        ep = endpoint("a", (0,))
        ids = [ep.broadcast().seq for _ in range(5)]
        assert ids == [1, 2, 3, 4, 5]

    def test_local_self_delivery_callback(self):
        records = []
        ep = CausalBroadcastEndpoint(
            process_id="a",
            clock=ProbabilisticCausalClock(4, (0,)),
            deliver_callback=records.append,
        )
        ep.broadcast("x")
        assert len(records) == 1
        assert records[0].local and records[0].message.payload == "x"

    def test_sender_never_redelivers_own_message(self):
        ep = endpoint("a", (0, 1))
        message = ep.broadcast()
        assert ep.on_receive(message) == []
        assert ep.stats.duplicates == 1
        assert ep.clock.snapshot() == (1, 1, 0, 0, 0, 0)  # no double increment


class TestReceive:
    def test_in_order_delivery(self):
        a = endpoint("a", (0, 1))
        b = endpoint("b", (2, 3))
        m1, m2 = a.broadcast("1"), a.broadcast("2")
        assert [r.message.payload for r in b.on_receive(m1)] == ["1"]
        assert [r.message.payload for r in b.on_receive(m2)] == ["2"]

    def test_reordered_fifo_queued_then_cascaded(self):
        a = endpoint("a", (0, 1))
        b = endpoint("b", (2, 3))
        m1, m2, m3 = a.broadcast("1"), a.broadcast("2"), a.broadcast("3")
        assert b.on_receive(m3) == []
        assert b.on_receive(m2) == []
        assert b.pending_count == 2
        delivered = b.on_receive(m1)
        assert [r.message.payload for r in delivered] == ["1", "2", "3"]
        assert b.pending_count == 0

    def test_duplicate_of_pending_message_dropped(self):
        a = endpoint("a", (0, 1))
        b = endpoint("b", (2, 3))
        _, m2 = a.broadcast(), a.broadcast()
        b.on_receive(m2)
        assert b.on_receive(m2) == []
        assert b.stats.duplicates == 1
        assert b.pending_count == 1

    def test_duplicate_of_delivered_message_dropped(self):
        a = endpoint("a", (0, 1))
        b = endpoint("b", (2, 3))
        m1 = a.broadcast()
        b.on_receive(m1)
        assert b.on_receive(m1) == []
        assert b.stats.duplicates == 1
        assert b.clock.snapshot()[0] == 1

    def test_cross_sender_causality(self):
        a = endpoint("a", (0, 1))
        b = endpoint("b", (2, 3))
        c = endpoint("c", (4, 5))
        m1 = a.broadcast("from-a")
        b.on_receive(m1)
        m2 = b.broadcast("from-b-after-a")
        assert c.on_receive(m2) == []  # waits for m1
        delivered = c.on_receive(m1)
        assert [r.message.payload for r in delivered] == ["from-a", "from-b-after-a"]

    def test_delivery_callback_invoked_per_delivery(self):
        deliveries = []
        a = endpoint("a", (0, 1))
        b = CausalBroadcastEndpoint(
            process_id="b",
            clock=ProbabilisticCausalClock(6, (2, 3)),
            deliver_callback=deliveries.append,
        )
        m1, m2 = a.broadcast(), a.broadcast()
        b.on_receive(m2)
        b.on_receive(m1)
        assert [d.message.seq for d in deliveries] == [1, 2]
        assert all(not d.local for d in deliveries)


class TestStats:
    def test_counters(self):
        a = endpoint("a", (0, 1))
        b = endpoint("b", (2, 3))
        m1, m2 = a.broadcast(), a.broadcast()
        b.on_receive(m2)
        b.on_receive(m1)
        b.on_receive(m1)
        assert a.stats.sent == 2
        assert b.stats.received == 3
        assert b.stats.delivered == 2
        assert b.stats.duplicates == 1
        assert b.stats.pending_peak == 1

    def test_alert_counter_with_detector(self):
        # Replay the Figure-2 violation (R = 4; f(p_1) ∪ f(p_2) covers
        # f(p_i)) and check the endpoint counts the alert.
        keys = {"p_i": (0, 1), "p_j": (1, 2), "p_k": (2, 3),
                "p_1": (0, 3), "p_2": (1, 3)}
        endpoints = {
            name: endpoint(name, f, r=4, detector=BasicAlertDetector())
            for name, f in keys.items()
        }
        m = endpoints["p_i"].broadcast("m")
        endpoints["p_j"].on_receive(m)
        m_prime = endpoints["p_j"].broadcast("m'")
        m_1 = endpoints["p_1"].broadcast()
        m_2 = endpoints["p_2"].broadcast()
        p_k = endpoints["p_k"]
        for msg in (m_2, m_1, m_prime, m):
            p_k.on_receive(msg)
        assert p_k.stats.alerts == 1


class TestMaxPending:
    def test_bound_enforced(self):
        a = endpoint("a", (0, 1))
        b = endpoint("b", (2, 3), max_pending=2)
        messages = [a.broadcast() for _ in range(4)]
        b.on_receive(messages[3])
        b.on_receive(messages[2])
        with pytest.raises(ConfigurationError):
            b.on_receive(messages[1])

    def test_invalid_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            endpoint("a", (0,), max_pending=0)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n_messages=st.integers(1, 25))
def test_any_arrival_order_delivers_everything_fifo(seed, n_messages):
    """Property: whatever the arrival permutation of one sender's stream,
    the receiver delivers all messages, in sequence order (paper's
    liveness, single-sender case)."""
    rng = RandomSource(seed=seed)
    a = endpoint("a", (0, 1))
    b = endpoint("b", (2, 3))
    messages = [a.broadcast(i) for i in range(n_messages)]
    shuffled = list(messages)
    rng.shuffle(shuffled)
    delivered = []
    for message in shuffled:
        delivered.extend(r.message.seq for r in b.on_receive(message))
    assert delivered == sorted(delivered)
    assert len(delivered) == n_messages
    assert b.pending_count == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_vector_clock_endpoints_never_violate(seed):
    """With exact vector clocks, any interleaving of a causal chain is
    delivered in causal order — the zero-error baseline."""
    rng = RandomSource(seed=seed)
    n = 4
    endpoints = [
        CausalBroadcastEndpoint(process_id=i, clock=VectorCausalClock(n, i))
        for i in range(n)
    ]
    # Build a causal chain: each process broadcasts after delivering the
    # previous broadcast.
    chain = []
    for i in range(n):
        message = endpoints[i].broadcast(i)
        chain.append(message)
        for j in range(n):
            if j > i:  # later senders must have seen it to extend the chain
                endpoints[j].on_receive(message)
    # A fresh observer receives the chain in random order.
    observer = CausalBroadcastEndpoint(process_id="obs", clock=VectorCausalClock(n, n - 1))
    shuffled = list(chain)
    rng.shuffle(shuffled)
    order = []
    for message in shuffled:
        order.extend(r.message.payload for r in observer.on_receive(message))
    assert order == sorted(order)
    assert len(order) == n
