"""Tests for the reliable session layer (acks, retransmit, backpressure)."""

import asyncio
import dataclasses

import pytest

from repro.core.errors import ConfigurationError
from repro.net import LocalAsyncBus, ReliableSession, RetransmitPolicy
from repro.net.peer import Transport
from repro.sim.network import ConstantDelayModel
from repro.sim.vtime import run_virtual
from repro.util.rng import RandomSource


def fast_policy(**overrides):
    defaults = dict(
        initial_timeout=0.02,
        max_timeout=0.2,
        max_retries=20,
        tick_interval=0.005,
        nack_interval=0.01,
    )
    defaults.update(overrides)
    return RetransmitPolicy(**defaults)


def make_pair(bus, policy=None):
    """Two sessions on one bus; returns (sessions, inboxes) keyed a/b."""
    sessions, inboxes = {}, {}
    for name in ("a", "b"):
        inbox = []
        sessions[name] = ReliableSession(
            bus.attach(name),
            on_message=lambda data, addr, inbox=inbox: inbox.append((data, addr)),
            policy=policy or fast_policy(),
        )
        inboxes[name] = inbox
    return sessions, inboxes


async def wait_for(predicate, timeout=5.0, interval=0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return
        await asyncio.sleep(interval)
    raise AssertionError("condition not reached in time")


class BlackholeTransport(Transport):
    """Swallows every datagram; nothing is ever received."""

    def __init__(self):
        self.sent = 0

    async def send(self, destination, data):
        self.sent += 1

    def set_receiver(self, callback):
        pass

    async def close(self):
        pass


class TestDelivery:
    def test_payload_delivered_with_sender_address(self):
        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus)
            for session in sessions.values():
                session.start()
            await sessions["a"].send("b", b"ping")
            await wait_for(lambda: inboxes["b"])
            assert inboxes["b"] == [(b"ping", "a")]
            for session in sessions.values():
                await session.close()

        asyncio.run(scenario())

    def test_ack_clears_send_buffer_and_sets_rtt(self):
        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, _ = make_pair(bus)
            for session in sessions.values():
                session.start()
            await sessions["a"].send("b", b"one")
            await sessions["a"].send("b", b"two")
            await wait_for(lambda: sessions["a"].unacked_count("b") == 0)
            stats = sessions["a"].stats_for("b")
            assert stats.acks_received >= 1
            assert stats.retransmits == 0
            assert stats.rtt is not None and stats.rtt > 0
            for session in sessions.values():
                await session.close()

        asyncio.run(scenario())

    def test_duplicate_datagrams_delivered_once(self):
        async def scenario():
            bus = LocalAsyncBus(
                delay_model=ConstantDelayModel(1.0),
                rng=RandomSource(seed=4).spawn("net"),
                duplicate_rate=0.9,
            )
            sessions, inboxes = make_pair(bus)
            for session in sessions.values():
                session.start()
            for i in range(10):
                await sessions["a"].send("b", bytes([i]))
            await wait_for(lambda: len(inboxes["b"]) == 10)
            await bus.drain()
            assert len(inboxes["b"]) == 10
            assert sessions["b"].stats_for("a").duplicates > 0
            for session in sessions.values():
                await session.close()

        asyncio.run(scenario())

    def test_garbage_frame_counted_not_fatal(self):
        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus)
            raw = bus.attach("evil")
            await raw.send("b", b"PF\x01\x01trunc")
            # No frame magic at all: counted too, never handed upwards.
            await raw.send("b", b"bare bytes")
            await bus.drain()
            assert sessions["b"].frame_errors == 2
            assert inboxes["b"] == []
            for session in sessions.values():
                await session.close()

        asyncio.run(scenario())


class TestRetransmission:
    def test_lost_datagrams_recovered_by_retransmit(self):
        async def scenario():
            bus = LocalAsyncBus(
                delay_model=ConstantDelayModel(1.0),
                rng=RandomSource(seed=8).spawn("net"),
                loss_rate=0.4,
            )
            sessions, inboxes = make_pair(bus)
            for session in sessions.values():
                session.start()
            for i in range(25):
                await sessions["a"].send("b", bytes([i]))
            await wait_for(lambda: len(inboxes["b"]) == 25, timeout=10.0)
            payloads = sorted(data for data, _ in inboxes["b"])
            assert payloads == [bytes([i]) for i in range(25)]
            assert sessions["a"].stats_for("b").retransmits > 0
            for session in sessions.values():
                await session.close()

        asyncio.run(scenario())

    def test_gap_triggers_nack(self):
        async def scenario():
            # Drop-once bus: lose exactly the second datagram's first copy.
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus)
            for session in sessions.values():
                session.start()
            await sessions["a"].send("b", b"first")
            await wait_for(lambda: len(inboxes["b"]) == 1)
            # Simulate the loss: bump a's seq by crafting a gap — send
            # seq 2 into the void, then seq 3 for real.
            state = sessions["a"]._peer("b")
            state.next_seq += 1  # b will see 1 then 3: a gap at 2
            await sessions["a"].send("b", b"third")
            await wait_for(lambda: sessions["b"].stats_for("a").nacks_sent >= 1)
            assert 2 in [s for s in sessions["b"]._peer("a").missing_seqs()] or (
                sessions["b"]._peer("a").recv_cumulative >= 3
            )
            for session in sessions.values():
                await session.close()

        asyncio.run(scenario())

    def test_frames_dropped_after_max_retries(self):
        async def scenario():
            transport = BlackholeTransport()
            session = ReliableSession(
                transport,
                on_message=lambda data, addr: None,
                policy=fast_policy(max_retries=3),
            )
            session.start()
            await session.send("nowhere", b"doomed")
            await wait_for(lambda: session.stats_for("nowhere").drops == 1)
            stats = session.stats_for("nowhere")
            assert stats.retransmits == 3
            assert session.unacked_count("nowhere") == 0
            await session.close()

        asyncio.run(scenario())

    def test_backoff_grows_between_retransmissions(self):
        async def scenario():
            transport = BlackholeTransport()
            session = ReliableSession(
                transport,
                on_message=lambda data, addr: None,
                policy=fast_policy(max_retries=4, jitter=0.0),
            )
            session.start()
            await session.send("void", b"x")
            state = session._peer("void")
            pending = next(iter(state.unacked.values()))
            first_timeout = pending.timeout
            await wait_for(lambda: pending.sends >= 3)
            assert pending.timeout > first_timeout
            await session.close()

        asyncio.run(scenario())


class TestBackpressure:
    def test_send_suspends_when_buffer_full(self):
        async def scenario():
            transport = BlackholeTransport()
            session = ReliableSession(
                transport,
                on_message=lambda data, addr: None,
                policy=fast_policy(send_buffer=2, max_retries=1000),
            )
            session.start()
            await session.send("void", b"1")
            await session.send("void", b"2")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(session.send("void", b"3"), timeout=0.2)
            await session.close()

        asyncio.run(scenario())

    def test_send_resumes_after_drop_frees_space(self):
        async def scenario():
            transport = BlackholeTransport()
            session = ReliableSession(
                transport,
                on_message=lambda data, addr: None,
                policy=fast_policy(send_buffer=1, max_retries=1),
            )
            session.start()
            await session.send("void", b"1")
            # The frame is dropped after max_retries, freeing the buffer,
            # so the second send completes instead of hanging forever.
            await asyncio.wait_for(session.send("void", b"2"), timeout=5.0)
            assert session.stats_for("void").drops >= 1
            await session.close()

        asyncio.run(scenario())


class TestWirePath:
    """Frame coalescing, held cumulative ACKs, and the wire counters."""

    def test_burst_coalesces_into_batches(self):
        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus)
            for session in sessions.values():
                session.start()
            for i in range(6):
                await sessions["a"].send("b", bytes([i]))
            await wait_for(lambda: len(inboxes["b"]) == 6)
            await wait_for(lambda: sessions["a"].unacked_count("b") == 0)
            tx = sessions["a"].stats_for("b")
            rx = sessions["b"].stats_for("a")
            assert tx.frames_sent == 6
            assert tx.datagrams_sent < 6, "burst should coalesce"
            assert tx.batches_sent >= 1
            assert tx.bytes_sent > 0
            assert rx.batches_received >= 1
            assert rx.frames_received == 6
            assert rx.datagrams_received == tx.datagrams_sent
            assert rx.bytes_received == tx.bytes_sent
            for session in sessions.values():
                await session.close()

        asyncio.run(scenario())

    def test_delayed_ack_is_cumulative(self):
        """Five frames spread over one tick, no reverse traffic: one
        cumulative ACK, sent alone by the second retransmit tick after
        the first frame arrived (virtual time, so the tick is exact)."""

        async def scenario():
            loop = asyncio.get_running_loop()
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            policy = fast_policy(initial_timeout=0.5, max_timeout=1.0, tick_interval=0.05)
            sessions, inboxes = make_pair(bus, policy=policy)
            for session in sessions.values():
                session.start()
            for i in range(5):
                await sessions["a"].send("b", bytes([i]))
                await asyncio.sleep(0.002)
            await wait_for(lambda: len(inboxes["b"]) == 5)
            await wait_for(lambda: sessions["a"].unacked_count("b") == 0, interval=0.001)
            acked_at = loop.time()
            stats = sessions["a"].stats_for("b"), sessions["b"].stats_for("a")
            for session in sessions.values():
                await session.close()
            return acked_at, stats

        acked_at, (tx, rx) = run_virtual(scenario())
        assert tx.datagrams_sent == 5, "spaced past flush_interval: one datagram each"
        assert rx.acks_sent == 1, "one held cumulative ACK, not five"
        assert (rx.acks_piggybacked, rx.datagrams_sent) == (0, 1)
        assert tx.retransmits == 0
        # Aged by the tick at 0.05 s, sent by the tick at 0.10 s, 1 ms on the bus.
        assert 0.101 <= acked_at < 0.103, acked_at

    def test_ack_piggybacks_on_reverse_traffic(self):
        """Reverse traffic inside the two-tick hold — here after the tick
        that aged the ack — carries it: no standalone ACK at all."""

        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            policy = fast_policy(initial_timeout=0.5, max_timeout=1.0, tick_interval=0.05)
            sessions, inboxes = make_pair(bus, policy=policy)
            for session in sessions.values():
                session.start()
            await sessions["a"].send("b", b"ping")
            await wait_for(lambda: len(inboxes["b"]) == 1)
            await asyncio.sleep(0.06 - asyncio.get_running_loop().time())
            assert sessions["b"]._peer("a").ack_aged
            await sessions["b"].send("a", b"pong")
            await wait_for(lambda: sessions["a"].unacked_count("b") == 0)
            rx = sessions["b"].stats_for("a")
            for session in sessions.values():
                await session.close()
            return rx

        rx = run_virtual(scenario())
        assert rx.acks_sent == rx.acks_piggybacked == 1
        assert rx.datagrams_sent == 1, "the pong's datagram, ack in its header"

    def test_explicit_flush_empties_the_outbox(self):
        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            policy = fast_policy(flush_interval=10.0)
            sessions, inboxes = make_pair(bus, policy=policy)
            for session in sessions.values():
                session.start()
            await sessions["a"].send("b", b"held")
            assert sessions["a"].stats_for("b").datagrams_sent == 0
            sessions["a"].flush("b")
            assert sessions["a"].stats_for("b").datagrams_sent == 1
            await wait_for(lambda: len(inboxes["b"]) == 1)
            for session in sessions.values():
                await session.close()

        asyncio.run(scenario())

    def test_one_flush_timer_serves_every_peer(self):
        """Frames queued toward three peers in one tick arm one timer and
        leave as one datagram each when it fires; a forgotten or
        quarantined peer leaves the flush set with its outbox."""

        async def scenario():
            loop = asyncio.get_running_loop()
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            session = ReliableSession(
                bus.attach("a"), on_message=lambda data, addr: None,
                policy=fast_policy(initial_timeout=0.5, max_timeout=1.0),
            )
            peers = ["b", "c", "d"]
            for name in peers:
                bus.attach(name)
            armed = loop.timers_armed
            for name in peers:
                await session.send(name, b"x")
            assert loop.timers_armed - armed == 1
            assert list(session._dirty) == peers
            await asyncio.sleep(0.01)
            assert [session.stats_for(name).datagrams_sent for name in peers] == [1, 1, 1]
            assert session._dirty == {}
            for name in peers:
                await session.send(name, b"y")
            session.forget("b")
            session.quarantine("c")
            assert list(session._dirty) == ["d"]
            await asyncio.sleep(0.01)
            sent = [session.stats_for(name).datagrams_sent for name in peers]
            await session.close()
            return sent

        assert run_virtual(scenario()) == [0, 1, 2]


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(initial_timeout=0),
            dict(backoff_factor=0.5),
            dict(max_timeout=0.01, initial_timeout=0.05),
            dict(jitter=1.5),
            dict(max_retries=-1),
            dict(send_buffer=0),
            dict(tick_interval=0),
            dict(nack_interval=-0.1),
            dict(coalesce_mtu=0),
            dict(flush_interval=0),
            dict(initial_timeout=0.015, tick_interval=0.01),  # inside the ack hold
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetransmitPolicy(**kwargs)

    def test_the_ack_timer_knob_is_gone(self):
        """Acks are held by the retransmit tick; there is no delay knob."""
        with pytest.raises(TypeError):
            RetransmitPolicy(ack_delay=0.005)
        assert len(dataclasses.fields(RetransmitPolicy)) == 10

    def test_stats_merge_sums_counters(self):
        from repro.net import TransportStats

        first = TransportStats(
            data_sent=2, retransmits=1, rtt=0.1,
            datagrams_sent=4, bytes_sent=100, delta_sent=1,
        )
        second = TransportStats(
            data_sent=3, drops=1, rtt=0.3,
            datagrams_sent=6, bytes_sent=50, acks_piggybacked=2,
        )
        total = first.merge(second)
        assert total.data_sent == 5
        assert total.retransmits == 1
        assert total.drops == 1
        assert total.datagrams_sent == 10
        assert total.bytes_sent == 150
        assert total.delta_sent == 1
        assert total.acks_piggybacked == 2
        assert total.rtt == pytest.approx(0.2)
