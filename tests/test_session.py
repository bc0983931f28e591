"""Tests for the reliable session layer (acks, retransmit, backpressure)."""

import asyncio
import dataclasses

import pytest

import repro.net.session as session_module
from repro.core.errors import ConfigurationError
from repro.net import LocalAsyncBus, ReliableSession, RetransmitPolicy
from repro.net.peer import Transport
from repro.sim.group import wait_for
from repro.sim.network import ConstantDelayModel
from repro.sim.vtime import run_virtual
from repro.util.rng import RandomSource


def tune(monkeypatch, **constants):
    """Set the session's tuning constants: ``max_retries=3`` sets
    ``_MAX_RETRIES`` for the rest of the test."""
    for name, value in constants.items():
        monkeypatch.setattr(session_module, f"_{name.upper()}", value)


@pytest.fixture(autouse=True)
def fast_timers(monkeypatch):
    """Timers tighter than shipping, so retransmission runs in tens of
    milliseconds."""
    tune(monkeypatch, max_timeout=0.2, max_retries=20, tick_interval=0.005, nack_interval=0.01)


def make_pair(bus, policy=None):
    """Two sessions on one bus; returns (sessions, inboxes) keyed a/b."""
    sessions, inboxes = {}, {}
    for name in ("a", "b"):
        inbox = []
        sessions[name] = ReliableSession(
            bus.attach(name),
            on_message=lambda data, addr, inbox=inbox: inbox.append((data, addr)),
            policy=policy or RetransmitPolicy(initial_timeout=0.02),
        )
        inboxes[name] = inbox
    return sessions, inboxes


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
            assert await wait_for(lambda: inboxes["b"])
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
            assert await wait_for(lambda: sessions["a"].unacked_count("b") == 0)
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
            assert await wait_for(lambda: len(inboxes["b"]) == 10)
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
            assert await wait_for(lambda: len(inboxes["b"]) == 25, timeout=10.0)
            payloads = sorted(data for data, _ in inboxes["b"])
            assert payloads == [bytes([i]) for i in range(25)]
            assert sessions["a"].stats_for("b").retransmits > 0
            for session in sessions.values():
                await session.close()

        asyncio.run(scenario())

    def test_a_stall_of_the_loop_does_not_resend_what_it_held_the_ack_of(self):
        """One callback blocks the loop for 40 ms while ``b`` holds the
        ack of ``a``'s frame, whose 20 ms timeout runs out inside the
        stall.  The late ticks flush the held ack first and give the
        frame the stall's length again, so nothing is resent."""

        async def scenario():
            loop = asyncio.get_running_loop()
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus)
            for session in sessions.values():
                session.start()

            def stall():
                loop._virtual_now += 0.04  # a blocking call, in virtual time

            loop.call_at(loop.time() + 0.003, stall)
            await sessions["a"].send("b", b"x")
            assert await wait_for(lambda: sessions["a"].unacked_count("b") == 0, timeout=1.0)
            stats = sessions["a"].stats_for("b")
            for session in sessions.values():
                await session.close()
            return len(inboxes["b"]), stats.retransmits, stats.rtt

        received, retransmits, rtt = run_virtual(scenario())
        assert (received, retransmits) == (1, 0)
        # The ack left on b's first tick after the stall, not its second.
        assert 0.043 < rtt < 0.045

    def test_gap_triggers_nack(self):
        async def scenario():
            # Drop-once bus: lose exactly the second datagram's first copy.
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus)
            for session in sessions.values():
                session.start()
            await sessions["a"].send("b", b"first")
            assert await wait_for(lambda: len(inboxes["b"]) == 1)
            # Simulate the loss: bump a's seq by crafting a gap — send
            # seq 2 into the void, then seq 3 for real.
            state = sessions["a"]._peer("b")
            state.next_seq += 1  # b will see 1 then 3: a gap at 2
            await sessions["a"].send("b", b"third")
            assert await wait_for(lambda: sessions["b"].stats_for("a").nacks_sent >= 1)
            assert 2 in [s for s in sessions["b"]._peer("a").missing_seqs()] or (
                sessions["b"]._peer("a").recv_cumulative >= 3
            )
            for session in sessions.values():
                await session.close()

        asyncio.run(scenario())

    def test_frames_dropped_after_max_retries(self, monkeypatch):
        tune(monkeypatch, max_retries=3)

        async def scenario():
            transport = BlackholeTransport()
            session = ReliableSession(
                transport,
                on_message=lambda data, addr: None,
                policy=RetransmitPolicy(initial_timeout=0.02),
            )
            session.start()
            await session.send("nowhere", b"doomed")
            assert await wait_for(lambda: session.stats_for("nowhere").drops == 1)
            stats = session.stats_for("nowhere")
            assert stats.retransmits == 3
            assert session.unacked_count("nowhere") == 0
            await session.close()

        asyncio.run(scenario())

    def test_backoff_grows_between_retransmissions(self, monkeypatch):
        tune(monkeypatch, max_retries=4, jitter=0.0)

        async def scenario():
            transport = BlackholeTransport()
            session = ReliableSession(
                transport,
                on_message=lambda data, addr: None,
                policy=RetransmitPolicy(initial_timeout=0.02),
            )
            session.start()
            await session.send("void", b"x")
            state = session._peer("void")
            pending = next(iter(state.unacked.values()))
            first_timeout = pending.timeout
            assert await wait_for(lambda: pending.sends >= 3)
            assert pending.timeout > first_timeout
            await session.close()

        asyncio.run(scenario())


class TestGivenUpSeqs:
    """A link seq the sender gave up on — dropped after ``_MAX_RETRIES``,
    cleared by a quarantine, skipped by a journal lease — used to leave a
    permanent hole at the receiver: its cumulative ack never moved again,
    and the frames above the hole were retransmitted until dropped.  The
    sender now answers a NACK for such a seq with an empty DATA frame."""

    SENDS = 200

    @staticmethod
    async def _send_after_the_hole(sessions, inboxes):
        """Send ``SENDS`` frames; return the receiver's cumulative ack and
        out-of-order count, and the sender's unacked frames and drops."""
        sent = [b"m%d" % index for index in range(TestGivenUpSeqs.SENDS)]
        for payload in sent:
            await sessions["a"].send("b", payload)
        assert await wait_for(lambda: len(inboxes["b"]) == len(sent), timeout=30.0)
        await wait_for(lambda: sessions["a"].unacked_count("b") == 0, timeout=30.0)
        # Every payload once, and nothing else: an empty DATA frame is
        # never passed up.
        assert sorted(data for data, _ in inboxes["b"]) == sorted(sent)
        rx, tx = sessions["b"]._peer("a"), sessions["a"]._peer("b")
        result = rx.recv_cumulative, len(rx.recv_out_of_order), len(tx.unacked), tx.stats.drops
        for session in sessions.values():
            await session.close()
        return result

    def test_a_quarantined_frame_does_not_stall_the_link(self):
        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus)
            for session in sessions.values():
                session.start()
            await sessions["a"].send("b", b"lost")  # queued, never flushed
            assert sessions["a"].quarantine("b") == 1
            sessions["a"].resume("b")
            return await self._send_after_the_hole(sessions, inboxes)

        assert run_virtual(scenario()) == (1 + self.SENDS, 0, 0, 0)

    def test_a_frame_dropped_after_the_retries_does_not_stall_the_link(self, monkeypatch):
        tune(monkeypatch, max_retries=2)

        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            inbox = []
            sender = ReliableSession(
                bus.attach("a"), on_message=lambda data, addr: None,
                policy=RetransmitPolicy(initial_timeout=0.02),
            )
            sender.start()
            await sender.send("b", b"lost")  # "b" is not on the bus yet
            assert await wait_for(lambda: sender.stats_for("b").drops == 1)
            receiver = ReliableSession(
                bus.attach("b"), on_message=lambda data, addr: inbox.append((data, addr)),
                policy=RetransmitPolicy(initial_timeout=0.02),
            )
            receiver.start()
            sessions = {"a": sender, "b": receiver}
            return await self._send_after_the_hole(sessions, {"b": inbox})

        assert run_virtual(scenario()) == (1 + self.SENDS, 0, 0, 1)

    def test_seqs_skipped_by_a_lease_do_not_stall_the_link(self):
        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus)
            for session in sessions.values():
                session.start()
            for index in range(5):
                await sessions["a"].send("b", b"early%d" % index)
            assert await wait_for(lambda: sessions["b"]._peer("a").recv_cumulative == 5)
            inboxes["b"].clear()
            # A restart resumes at the journal's lease: 6..99 never sent.
            sessions["a"].restore_peer("b", next_seq=100)
            return await self._send_after_the_hole(sessions, inboxes)

        assert run_virtual(scenario()) == (99 + self.SENDS, 0, 0, 0)


class TestBackpressure:
    def test_send_suspends_when_buffer_full(self, monkeypatch):
        tune(monkeypatch, send_buffer=2, max_retries=1000)

        async def scenario():
            transport = BlackholeTransport()
            session = ReliableSession(
                transport,
                on_message=lambda data, addr: None,
                policy=RetransmitPolicy(initial_timeout=0.02),
            )
            session.start()
            await session.send("void", b"1")
            await session.send("void", b"2")
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(session.send("void", b"3"), timeout=0.2)
            await session.close()

        asyncio.run(scenario())

    def test_send_resumes_after_drop_frees_space(self, monkeypatch):
        tune(monkeypatch, send_buffer=1, max_retries=1)

        async def scenario():
            transport = BlackholeTransport()
            session = ReliableSession(
                transport,
                on_message=lambda data, addr: None,
                policy=RetransmitPolicy(initial_timeout=0.02),
            )
            session.start()
            await session.send("void", b"1")
            # The frame is dropped after _MAX_RETRIES, freeing the buffer,
            # so the second send completes instead of hanging forever.
            await asyncio.wait_for(session.send("void", b"2"), timeout=5.0)
            assert session.stats_for("void").drops >= 1
            await session.close()

        asyncio.run(scenario())


    def test_push_with_room_queues_the_frame_in_the_callers_turn(self):
        """``push(); flush()`` puts the frame on the wire at once: no
        task stands between them (the graceful leave relies on it)."""

        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus)
            sessions["a"].push("b", b"now")
            assert sessions["a"].unacked_count("b") == 1
            sessions["a"].flush()
            sent = sessions["a"].stats_for("b").datagrams_sent
            tasks = sessions["a"].state_sizes()["tasks"]
            assert await wait_for(lambda: inboxes["b"])
            for session in sessions.values():
                await session.close()
            return sent, tasks, inboxes["b"]

        # The one task is the bus's datagram send, not a waiting push.
        assert run_virtual(scenario()) == (1, 1, [(b"now", "a")])

    def test_push_to_a_full_link_waits_for_space_and_loses_nothing(self, monkeypatch):
        tune(monkeypatch, send_buffer=2)

        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            gate = [False]
            inbox = []
            a = ReliableSession(
                bus.attach("a"), on_message=lambda data, addr: None,
                policy=RetransmitPolicy(initial_timeout=0.02),
            )
            b = ReliableSession(
                bus.attach("b"), on_message=lambda data, addr: inbox.append(data),
                data_gate=lambda: gate[0], policy=RetransmitPolicy(initial_timeout=0.02),
            )
            for session in (a, b):
                session.start()
            a.push("b", b"1")
            a.push("b", b"2")
            a.push("b", b"3")  # the link is full: a task waits for space
            waiting = (a.unacked_count("b"), a.state_sizes()["tasks"] > 0)
            await asyncio.sleep(0.1)
            assert (a.unacked_count("b"), inbox) == (2, [])
            gate[0] = True  # b acks the retransmissions, freeing space
            assert await wait_for(lambda: len(inbox) == 3)
            for session in (a, b):
                await session.close()
            # The session hands frames up as they arrive, not in seq order.
            return waiting, sorted(inbox), a.link_states()["b"][0], a.state_sizes()["tasks"]

        assert run_virtual(scenario()) == ((2, True), [b"1", b"2", b"3"], 4, 0)


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
            assert await wait_for(lambda: len(inboxes["b"]) == 6)
            assert await wait_for(lambda: sessions["a"].unacked_count("b") == 0)
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

    def test_delayed_ack_is_cumulative(self, monkeypatch):
        """Five frames spread over one tick, no reverse traffic: one
        cumulative ACK, sent alone by the second retransmit tick after
        the first frame arrived (virtual time, so the tick is exact)."""
        tune(monkeypatch, max_timeout=1.0, tick_interval=0.05)

        async def scenario():
            loop = asyncio.get_running_loop()
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus, policy=RetransmitPolicy(initial_timeout=0.5))
            for session in sessions.values():
                session.start()
            for i in range(5):
                await sessions["a"].send("b", bytes([i]))
                await asyncio.sleep(0.002)
            assert await wait_for(lambda: len(inboxes["b"]) == 5)
            assert await wait_for(lambda: sessions["a"].unacked_count("b") == 0, interval=0.001)
            acked_at = loop.time()
            stats = sessions["a"].stats_for("b"), sessions["b"].stats_for("a")
            for session in sessions.values():
                await session.close()
            return acked_at, stats

        acked_at, (tx, rx) = run_virtual(scenario())
        assert tx.datagrams_sent == 5, "spaced past _FLUSH_INTERVAL: one datagram each"
        assert rx.acks_sent == 1, "one held cumulative ACK, not five"
        assert (rx.acks_piggybacked, rx.datagrams_sent) == (0, 1)
        assert tx.retransmits == 0
        # Aged by the tick at 0.05 s, sent by the tick at 0.10 s, 1 ms on the bus.
        assert 0.101 <= acked_at < 0.103, acked_at

    def test_ack_piggybacks_on_reverse_traffic(self, monkeypatch):
        """Reverse traffic inside the two-tick hold — here after the tick
        that aged the ack — carries it: no standalone ACK at all."""
        tune(monkeypatch, max_timeout=1.0, tick_interval=0.05)

        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus, policy=RetransmitPolicy(initial_timeout=0.5))
            for session in sessions.values():
                session.start()
            await sessions["a"].send("b", b"ping")
            assert await wait_for(lambda: len(inboxes["b"]) == 1)
            await asyncio.sleep(0.06 - asyncio.get_running_loop().time())
            assert sessions["b"]._peer("a").ack_aged
            await sessions["b"].send("a", b"pong")
            assert await wait_for(lambda: sessions["a"].unacked_count("b") == 0)
            rx = sessions["b"].stats_for("a")
            for session in sessions.values():
                await session.close()
            return rx

        rx = run_virtual(scenario())
        assert rx.acks_sent == rx.acks_piggybacked == 1
        assert rx.datagrams_sent == 1, "the pong's datagram, ack in its header"

    def test_explicit_flush_empties_the_outbox(self, monkeypatch):
        tune(monkeypatch, flush_interval=10.0)

        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            sessions, inboxes = make_pair(bus)
            for session in sessions.values():
                session.start()
            await sessions["a"].send("b", b"held")
            assert sessions["a"].stats_for("b").datagrams_sent == 0
            sessions["a"].flush("b")
            assert sessions["a"].stats_for("b").datagrams_sent == 1
            assert await wait_for(lambda: len(inboxes["b"]) == 1)
            for session in sessions.values():
                await session.close()

        asyncio.run(scenario())

    def test_one_flush_timer_serves_every_peer(self, monkeypatch):
        """Frames queued toward three peers in one tick arm one timer and
        leave as one datagram each when it fires; a forgotten or
        quarantined peer leaves the flush set with its outbox."""
        tune(monkeypatch, max_timeout=1.0)

        async def scenario():
            loop = asyncio.get_running_loop()
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            session = ReliableSession(
                bus.attach("a"), on_message=lambda data, addr: None,
                policy=RetransmitPolicy(initial_timeout=0.5),
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
    @pytest.fixture(autouse=True)
    def fast_timers(self):
        """Validation runs against the shipping constants."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(initial_timeout=0),
            # Module constants now: naming one, even at its value, is a TypeError.
            dict(backoff_factor=2.0),
            dict(max_timeout=2.0),
            dict(jitter=0.25),
            dict(max_retries=10),
            dict(send_buffer=1024),
            dict(tick_interval=0.01),
            dict(nack_interval=0.04),
            dict(coalesce_mtu=1400),
            dict(flush_interval=0.001),
            dict(initial_timeout=0.015),  # inside the two-tick ack hold
            dict(initial_timeout=2.5),  # past the timeout ceiling
        ],
    )
    def test_bad_policy_rejected(self, kwargs):
        error = ConfigurationError if list(kwargs) == ["initial_timeout"] else TypeError
        with pytest.raises(error):
            RetransmitPolicy(**kwargs)

    def test_the_ack_timer_knob_is_gone(self):
        """Acks are held by the retransmit tick; there is no delay knob,
        and the first timeout is the only knob left."""
        with pytest.raises(TypeError):
            RetransmitPolicy(ack_delay=0.005)
        assert len(dataclasses.fields(RetransmitPolicy)) == 1

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
