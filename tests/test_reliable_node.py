"""Loss and recovery tests for the reliable networked node.

The acceptance bar: with >= 20% injected datagram loss plus duplication
and reordering, two ``create_node()`` participants reach 100%
causally-ordered delivery, and the wire stats prove the reliability
machinery (retransmissions, anti-entropy) did it — on 20 seeds each,
under virtual time.
"""

import asyncio
import logging
import random

import numpy as np
import pytest

from repro.api import (
    LivenessPolicy,
    MembershipConfig,
    NodeConfig,
    RetransmitPolicy,
    create_endpoint,
    create_node,
)
from repro.core.clocks import Timestamp
from repro.core.codec import (
    AckFrame,
    BatchFrame,
    DataFrame,
    DigestFrame,
    FrameCodec,
    HeartbeatFrame,
    JoinAckFrame,
    JoinFrame,
    LeaveFrame,
    MemberRecord,
    MessageCodec,
    NackFrame,
    RelayFrame,
    ViewFrame,
)
from repro.core.errors import ConfigurationError
from repro.core.protocol import Message
from repro.net import FaultWindow, FaultyTransport, LocalAsyncBus, UdpTransport
from repro.net import node as node_module
from repro.net import session as session_module
from repro.net.node import MessageStore
from repro.sim.group import Group, wait_for
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual


class TestSoakUnderLoss:
    @pytest.mark.parametrize("seed", range(20))
    def test_full_causal_delivery_despite_loss_dup_reorder(self, seed):
        """25 % loss, 10 % duplication and reordering jitter: a causally
        chained ping-pong reaches 100 % delivery in causal order, and
        retransmission is what got it there."""

        async def scenario():
            config = NodeConfig(
                r=64, k=3,
                retransmit=RetransmitPolicy(initial_timeout=0.02),
                anti_entropy_interval=0.15,
            )
            group = await Group.start(
                2, config, seed, 0.25, GaussianDelayModel(5.0, 2.0, 2.0), duplicate_rate=0.10
            )
            async with group:
                alice, bob = group.nodes
                rounds = 25
                # bob's i-th message depends on having delivered alice's
                # i-th, and vice versa, so *any* permanently lost message
                # would wedge the whole exchange.
                for i in range(rounds):
                    await alice.broadcast(("alice", i))
                    assert await wait_for(
                        lambda i=i: ("alice", i) in bob.delivered_payloads()
                    ), f"bob never delivered alice's message {i}"
                    await bob.broadcast(("bob", i))
                    assert await wait_for(
                        lambda i=i: ("bob", i) in alice.delivered_payloads()
                    ), f"alice never delivered bob's message {i}"

                chain = [
                    (name, i) for i in range(rounds) for name in ("alice", "bob")
                ]
                for node in (alice, bob):
                    assert node.delivered_payloads() == chain
                # The wire was hostile and the runtime fought back.
                assert group.bus.dropped > 0, "loss never fired"
                assert group.wire().retransmits > 0, "loss was never repaired by retransmit"

        run_virtual(scenario())

    @pytest.mark.parametrize("seed", range(20))
    def test_anti_entropy_recovers_without_retransmission(self, seed, monkeypatch):
        """With retransmission disabled (no retries) and 40 % loss, the
        periodic digest exchange alone must converge the nodes."""
        monkeypatch.setattr(session_module, "_MAX_RETRIES", 0)

        async def scenario():
            config = NodeConfig(
                r=64, k=3,
                retransmit=RetransmitPolicy(initial_timeout=0.02),
                anti_entropy_interval=0.05,
            )
            group = await Group.start(2, config, seed, 0.4, GaussianDelayModel(5.0, 2.0, 2.0))
            async with group:
                alice, bob = group.nodes
                for i in range(15):
                    await alice.broadcast(i)
                    # One datagram per broadcast: coalesced, all 15 can
                    # ride a single surviving datagram and nothing needs
                    # healing.
                    alice.session.flush()
                assert await wait_for(
                    lambda: len(bob.delivered_payloads()) == 15
                ), "anti-entropy did not converge"
                assert bob.delivered_payloads() == list(range(15))
                # The gap heals in answer to whichever digest lands first
                # — often bob's, before alice's first jittered round.
                assert group.wire().digests_sent > 0
                assert alice.transport_stats().drops > 0, (
                    "every frame survived: loss not exercised"
                )

        run_virtual(scenario())

    def test_anti_entropy_heals_transitive_gaps(self):
        """A message from alice reaches carol via bob's store even when
        the alice->carol link drops every datagram."""

        async def scenario():
            config = NodeConfig(
                r=64, k=3, anti_entropy_interval=0.05,
                retransmit=RetransmitPolicy(initial_timeout=0.02),
            )
            alice = await create_node("alice", config)
            bob = await create_node("bob", config)
            carol = await create_node("carol", config)
            # alice only talks to bob; bob and carol are fully connected.
            alice.add_peer(bob.local_address)
            bob.add_peer(alice.local_address)
            bob.add_peer(carol.local_address)
            carol.add_peer(bob.local_address)

            await alice.broadcast("relayed")
            assert await wait_for(
                lambda: carol.delivered_payloads() == ["relayed"], timeout=20.0
            ), "carol never received alice's message via bob"
            for node in (alice, bob, carol):
                await node.close()

        asyncio.run(scenario())


class TestMessageStore:
    def test_frontier_tracks_contiguous_and_extras(self):
        store = MessageStore()
        store.add("p", 1, b"a")
        store.add("p", 2, b"b")
        store.add("p", 4, b"d")
        assert store.frontiers() == {"p": (2, (4,))}
        store.add("p", 3, b"c")
        assert store.frontiers() == {"p": (4, ())}

    def test_duplicate_add_is_noop(self):
        store = MessageStore()
        assert store.add("p", 1, b"a")
        assert not store.add("p", 1, b"a")
        assert len(store) == 1

    def test_missing_for_serves_only_what_remote_lacks(self):
        store = MessageStore()
        for seq in range(1, 6):
            store.add("p", seq, bytes([seq]))
        store.add("q", 1, b"q1")
        remote = {"p": (3, (5,))}
        assert sorted(store.missing_for(remote)) == [b"\x04", b"q1"]

    def test_a_covering_digest_is_owed_nothing_without_a_store_scan(self):
        """The up-to-date partner's digest — the common one with a digest
        per round — is answered from the O(senders) coverage alone."""
        store = MessageStore()
        for seq in (1, 2, 4):
            store.add("p", seq, bytes([seq]))
        store.add("q", 1, b"q1")

        class Untouchable:
            def __iter__(self):
                raise AssertionError("the store was scanned")

        order, store._order = store._order, Untouchable()
        assert list(store.missing_for({"p": (4, ()), "q": (3, ()), "z": (9, ())})) == []
        assert list(store.missing_for({"p": (7, ()), "q": (1, (5,))})) == []
        store._order = order
        # Covering only through an out-of-order extra is not covering.
        assert list(store.missing_for({"p": (2, (4,)), "q": (1, ())})) == []
        assert list(store.missing_for({"p": (2, ()), "q": (1, ())})) == [b"\x04"]
        assert list(store.missing_for({"p": (4, ())})) == [b"q1"]

    def test_eviction_keeps_frontier_truthful(self, monkeypatch):
        monkeypatch.setattr(node_module, "_STORE_LIMIT", 2)
        store = MessageStore()
        store.add("p", 1, b"a")
        store.add("p", 2, b"b")
        store.add("p", 3, b"c")
        assert len(store) == 2
        assert store.knows("p", 1)          # still known...
        assert store.get("p", 1) is None    # ...but no longer servable
        assert store.frontiers() == {"p": (3, ())}
        assert list(store.missing_for({"p": (1, ())})) == [b"b", b"c"]

    def test_invalid_limit_rejected(self):
        """The store's bound and a digest answer's are module constants
        (``_STORE_LIMIT``, ``_REPAIRS_PER_DIGEST``): naming one is a
        TypeError."""
        with pytest.raises(TypeError):
            MessageStore(limit=0)
        with pytest.raises(TypeError):
            list(MessageStore().missing_for({}, limit=1))

    def test_eviction_counted_and_unservable_request_logged_once(self, caplog, monkeypatch):
        monkeypatch.setattr(node_module, "_STORE_LIMIT", 2)
        store = MessageStore()
        for seq in range(1, 5):
            store.add("p", seq, bytes([seq]))
        assert store.stats.evictions == 2
        with caplog.at_level(logging.WARNING, logger="repro.net.node"):
            # A digest whose frontier lies below the evicted high-water
            # mark asks for bytes this store no longer holds.
            list(store.missing_for({"p": (0, ())}))
            list(store.missing_for({"p": (1, ())}))
        assert store.stats.unservable_requests == 2
        warnings = [
            record for record in caplog.records if "evicted" in record.message
        ]
        assert len(warnings) == 1, "the unservable warning must log only once"
        # A fully-covered digest is not an unservable request.
        list(store.missing_for({"p": (4, ())}))
        assert store.stats.unservable_requests == 2


    def test_purged_sender_leaves_the_digest_and_may_start_over(self):
        store = MessageStore()
        for seq in (1, 2, 4):
            store.add("p", seq, bytes([seq]))
        store.add("q", 1, b"q1")
        assert store.purge_sender("p") == 3
        assert store.frontiers() == {"q": (1, ())}
        assert not store.knows("p", 1) and len(store) == 1
        assert store.add("p", 1, b"again")
        assert store.frontiers() == {"q": (1, ()), "p": (1, ())}
        assert list(store.missing_for({})) == [b"q1", b"again"]

    def test_restored_frontiers_are_known_but_marked_evicted(self):
        store = MessageStore()
        store.restore_frontiers({"p": (5, (8,)), "q": (2, ())})
        assert store.frontiers() == {"p": (5, (8,)), "q": (2, ())}
        assert store.knows("p", 8) and not store.knows("p", 6)
        assert len(store) == 0 and not store.add("p", 3, b"dup")
        # A digest reaching into the recovered range cannot be served.
        assert list(store.missing_for({"p": (7, ())})) == []
        assert store.stats.unservable_requests == 1
        list(store.missing_for({"p": (8, ()), "q": (2, ())}))
        assert store.stats.unservable_requests == 1
        # Own WAL-journalled bytes can be re-stocked inside the range.
        store.restore_message("q", 2, b"q2")
        assert list(store.missing_for({"p": (8, ())})) == [b"q2"]
        with pytest.raises(ConfigurationError):
            store.restore_frontiers({"r": (1, ())})


class TestNodeSurface:
    def test_stats_and_store_exposed(self):
        async def scenario():
            config = NodeConfig(r=32, k=2)
            a = await create_node("a", config)
            b = await create_node("b", config)
            a.add_peer(b.local_address)
            b.add_peer(a.local_address)
            await a.broadcast("x")
            assert await wait_for(lambda: b.delivered_payloads() == ["x"])
            assert a.transport_stats(b.local_address).data_sent == 1
            assert a.transport_stats_by_peer()[b.local_address].data_sent == 1
            assert b.store.knows("a", 1)
            assert a.peers == (b.local_address,)
            a.remove_peer(b.local_address)
            assert a.peers == ()
            await a.close()
            await b.close()

        asyncio.run(scenario())

    def test_remove_peer_purges_session_and_liveness_state(self):
        """Satellite regression: remove_peer must not leak per-peer
        session state (unacked queue, stats, receive bookkeeping) or a
        stale liveness entry that would later quarantine the departed
        address."""

        async def scenario():
            config = NodeConfig(
                r=32, k=2,
                retransmit=RetransmitPolicy(initial_timeout=0.02),
                liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=0.5),
            )
            alice = await create_node("alice", config)
            bob = await create_node("bob", config)
            alice.add_peer(bob.local_address)
            bob.add_peer(alice.local_address)
            await alice.broadcast("hello")
            assert await wait_for(lambda: bob.delivered_payloads() == ["hello"])
            assert bob.local_address in alice.session.all_stats()

            alice.remove_peer(bob.local_address)
            assert bob.local_address not in alice.session.all_stats()
            assert alice.session.unacked_count(bob.local_address) == 0
            await bob.close()
            # With bob's entry purged, his silence must never trip the
            # failure detector on a peer alice no longer talks to.
            await asyncio.sleep(0.7)
            assert not alice.liveness.is_quarantined(bob.local_address)
            assert alice.liveness.quarantines == 0
            # Removing an unknown address stays a no-op.
            alice.remove_peer(("127.0.0.1", 1))
            await alice.close()

        asyncio.run(scenario())

    def test_heal_scheduled_before_remove_peer_leaves_no_session_state(self):
        """A resync (or a liveness resume) schedules ``_heal_peer`` as a
        task; if the peer is removed before it runs, its digest must not
        re-create the session state ``remove_peer`` just purged."""

        async def scenario():
            config = NodeConfig(r=32, k=2)
            alice = await create_node("alice", config)
            bob = await create_node("bob", config)
            alice.add_peer(bob.local_address)
            alice._request_resync(bob.local_address)
            alice.remove_peer(bob.local_address)
            await asyncio.sleep(0)  # the heal task's turn
            assert bob.local_address not in alice.session.all_stats()
            # A peer that is still one gets its digest.
            alice.add_peer(bob.local_address)
            await alice._heal_peer(bob.local_address)
            assert alice.session.all_stats()[bob.local_address].digests_sent == 1
            await alice.close()
            await bob.close()

        asyncio.run(scenario())

    def test_max_retries_exhaustion_dropped_then_healed(self, monkeypatch):
        """Satellite: a frame abandoned after ``_MAX_RETRIES`` increments
        ``drops`` and frees the unacked slot; anti-entropy then delivers
        the message end-to-end once the outage lifts."""
        monkeypatch.setattr(session_module, "_MAX_RETRIES", 2)

        async def scenario():
            config = NodeConfig(
                r=32, k=2, anti_entropy_interval=0.1,
                retransmit=RetransmitPolicy(initial_timeout=0.02),
            )
            # Every datagram alice sends in the first 0.5 s vanishes —
            # long enough for 2 retries at a 20 ms timeout to exhaust.
            transport = FaultyTransport(
                await UdpTransport.create(),
                windows=(FaultWindow(start=0.0, end=0.5, drop=True),),
            )
            alice = await create_node("alice", config, transport=transport)
            bob = await create_node("bob", config)
            alice.transport.arm()
            alice.add_peer(bob.local_address)
            bob.add_peer(alice.local_address)

            await alice.broadcast("blocked")
            assert await wait_for(
                lambda: alice.transport_stats(bob.local_address).drops >= 1,
                timeout=5.0,
            ), "exhausted frame was never counted as dropped"
            stats = alice.transport_stats(bob.local_address)
            assert stats.retransmits >= 2
            # The retransmit path gave up; the digest exchange must not.
            assert await wait_for(
                lambda: bob.delivered_payloads() == ["blocked"], timeout=20.0
            ), "anti-entropy never healed the dropped frame"
            # Abandoned frames do not linger: once healed and acked, the
            # unacked queue drains completely.
            assert await wait_for(
                lambda: alice.session.unacked_count(bob.local_address) == 0,
                timeout=5.0,
            )
            await alice.close()
            await bob.close()

        asyncio.run(scenario())

    def test_negative_anti_entropy_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(anti_entropy_interval=-1.0)

    def test_malformed_inner_message_counted(self):
        async def scenario():
            config = NodeConfig(r=32, k=2)
            a = await create_node("a", config)
            b = await create_node("b", config)
            # Push garbage through a's *session* so it arrives as a valid
            # DATA frame whose payload is not a decodable message.
            await a.session.send(b.local_address, b"junk")
            assert await wait_for(lambda: b.decode_errors == 1)
            await a.close()
            await b.close()

        asyncio.run(scenario())


class TestHostileDatagrams:
    """Nothing a datagram contains may raise out of the receive upcall
    (it would abort the rest of that wakeup's batch) or be half-taken:
    what is rejected is counted and leaves no state behind."""

    R = 16

    async def _node_on_a_bus(self, **config):
        # In process: a mutated member address must never reach a socket.
        bus = LocalAsyncBus()
        bus.attach("up").set_receiver(lambda data, addr: None)
        node = await create_node(
            "rx", NodeConfig(r=self.R, k=2, **config), transport=bus.attach("rx")
        )
        node.add_peer("up")
        return node

    def _message(self, seq, keys, r=R, sender="origin"):
        vector = np.zeros(r, dtype=np.int64)
        vector[[key for key in keys if key < r]] = max(seq, 1)
        vector.flags.writeable = False
        return MessageCodec().encode(
            Message(
                sender=sender,
                seq=seq,
                timestamp=Timestamp(vector=vector, sender_keys=keys, seq=seq),
                payload="p",
            )
        )

    def test_four_malformed_datagrams_leave_no_state_and_spare_the_batch(self):
        """A non-UTF-8 id, seq 0, a sender key >= R and a vector of
        another size each used to raise — the last two after the store
        (and the reference slot anti-entropy re-serves from) had taken
        the poisoned encoding."""

        async def scenario():
            node = await self._node_on_a_bus()
            frames = FrameCodec()
            digest = frames.encode(DigestFrame({"zoë": (1, ())}))
            payloads = [
                self._message(seq=0, keys=(1, 2), sender="mallory"),
                self._message(seq=1, keys=(1, self.R), sender="mallory"),
                self._message(seq=1, keys=(1, 2), r=self.R // 2, sender="mallory"),
                self._message(seq=1, keys=(1, 2)),
            ]
            batch = [(digest.replace("ë".encode("utf-8"), b"\xc3\x28"), "up")] + [
                (frames.encode(DataFrame(seq=link_seq, payload=payload)), "up")
                for link_seq, payload in enumerate(payloads, 1)
            ]
            node.session._handle_datagram_batch(batch)
            assert (node.session.frame_errors, node.decode_errors) == (1, 3)
            assert len(node.trace.events("decode_error")) == 3
            # Only the valid one, last in the batch, left anything behind.
            assert node.delivered_payloads() == ["p"]
            assert node.store.frontiers() == {"origin": (1, ())}
            assert node.store.get("origin", 1) == payloads[-1]
            assert node.endpoint.seen_frontiers() == {"origin": (1, ())}
            assert set(node._ref_newest) == {"origin"}
            await node.close()

        asyncio.run(scenario())

    @pytest.mark.parametrize(
        "config",
        [{}, dict(dissemination="overlay", fanout=2, view_size=4,
                  membership=MembershipConfig())],
        ids=["mesh", "overlay-membership"],
    )
    def test_mutated_frames_of_every_type_never_raise(self, config):
        """10,000 seeded 1-3 byte mutations of valid frames of every type
        through the session's receive upcall of a live node."""
        messages, frames = MessageCodec(), FrameCodec()
        origin = create_endpoint("origin", NodeConfig(r=self.R, keys=(1, 2, 3)))
        first, second = origin.broadcast("m1"), origin.broadcast("m2")
        full = messages.encode(first)
        delta = messages.encode_delta(second, first.seq, first.timestamp.vector)
        member = MemberRecord("zoë", ("up", 1), (4, 5))
        valid = [
            frames.encode(frame)
            for frame in (
                DataFrame(seq=1, payload=full),
                DataFrame(seq=2, payload=delta),
                AckFrame(cumulative=3, sacks=(5, 7)),
                NackFrame(missing=(2, 4)),
                DigestFrame({"origin": (1, (3,)), "zoë": (0, ())}),
                HeartbeatFrame(count=9),
                ViewFrame(view_id=2, members=(member,), epoch=1),
                JoinFrame(node_id="zoë", address=("up", 1), keys=(4, 5)),
                JoinAckFrame(
                    accepted=True, view_id=2, r=self.R, k=2, keys=(4, 5),
                    members=(member,), frontiers={"origin": (2, ())},
                    vector=tuple(range(self.R)), epoch=1,
                ),
                JoinAckFrame(
                    accepted=False, view_id=2, r=self.R, k=2, keys=(),
                    members=(member,), reason="full",
                ),
                LeaveFrame(node_id="zoë"),
                RelayFrame(
                    origin="origin", seq=1, hops=1, sent_at=1.5,
                    sample=(member,), payload=full,
                ),
                RelayFrame(origin="origin", seq=2, hops=0, payload=delta),
            )
        ]
        valid.append(
            frames.encode(
                BatchFrame(frames=tuple(valid[:6]), ack=AckFrame(cumulative=1))
            )
        )

        async def scenario():
            node = await self._node_on_a_bus(**config)
            rng = random.Random(19)
            for _ in range(10_000):
                data = bytearray(rng.choice(valid))
                for _ in range(rng.randint(1, 3)):
                    data[rng.randrange(len(data))] = rng.randrange(256)
                node.session._handle_datagram(bytes(data), "up")
            assert node.session.frame_errors > 1000
            await node.close()

        asyncio.run(scenario())
