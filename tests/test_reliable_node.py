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
from repro.core.pending import SeenFilter
from repro.core.protocol import Message
from repro.net import FaultWindow, FaultyTransport, LocalAsyncBus, UdpTransport
from repro.net import repair as repair_module
from repro.net import session as session_module
from repro.net.repair import MessageStore
from repro.sim.group import Group, wait_for
from repro.sim.network import ConstantDelayModel, GaussianDelayModel
from repro.sim.vtime import run_virtual
from tests.recording import Deliveries


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
                order = group.order
                rounds = 25
                # bob's i-th message depends on having delivered alice's
                # i-th, and vice versa, so *any* permanently lost message
                # would wedge the whole exchange.
                for i in range(rounds):
                    await alice.broadcast(("alice", i))
                    assert await wait_for(
                        lambda i=i: ("n0", i + 1) in order["n1"]
                    ), f"bob never delivered alice's message {i}"
                    await bob.broadcast(("bob", i))
                    assert await wait_for(
                        lambda i=i: ("n1", i + 1) in order["n0"]
                    ), f"alice never delivered bob's message {i}"

                chain = [
                    (name, i + 1) for i in range(rounds) for name in ("n0", "n1")
                ]
                assert order == {"n0": chain, "n1": chain}
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
                    lambda: len(group.order["n1"]) == 15
                ), "anti-entropy did not converge"
                assert group.order["n1"] == [("n0", seq) for seq in range(1, 16)]
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
            log = Deliveries()
            carol = await create_node("carol", config, on_delivery=log.append)
            # alice only talks to bob; bob and carol are fully connected.
            alice.add_peer(bob.local_address)
            bob.add_peer(alice.local_address)
            bob.add_peer(carol.local_address)
            carol.add_peer(bob.local_address)

            await alice.broadcast("relayed")
            assert await wait_for(
                lambda: log.payloads() == ["relayed"], timeout=20.0
            ), "carol never received alice's message via bob"
            for node in (alice, bob, carol):
                await node.close()

        asyncio.run(scenario())


class _Intake:
    """A store over a filter of its own, fed the way a node's intake
    feeds it over the endpoint's: the filter takes each id, the store
    the bytes of a new one."""

    def __init__(self):
        self.seen = SeenFilter()
        self.store = MessageStore(self.seen)

    def add(self, sender, seq, data):
        if self.seen.add((sender, seq)):
            self.store.add(sender, seq, data)


class TestMessageStore:
    def test_frontier_tracks_contiguous_and_extras(self):
        intake = _Intake()
        store = intake.store
        intake.add("p", 1, b"a")
        intake.add("p", 2, b"b")
        intake.add("p", 4, b"d")
        assert store.frontiers() == {"p": (2, (4,))}
        intake.add("p", 3, b"c")
        assert store.frontiers() == {"p": (4, ())}
        # The store reads the shared filter; it keeps no coverage itself.
        intake.seen.add(("q", 1))
        assert store.frontiers() == {"p": (4, ()), "q": (1, ())}

    def test_duplicate_is_rejected_by_the_endpoint_and_stored_once(self):
        data = MessageCodec().encode(
            create_endpoint("p", NodeConfig(r=16, keys=(3, 4))).broadcast("x")
        )

        async def scenario():
            node = await create_node(
                "n", NodeConfig(r=16, keys=(0, 1)), transport=LocalAsyncBus().attach("n")
            )
            try:
                assert node._admit(data, "p") is True
                assert node._admit(data, "p") is False
                assert node.endpoint.stats.duplicates == 1
                assert len(node.store) == 1 and node.store.get("p", 1) == data
                assert node.store.frontiers() == {"p": (1, ())}
            finally:
                await node.close()

        asyncio.run(scenario())

    def test_a_full_body_admitted_twice_is_retained_once(self):
        """``retained_bytes`` counts the full bodies the store took from
        the wire: a second copy (a repair that crossed a retransmit) is
        turned away before the store and is not counted again."""
        data = MessageCodec().encode(
            create_endpoint("p", NodeConfig(r=16, keys=(3, 4))).broadcast("x")
        )

        async def scenario():
            node = await create_node(
                "n", NodeConfig(r=16, keys=(0, 1)), transport=LocalAsyncBus().attach("n")
            )
            try:
                node._admit(data, "p")
                node._admit(data, "p")
                assert node.codec_counters.retained_bytes == len(data)
            finally:
                await node.close()

        asyncio.run(scenario())

    def test_missing_for_serves_only_what_remote_lacks(self):
        intake = _Intake()
        for seq in range(1, 6):
            intake.add("p", seq, bytes([seq]))
        intake.add("q", 1, b"q1")
        remote = {"p": (3, (5,))}
        assert sorted(intake.store.missing_for(remote)) == [b"\x04", b"q1"]

    def test_a_covering_digest_is_owed_nothing_without_a_store_scan(self):
        """The up-to-date partner's digest — the common one with a digest
        per round — is answered from the O(senders) coverage alone."""
        intake = _Intake()
        store = intake.store
        for seq in (1, 2, 4):
            intake.add("p", seq, bytes([seq]))
        intake.add("q", 1, b"q1")

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
        monkeypatch.setattr(repair_module, "_STORE_LIMIT", 2)
        intake = _Intake()
        store = intake.store
        intake.add("p", 1, b"a")
        intake.add("p", 2, b"b")
        intake.add("p", 3, b"c")
        assert len(store) == 2
        assert ("p", 1) in intake.seen     # still known...
        assert store.get("p", 1) is None    # ...but no longer servable
        assert store.frontiers() == {"p": (3, ())}
        assert list(store.missing_for({"p": (1, ())})) == [b"b", b"c"]

    def test_invalid_limit_rejected(self):
        """The store's bound and a digest answer's are module constants
        (``_STORE_LIMIT``, ``_REPAIRS_PER_DIGEST``): naming one is a
        TypeError.  So is a store without the filter it reads."""
        with pytest.raises(TypeError):
            MessageStore(SeenFilter(), limit=0)
        with pytest.raises(TypeError):
            list(MessageStore(SeenFilter()).missing_for({}, limit=1))
        with pytest.raises(TypeError):
            MessageStore()

    def test_eviction_counted_and_unservable_request_logged_once(self, caplog, monkeypatch):
        monkeypatch.setattr(repair_module, "_STORE_LIMIT", 2)
        intake = _Intake()
        store = intake.store
        for seq in range(1, 5):
            intake.add("p", seq, bytes([seq]))
        assert store.stats.evictions == 2
        with caplog.at_level(logging.WARNING, logger="repro.net.repair"):
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

    def test_purged_sender_leaves_no_bytes_behind(self):
        """A purge frees the sender's bytes; its coverage stays in the
        filter (the node's digest leaves departed senders out)."""
        intake = _Intake()
        store = intake.store
        for seq in (1, 2, 4):
            intake.add("p", seq, bytes([seq]))
        intake.add("q", 1, b"q1")
        assert store.purge_sender("p") == 3
        assert len(store) == 1 and store.get("p", 1) is None
        assert store.frontiers() == {"p": (2, (4,)), "q": (1, ())}
        assert list(store.missing_for({})) == [b"q1"]
        assert store.stats.unservable_requests == 0

    def test_restored_frontiers_are_known_but_marked_evicted(self):
        adopted = {"p": (5, (8,)), "q": (2, ())}
        intake = _Intake()
        store = intake.store
        intake.seen.restore(adopted)
        store.mark_evicted(adopted)
        assert store.frontiers() == adopted
        assert len(store) == 0
        # A digest reaching into the recovered range cannot be served.
        assert list(store.missing_for({"p": (7, ())})) == []
        assert store.stats.unservable_requests == 1
        list(store.missing_for({"p": (8, ()), "q": (2, ())}))
        assert store.stats.unservable_requests == 1
        # Own WAL-journalled bytes can be re-stocked inside the range.
        store.restore_message("q", 2, b"q2")
        assert list(store.missing_for({"p": (8, ())})) == [b"q2"]
        with pytest.raises(ConfigurationError):
            store.restore_message("r", 1, b"r1")

    def test_a_restart_serves_its_restocked_broadcasts_without_a_warning(
        self, tmp_path, caplog
    ):
        """Every own broadcast still in the WAL is re-stocked, so a
        digest reaching into them is served — not counted (and warned
        about) as reaching into evicted messages."""
        config = NodeConfig(r=16, k=2, data_dir=str(tmp_path))

        async def scenario():
            node = await create_node("n", config, transport=LocalAsyncBus().attach("n"))
            for index in range(10):
                await node.broadcast(index)
            await node.close()
            node = await create_node("n", config, transport=LocalAsyncBus().attach("n"))
            try:
                assert sorted(node.recovered.own_messages) == list(range(1, 11))
                assert len(list(node.store.missing_for({"n": (5, ())}))) == 5
                assert node.store.stats.unservable_requests == 0
            finally:
                await node.close()

        with caplog.at_level(logging.WARNING, logger="repro.net.repair"):
            asyncio.run(scenario())
        assert not [r for r in caplog.records if "cannot serve" in r.getMessage()]


class TestNodeSurface:
    def test_stats_and_store_exposed(self):
        async def scenario():
            config = NodeConfig(r=32, k=2)
            a = await create_node("a", config)
            log = Deliveries()
            b = await create_node("b", config, on_delivery=log.append)
            a.add_peer(b.local_address)
            b.add_peer(a.local_address)
            await a.broadcast("x")
            assert await wait_for(lambda: log.payloads() == ["x"])
            assert a.transport_stats(b.local_address).data_sent == 1
            assert a.session.all_stats()[b.local_address].data_sent == 1
            assert b.endpoint.has_seen(("a", 1))
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
            log = Deliveries()
            bob = await create_node("bob", config, on_delivery=log.append)
            alice.add_peer(bob.local_address)
            bob.add_peer(alice.local_address)
            await alice.broadcast("hello")
            assert await wait_for(lambda: log.payloads() == ["hello"])
            assert bob.local_address in alice.session.all_stats()

            alice.remove_peer(bob.local_address)
            assert bob.local_address not in alice.session.all_stats()
            assert alice.session.unacked_count(bob.local_address) == 0
            await bob.close()
            # With bob's entry purged, his silence must never trip the
            # failure detector on a peer alice no longer talks to.
            await asyncio.sleep(0.7)
            assert not alice.session.is_quarantined(bob.local_address)
            assert alice.session.quarantines == 0
            # Removing an unknown address stays a no-op.
            alice.remove_peer(("127.0.0.1", 1))
            await alice.close()

        asyncio.run(scenario())

    def test_heal_scheduled_before_remove_peer_leaves_no_session_state(self):
        """A resync (or a liveness resume) queues its digest at once, and
        a digest asked for after ``remove_peer`` (a digest round's
        ``Repair.heal``, an unpaced request) must not re-create the
        session state it just purged."""

        async def scenario():
            config = NodeConfig(r=32, k=2)
            alice = await create_node("alice", config)
            bob = await create_node("bob", config)
            alice.add_peer(bob.local_address)
            alice.repair.request(bob.local_address)
            alice.remove_peer(bob.local_address)
            alice.repair.request(bob.local_address, paced=False)
            await alice.repair.heal(bob.local_address)
            assert bob.local_address not in alice.session.all_stats()
            # A peer that is still one gets its digest.
            alice.add_peer(bob.local_address)
            await alice.repair.heal(bob.local_address)
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
            log = Deliveries()
            bob = await create_node("bob", config, on_delivery=log.append)
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
                lambda: log.payloads() == ["blocked"], timeout=20.0
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


def count_tasks(monkeypatch) -> list:
    """Record every task the running loop creates from here on."""
    loop = asyncio.get_running_loop()
    created, create_task = [], loop.create_task

    def counting(coro, **kwargs):
        created.append(coro.__qualname__)
        return create_task(coro, **kwargs)

    monkeypatch.setattr(loop, "create_task", counting)
    return created


class _SendNowTransport:
    """A transport with the batched transports' synchronous ``send_now``
    (1 ms per hop, a loop callback, no task): a session over it posts
    no task per datagram, so every task a node creates is its own."""

    def __init__(self, receivers: dict, address: str):
        self.receivers, self.address = receivers, address

    def send_now(self, destination, data):
        asyncio.get_running_loop().call_later(
            0.001, self.receivers[destination], data, self.address
        )

    async def send(self, destination, data):
        self.send_now(destination, data)

    def set_receiver(self, callback):
        self.receivers[self.address] = callback

    async def close(self):
        self.receivers.pop(self.address, None)


async def send_now_mesh(size: int) -> list:
    """``size`` peered nodes ``n0…`` over :class:`_SendNowTransport`."""
    receivers, names = {}, [f"n{index}" for index in range(size)]
    nodes = [
        await create_node(name, NodeConfig(), transport=_SendNowTransport(receivers, name))
        for name in names
    ]
    for node in nodes:
        for name in names:
            if name != node.node_id:
                node.add_peer(name)
    return nodes


class TestSendContract:
    """A mesh broadcast queues its frames in the caller's turn: no task
    per link, and only a link at ``_SEND_BUFFER`` makes it wait."""

    def test_a_broadcast_with_room_on_every_link_creates_no_task(self, monkeypatch):
        async def scenario():
            group = await Group.start(4, NodeConfig(), 1, 0.0, ConstantDelayModel(1.0))
            async with group:
                await group.burst(5)
                await group.settle()
                node, peers = group.nodes[0], ["n1", "n2", "n3"]
                unacked = [node.session.unacked_count(peer) for peer in peers]
                created = count_tasks(monkeypatch)
                await node.broadcast("x")
                monkeypatch.undo()
                # Still queued (the flush timer is 1 ms away), one frame a link.
                queued = [
                    node.session.unacked_count(peer) - before
                    for peer, before in zip(peers, unacked)
                ]
                return created, queued, node.session.state_sizes()["outbox"]

        assert run_virtual(scenario()) == ([], [1, 1, 1], 3)

    def test_digests_go_without_a_task_and_a_rounds_digest_flushes_at_once(self, monkeypatch):
        """``Repair.request`` queues its digest in the caller's turn: it
        rides the outbox with the ack of the batch being read.  A digest
        round's (``Repair.heal``) flushes at once: an ack built after the
        digest must not reach the answerer first (it would unmask frames
        the digest lacks, and the answer would send them again)."""

        async def scenario():
            nodes = await send_now_mesh(2)
            await nodes[0].broadcast("x")  # a frame queued on the link
            stats = nodes[0].session.stats_for("n1")
            created = count_tasks(monkeypatch)
            assert nodes[0].repair.request("n1", paced=False)
            queued = (stats.digests_sent, stats.datagrams_sent)
            await nodes[0].repair.heal("n1")
            monkeypatch.undo()
            counts = (created, queued, (stats.digests_sent, stats.datagrams_sent))
            for node in nodes:
                await node.close()
            return counts

        assert run_virtual(scenario()) == ([], (1, 0), (2, 1))

    def test_a_full_link_holds_back_no_other(self, monkeypatch):
        """n2 drops n0's data unacked until its gate opens: n0's third
        broadcast reaches n1 and n3 at once and waits only for n2's
        link, where it leaves as link seq 3 once an ack frees space."""
        monkeypatch.setattr(session_module, "_SEND_BUFFER", 2)

        async def scenario():
            group = await Group.start(4, NodeConfig(), 1, 0.0, ConstantDelayModel(1.0))
            async with group:
                node, gated = group.nodes[0], group.nodes[2]
                gate = [False]
                gated.session._data_gate = lambda: gate[0]
                await node.broadcast("a")
                await node.broadcast("b")
                third = asyncio.ensure_future(node.broadcast("c"))
                await asyncio.sleep(0.05)
                reached = [len(group.order[name]) for name in ("n1", "n2", "n3")]
                waiting = (third.done(), node.session.unacked_count("n2"))
                gate[0] = True
                await third
                await group.settle()
                return (reached, waiting, node.session.link_states()["n2"][0],
                        group.order["n2"])

        reached, waiting, next_seq, order = run_virtual(scenario())
        assert reached == [3, 0, 3]
        assert waiting == (False, 2)
        assert next_seq == 4
        assert order == [("n0", 1), ("n0", 2), ("n0", 3)]

    def test_a_saturated_closed_loop_runs_no_session_task(self, monkeypatch):
        """Four nodes broadcasting back to back over a ``send_now``
        transport: no node creates a task and no session holds one."""

        async def scenario():
            nodes, peak = await send_now_mesh(4), [0]

            async def client(node):
                for index in range(150):
                    await node.broadcast(index)
                    peak[0] = max(peak[0], node.state_sizes()["session_tasks"])

            clients = [asyncio.ensure_future(client(node)) for node in nodes]
            created = count_tasks(monkeypatch)
            await asyncio.gather(*clients)
            monkeypatch.undo()
            assert await wait_for(
                lambda: all(
                    node.endpoint.stats.sent + node.endpoint.stats.delivered == 600
                    for node in nodes
                )
            )
            for node in nodes:
                await node.close()
            return created, peak[0]

        assert run_virtual(scenario()) == ([], 0)


class TestHostileDatagrams:
    """Nothing a datagram contains may raise out of the receive upcall
    (it would abort the rest of that wakeup's batch) or be half-taken:
    what is rejected is counted and leaves no state behind."""

    R = 16

    async def _node_on_a_bus(self, on_delivery=None, **config):
        # In process: a mutated member address must never reach a socket.
        bus = LocalAsyncBus()
        bus.attach("up").set_receiver(lambda data, addr: None)
        node = await create_node(
            "rx", NodeConfig(r=self.R, k=2, **config), transport=bus.attach("rx"),
            on_delivery=on_delivery,
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
            log = Deliveries()
            node = await self._node_on_a_bus(on_delivery=log.append)
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
            assert log.payloads() == ["p"]
            assert node.store.frontiers() == {"origin": (1, ())}
            assert node.store.get("origin", 1) == payloads[-1]
            assert node.endpoint.seen_frontiers() == {"origin": (1, ())}
            assert set(node.store.references) == {"origin"}
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
        delta = messages.encode_delta(second, first.timestamp.vector)
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
                RelayFrame(hops=1, sample=(member,), payload=full),
                RelayFrame(hops=0, payload=delta),
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
