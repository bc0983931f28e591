"""A node remembers each fact once and nothing per message.

* Bounded by construction: ``state_sizes()`` — the census of every
  table a node holds — and the bytes the node retains are flat between
  N and 3N broadcasts per sender, with and without a journal; a
  delivered record goes to ``on_delivery`` and stays nowhere while the
  endpoint's counters stay exact; the warn-once sets of a churning
  group age out with the eviction records they hang off.
* One record of what a node has seen: the endpoint's ``SeenFilter`` is
  the only one a node holds, with or without a journal — the store
  reads it, the delivered coverage is it less the pending ids, and the
  journal's replay filter does not outlive the replay.
* One way in: journal recovery and the join state transfer adopt
  coverage through ``ReliableCausalNode.adopt_coverage``, one restore
  of that filter; a snapshot and WAL written by the tree before the
  coverage types were unified load unchanged (the snapshot's
  delta-reference record, which nothing reads any more, included) and
  are reproduced byte for byte less that record.
"""

import asyncio
import gc
import logging
import os
import tracemalloc

import pytest

import repro.net.membership as membership_module
import repro.net.repair as repair_module
from repro.api import (
    LivenessPolicy,
    MembershipConfig,
    NodeConfig,
    RetransmitPolicy,
    create_endpoint,
    create_node,
)
from repro.core.codec import JoinAckFrame, MemberRecord, MessageCodec
from repro.core.errors import ConfigurationError
from repro.core.keyspace import PerfectKeyAssigner
from repro.core.pending import SeenFilter
from repro.net import LocalAsyncBus
from repro.net.journal import NodeJournal
from repro.net.node import _EVICTION_WINDOW
from repro.sim.group import Group, wait_for
from repro.sim.network import ConstantDelayModel
from repro.sim.vtime import run_virtual
from tests.recording import exact_deliveries

# What one node of the scenario below may retain (R = 24, 128 stored
# messages): its store, coverage and sessions, nothing per delivery.
_RETAINED_BYTES_PER_NODE = 256 * 1024


def top_growers(late, early, count=8):
    """The ``count`` allocation sites whose live bytes grew most from
    the ``early`` tracemalloc snapshot to the ``late`` one."""
    return "\n".join(
        f"{stat.size_diff:+} B in {stat.count_diff:+} blocks at {stat.traceback[0]}"
        for stat in late.compare_to(early, "lineno")[:count]
    )


async def mesh_on_bus(names, bus, **config):
    nodes = {}
    for index, name in enumerate(names):
        node_config = NodeConfig(
            r=24, keys=tuple(range(3 * index, 3 * index + 3)), **config
        )
        if node_config.data_dir is not None:
            node_config = node_config.replace(
                data_dir=os.path.join(node_config.data_dir, name)
            )
        nodes[name] = await create_node(
            name, node_config, transport=bus.attach(name)
        )
    for name, node in nodes.items():
        for other in names:
            if other != name:
                node.add_peer(other)
    return nodes


# ----------------------------------------------------------------------
# (a) nothing per message, forever
# ----------------------------------------------------------------------


@pytest.mark.parametrize("journalled", [False, True], ids=["memory", "journal"])
def test_state_is_flat_between_n_and_3n_broadcasts(journalled, tmp_path, monkeypatch):
    per_sender = 600  # 3 senders: well past the store
    names = ("a", "b", "c")
    monkeypatch.setattr(repair_module, "_STORE_LIMIT", 128)

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        nodes = await mesh_on_bus(
            names, bus, anti_entropy_interval=0.2,
            data_dir=str(tmp_path) if journalled else None,
        )

        async def run_to(total):
            async def client(node):
                while node.endpoint.stats.sent < total:
                    await node.broadcast("x")

            await asyncio.gather(*(client(node) for node in nodes.values()))
            assert await wait_for(lambda: all(
                exact_deliveries(node) == total * len(names)
                and node.state_sizes()["session_unacked"] == 0
                for node in nodes.values()
            ), timeout=60.0), {name: exact_deliveries(node) for name, node in nodes.items()}
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] / len(names)
            # Taking a snapshot adds next to nothing to the traced total.
            snapshot = tracemalloc.take_snapshot()
            return {name: node.state_sizes() for name, node in nodes.items()}, retained, snapshot

        # Traced from here on: what the nodes allocate while they run
        # and still hold at each reading.  The trace ring is a window
        # (each journal snapshot adds an event); it is counted full.
        # A full collection first also empties the interpreter's free
        # lists: objects the first phase built from memory freed before
        # the trace started would go uncounted, lowering the early
        # reading by however much earlier tests left on those lists.
        gc.collect()
        tracemalloc.start()
        for node in nodes.values():
            for index in range(node.trace.capacity):
                node.trace.emit("journal_snapshot", ts=float(index), number=index)
        try:
            early, early_bytes, early_snapshot = await run_to(per_sender)
            late, late_bytes, late_snapshot = await run_to(3 * per_sender)
        finally:
            tracemalloc.stop()
            await asyncio.gather(*(node.close() for node in nodes.values()))
        assert early_bytes <= _RETAINED_BYTES_PER_NODE, early_bytes
        assert abs(late_bytes - early_bytes) <= 0.05 * early_bytes, (
            early_bytes, late_bytes, top_growers(late_snapshot, early_snapshot)
        )
        for name in names:
            # Settled: no delta still waits for its reference.
            assert early[name]["parked_deltas"] == late[name]["parked_deltas"] == 0
            assert early[name]["store_messages"] == 128
            assert late[name]["seen_senders"] == 3
            before, after = sum(early[name].values()), sum(late[name].values())
            assert abs(after - before) <= 0.05 * before, (early[name], late[name])

    run_virtual(scenario())


def test_link_state_drains_after_a_quarantine_with_frames_in_flight():
    """A quarantine drops the frames queued for a peer.  Their link seqs
    used to stay holes at the receiver for good: every later seq sat
    out of order there, and the sender kept the frames above the hole
    unacked until each was dropped after its retries."""

    async def scenario(quarantine):
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        nodes = await mesh_on_bus(("a", "b"), bus, anti_entropy_interval=0.1)
        a, b = nodes["a"], nodes["b"]
        try:
            for index in range(150):
                await a.broadcast(index)
                if index == 20 and quarantine:
                    assert a.session.quarantine("b") >= 1  # queued, unsent
                    a.session.resume("b")
                await asyncio.sleep(0.002)
            assert await wait_for(lambda: exact_deliveries(b) == 150, timeout=30.0)
            await asyncio.sleep(1.0)
            return {
                (name, table): node.state_sizes()[f"session_{table}"]
                for name, node in nodes.items()
                for table in ("out_of_order", "unacked")
            }
        finally:
            await asyncio.gather(*(node.close() for node in nodes.values()))

    assert run_virtual(scenario(quarantine=True)) == run_virtual(scenario(quarantine=False))


def live_seen_filters():
    gc.collect()
    return sum(isinstance(obj, SeenFilter) for obj in gc.get_objects())


@pytest.mark.parametrize("journalled", [False, True], ids=["memory", "journal"])
def test_a_node_holds_one_seen_filter(journalled, tmp_path):
    """The census of coverage records: one ``SeenFilter`` per node, the
    endpoint's.  Journalled nodes are counted after a restart, so the
    filter the replay folds the WAL into is counted too if it lingers."""
    names = ("a", "b", "c")

    async def scenario():
        before = live_seen_filters()
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        config = dict(data_dir=str(tmp_path) if journalled else None)
        nodes = await mesh_on_bus(names, bus, **config)

        async def burst(node):
            for index in range(5):
                await node.broadcast(index)

        try:
            await asyncio.gather(*(burst(node) for node in nodes.values()))
            assert await wait_for(lambda: all(
                exact_deliveries(node) == 5 * len(names) for node in nodes.values()
            ), timeout=30.0)
            if journalled:
                await asyncio.gather(*(node.close() for node in nodes.values()))
                nodes = await mesh_on_bus(names, LocalAsyncBus(), **config)
                assert all(node.recovered is not None for node in nodes.values())
            return (live_seen_filters() - before) / len(names)
        finally:
            await asyncio.gather(*(node.close() for node in nodes.values()))

    assert asyncio.run(scenario()) == 1


# ----------------------------------------------------------------------
# (b) every record goes to on_delivery; the counters are the total
# ----------------------------------------------------------------------


def test_on_delivery_sees_every_record_and_counts_stay_exact():
    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        history = []
        a = await create_node(
            "a", NodeConfig(r=16, keys=(0, 1)), transport=bus.attach("a"),
            on_delivery=history.append,
        )
        b = await create_node("b", NodeConfig(r=16, keys=(2, 3)),
                              transport=bus.attach("b"))
        a.add_peer("b")
        b.add_peer("a")
        each = 768
        try:
            for i in range(each):
                await asyncio.gather(a.broadcast(("a", i)), b.broadcast(("b", i)))
            assert await wait_for(lambda: exact_deliveries(a) == 2 * each, timeout=60.0)
        finally:
            await a.close()
            await b.close()
        assert a.endpoint.stats.sent == each
        assert a.endpoint.stats.delivered == each
        assert len(history) == 2 * each
        assert [r.message.payload for r in history if r.local] == [("a", i) for i in range(each)]
        assert [r.message.payload for r in history if not r.local] == [("b", i) for i in range(each)]

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (e) one adopt path, and the parent's journal loads unchanged
# ----------------------------------------------------------------------

# Written by the tree before the coverage types were unified (its own
# _Frontier coverage), by the operations of write_reference_journal()
# below — and with the "delta_refs" record that trees before the one
# delta rule kept; a restart still loads it and ignores the record.
PARENT_SNAPSHOT = (
    '{"node":"n","r":8,"k":[0,1],"keys_now":[0,1],"view":null,'
    '"vector":[1,1,2,2,1,1,0,0],"send_seq":1,'
    '"delivered":{"n":[1,[]],"b":[1,[3]],"c":[0,[2]]},'
    '"links":[[["127.0.0.1",9000],{"tx":1025,"rx":2,"ooo":[4]}]],'
    '"delta_refs":{"b":[1,[0,0,1,1,0,0,0,0],[2,3]]},"detector":[3,1]}'
)
PARENT_WAL = (
    '{"t":"open","node":"n","r":8,"k":[0,1]}\n'
    '{"t":"dlv","s":"b","q":2,"k":[2,3]}\n'
    '{"t":"send","q":2,"d":"dHdv"}\n'
    '{"t":"dlv","s":"c","q":1,"k":[4,5]}\n'
)
RECOVERED_COVERAGE = {"n": (2, ()), "b": (3, ()), "c": (2, ())}
# What write_reference_journal() writes now.
SNAPSHOT = PARENT_SNAPSHOT.replace(',"delta_refs":{"b":[1,[0,0,1,1,0,0,0,0],[2,3]]}', "")


def write_reference_journal(directory):
    journal = NodeJournal(directory, "n", r=8, own_keys=(0, 1),
                          snapshot_interval=1000)
    assert journal.open() is None
    journal.record_send(1, b"one")
    journal.record_delivery("b", 1, (2, 3))
    journal.record_delivery("b", 3, (2, 3), alert=True)  # 2 is missing
    journal.record_delivery("c", 2, (4, 5))  # first seen out of order
    journal.ensure_lease(("127.0.0.1", 9000), 1)
    journal.write_snapshot(
        [1, 1, 2, 2, 1, 1, 0, 0], 1,
        {"n": (1, ()), "b": (1, (3,)), "c": (0, (2,))},
        {("127.0.0.1", 9000): (3, 2, (4,))},
        detector=(3, 1),
    )
    journal.record_delivery("b", 2, (2, 3))  # fills the gap
    journal.record_send(2, b"two")
    journal.record_delivery("c", 1, (4, 5))
    journal.close()


def read(directory, name):
    with open(os.path.join(directory, name), encoding="utf-8") as handle:
        return handle.read()


def test_journal_files_are_byte_identical_to_the_parents(tmp_path):
    write_reference_journal(str(tmp_path))
    assert SNAPSHOT != PARENT_SNAPSHOT
    assert read(tmp_path, "snapshot.json") == SNAPSHOT
    assert read(tmp_path, "wal.log") == PARENT_WAL


def coverage_view(node):
    return node.endpoint.seen_frontiers()


def test_restart_and_join_transfer_adopt_identical_coverage(tmp_path):
    (tmp_path / "n").mkdir()
    (tmp_path / "n" / "snapshot.json").write_text(PARENT_SNAPSHOT, encoding="utf-8")
    (tmp_path / "n" / "wal.log").write_text(PARENT_WAL, encoding="utf-8")

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        # Route one: a restart over the parent-written data_dir.
        restarted = await create_node(
            "n", NodeConfig(r=8, keys=(0, 1), data_dir=str(tmp_path / "n")),
            transport=bus.attach("n"),
        )
        # Route two: a JOIN_ACK carrying the same frontiers.
        joiner = await create_node(
            "j", NodeConfig(r=8, k=2, membership=MembershipConfig()), transport=bus.attach("j"),
        )
        members = (
            MemberRecord("n", "n", (0, 1)),
            MemberRecord("j", "j", (6, 7)),
        )
        joiner.membership._complete_join(JoinAckFrame(
            accepted=True, view_id=2, r=8, k=2, keys=(6, 7), members=members,
            frontiers=RECOVERED_COVERAGE, vector=(2, 2, 3, 3, 2, 2, 0, 0),
        ))
        try:
            recovered = restarted.recovered
            assert recovered.vector == (2, 2, 3, 3, 2, 2, 0, 0)
            assert recovered.send_seq == 2
            assert recovered.delivered == RECOVERED_COVERAGE
            assert recovered.own_messages == {2: b"two"}
            assert (recovered.detector_checks, recovered.detector_alerts) == (5, 1)
            for node in (restarted, joiner):
                assert coverage_view(node) == RECOVERED_COVERAGE
                assert node.delivered_frontiers() == RECOVERED_COVERAGE
                # The whole adopted range is marked evicted: a digest
                # reaching into it is counted as unservable.
                before = node.store.stats.unservable_requests
                list(node.store.missing_for({"b": (1, ())}))
                assert node.store.stats.unservable_requests == before + 1
            assert joiner.endpoint.clock.snapshot() == (2, 2, 3, 3, 2, 2, 0, 0)
            # A second transfer is refused and leaves the record alone.
            with pytest.raises(ConfigurationError):
                joiner.adopt_coverage({"z": (9, ())})
            assert coverage_view(joiner) == RECOVERED_COVERAGE
        finally:
            await restarted.close()
            await joiner.close()

    asyncio.run(scenario())


def test_malformed_coverage_is_adopted_nowhere():
    async def scenario():
        bus = LocalAsyncBus()
        node = await create_node("n", NodeConfig(r=8, k=2), transport=bus.attach("n"))
        try:
            with pytest.raises(ConfigurationError):
                node.adopt_coverage({"a": (4, ()), "b": (3, (2,))})
            assert coverage_view(node) == {}
            # Nor marked evicted: a digest below it is no unservable request.
            assert list(node.store.missing_for({"a": (0, ())})) == []
            assert node.store.stats.unservable_requests == 0
        finally:
            await node.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (f) delivered coverage is the seen filter less the pending ids
# ----------------------------------------------------------------------


def test_delivered_coverage_leaves_out_every_pending_id():
    codec = MessageCodec()
    p = create_endpoint("p", NodeConfig(r=16, keys=(2, 3)))
    q = create_endpoint("q", NodeConfig(r=16, keys=(4, 5)))
    p1, p2, p3 = (p.broadcast(f"p{seq}") for seq in (1, 2, 3))
    q1 = q.broadcast("q1")
    q.on_receive(p1)
    q.on_receive(p2)
    q2, q3 = q.broadcast("q2"), q.broadcast("q3")  # both need p2

    async def scenario():
        node = await create_node(
            "n", NodeConfig(r=16, keys=(0, 1)), transport=LocalAsyncBus().attach("n")
        )
        try:
            for message in (p1, p3, q1, q2, q3):
                node._admit(codec.encode(message), "up")
            assert [m.message_id for m in node.endpoint.pending_messages()] == [
                ("p", 3), ("q", 2), ("q", 3)
            ]
            seen = {"p": (1, (3,)), "q": (3, ())}
            assert node.endpoint.seen_frontiers() == seen
            # p3 pends in the tail; q2 and q3 pend below q's watermark.
            assert node.delivered_frontiers() == {"p": (1, ()), "q": (1, ())}
            node._admit(codec.encode(p2), "up")  # releases all three
            assert node.endpoint.pending_count == 0
            assert node.delivered_frontiers() == node.endpoint.seen_frontiers() == {
                "p": (3, ()), "q": (3, ())
            }
        finally:
            await node.close()

    asyncio.run(scenario())


def test_a_joiner_adopts_none_of_its_coordinators_pending_messages():
    """The coordinator holds n2's first broadcast pending (n1's, which
    it needs, is held back on the n1 → n0 link) while n3 joins: the
    transfer leaves it out, and n3 receives it and everything else
    later, in causal order."""
    config = NodeConfig(
        r=16, k=2, anti_entropy_interval=0.2,
        retransmit=RetransmitPolicy(initial_timeout=0.05),
        membership=MembershipConfig(seed_peers=("n0",), join_timeout=0.5),
    )

    def config_of(name):
        return config if name != "n0" else config.replace(
            membership=MembershipConfig(join_timeout=0.5)
        )

    async def scenario():
        group = await Group.start(
            0, config_of, 3, 0.0, ConstantDelayModel(1.0), judged=True, capacity=4,
        )
        async with group:
            n0 = await group.join("n0", assigner=PerfectKeyAssigner(16, 2))
            n1, n2 = await group.join("n1"), await group.join("n2")
            held = []
            send = n1.transport.send

            async def hold_to_n0(destination, data):
                if destination == "n0":
                    held.append(data)
                else:
                    await send(destination, data)

            n1.transport.send = hold_to_n0
            await n1.broadcast("first")
            assert await wait_for(lambda: n2.endpoint.has_seen(("n1", 1)))
            await n2.broadcast("second")
            assert await wait_for(lambda: n0.endpoint.has_seen(("n2", 1)))
            assert [m.message_id for m in n0.endpoint.pending_messages()] == [("n2", 1)]
            assert "n2" not in n0.delivered_frontiers()

            n3 = await group.join("n3")
            assert "n2" not in n3.delivered_frontiers()
            assert not n3.endpoint.has_seen(("n2", 1))
            n1.transport.send = send
            await group.settle(timeout=30.0)
            assert held and group.counts()["violations"] == 0
            assert group.order["n3"] == [("n1", 1), ("n2", 1)]

    run_virtual(scenario())


# ----------------------------------------------------------------------
# warn-once sets that used to only grow
# ----------------------------------------------------------------------


def test_stale_marks_age_out_with_the_eviction_records(caplog):
    codec = MessageCodec()

    def message_from(sender):
        endpoint = create_endpoint(sender, NodeConfig(r=16, keys=(1, 2, 3)))
        return codec.encode(endpoint.broadcast("late"))

    def warnings(sender):
        return [
            record for record in caplog.records
            if "departed sender" in record.getMessage()
            and repr(sender) in record.getMessage()
        ]

    async def scenario():
        bus = LocalAsyncBus()
        # A bootstrapped group of one: every other sender is departed.
        node = await create_node(
            "n", NodeConfig(r=16, k=2, membership=MembershipConfig()), transport=bus.attach("n"),
        )
        node.add_peer("live")
        try:
            for i in range(300):
                sender, address = f"s{i}", f"addr{i}"
                node.add_peer(address)
                node.evict_peer(address, sender)
                data = message_from(sender)
                node._handle_wire_message(data, address)  # from the corpse
                node._handle_wire_message(data, "live")  # relayed by a peer
            sizes = node.state_sizes()
            assert sizes["evicted_peers"] == _EVICTION_WINDOW
            assert sizes["stale_warned"] == _EVICTION_WINDOW
            assert sizes["stale_senders_warned"] == _EVICTION_WINDOW
            assert node.stale_frames == 600
            # Warn-once while the record lives...
            node._handle_wire_message(message_from("s299"), "live")
            assert len(warnings("s299")) == 1
            # ...and again once the sender was re-admitted and left again.
            node.add_peer("addr299")
            assert node.state_sizes()["stale_senders_warned"] == _EVICTION_WINDOW - 1
            node.evict_peer("addr299", "s299")
            node._handle_wire_message(message_from("s299"), "live")
            assert len(warnings("s299")) == 2
        finally:
            await node.close()

    with caplog.at_level(logging.WARNING, logger="repro.net.node"):
        asyncio.run(scenario())


def test_resync_marks_name_only_digested_addresses_and_expire():
    """``Repair._resync_last`` used to take a mark before ``Repair.heal``
    decided the address could not be digested; for an address that was
    never a peer nothing ever removed it, and the census did not list
    the table."""

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        node = await create_node(
            "n", NodeConfig(r=16, k=2, anti_entropy_interval=0),
            transport=bus.attach("n"),
        )
        peers = [f"p{index}" for index in range(8)]
        for peer in peers:
            node.add_peer(peer)
        try:
            for index in range(300):  # 0.3 virtual seconds of strangers
                node.repair.request(f"stranger{index}")
                await asyncio.sleep(0.001)
            assert node.repair.stats.resync_fallbacks == 300
            assert set(node.repair._resync_last) <= set(peers)
            known = set(node.session.all_stats())
            assert known <= set(peers), known  # no session state for a stranger
            # One digest per partner per 50 ms, however many ask: 0.3 s
            # is six full intervals and the start of a seventh.
            assert 0 < node.transport_stats().digests_sent <= 7 * len(peers)
            for peer in peers:
                node.repair.request(peer)
            # A mark lives as long as the interval it enforces, whether
            # or not remove_peer() ever runs for its address.
            await asyncio.sleep(0.06)
            assert node.repair.request(peers[0])
            assert node.state_sizes()["resync_marks"] == 1
        finally:
            await node.close()

    run_virtual(scenario())


def test_leave_marks_are_cleared_by_every_install(monkeypatch):
    monkeypatch.setattr(membership_module, "_ANNOUNCE_INTERVAL", 0.1)

    def config(seed_peers=()):
        return NodeConfig(
            r=32, k=2, anti_entropy_interval=0.1,
            retransmit=RetransmitPolicy(initial_timeout=0.02),
            liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=5.0),
            membership=MembershipConfig(
                seed_peers=seed_peers, join_timeout=0.5, join_retries=4,
            ),
        )

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        a = await create_node("a", config(), transport=bus.attach("a"))
        membership = a.membership
        after_install = []
        install = membership._install

        def recording_install(view, persist):
            install(view, persist)
            after_install.append((len(view.members), membership.leave_noted_count))

        membership._install = recording_install

        async def join(name):
            return await create_node(
                name, config(seed_peers=("a",)), transport=bus.attach(name)
            )

        try:
            for _ in range(2):  # 1 -> 3 -> 1 -> 3 -> 1
                joiners = [await join("b"), await join("c")]
                assert len(membership.view.members) == 3
                for node in joiners:
                    await node.membership.leave()
                    await node.close()
                assert await wait_for(
                    lambda: membership.view.member_ids() == ("a",), timeout=60.0
                )
            assert membership.leaves == 4
            assert [size for size, _ in after_install] == [2, 3, 2, 1, 2, 3, 2, 1]
            assert all(noted == 0 for _, noted in after_install), after_install
            assert a.state_sizes()["leave_noted"] == 0
        finally:
            await a.close()

    asyncio.run(scenario())
