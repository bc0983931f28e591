"""A node remembers each fact once and nothing per message.

* Bounded by construction: ``state_sizes()`` — the census of every
  table a node holds — is flat between N and 3N broadcasts per sender,
  with and without a journal; ``deliveries`` is a recent window while
  the endpoint's counters stay exact; the warn-once sets of a churning
  group age out with the eviction records they hang off.
* One way in: journal recovery and the join state transfer adopt
  coverage through ``ReliableCausalNode.adopt_coverage``, so the seen
  filter, the store and the delivered coverage cannot disagree; a
  snapshot and WAL written by the tree before the coverage types were
  unified load unchanged (the snapshot's delta-reference record, which
  nothing reads any more, included) and are reproduced byte for byte
  less that record.
"""

import asyncio
import logging
import os

import pytest

import repro.net.membership as membership_module
import repro.net.node as node_module
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
from repro.net import LocalAsyncBus
from repro.net.journal import NodeJournal
from repro.net.node import _EVICTION_WINDOW, _RECENT_DELIVERIES
from repro.sim.group import wait_for
from repro.sim.network import ConstantDelayModel
from repro.sim.vtime import run_virtual


def exact_deliveries(node):
    return node.endpoint.stats.sent + node.endpoint.stats.delivered


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
    per_sender = 600  # 3 senders: past the delivery window and the store
    names = ("a", "b", "c")
    monkeypatch.setattr(node_module, "_STORE_LIMIT", 128)

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
            return {name: node.state_sizes() for name, node in nodes.items()}

        try:
            early = await run_to(per_sender)
            late = await run_to(3 * per_sender)
        finally:
            await asyncio.gather(*(node.close() for node in nodes.values()))
        for name in names:
            # Settled: no delta still waits for its reference.
            assert early[name]["parked_deltas"] == late[name]["parked_deltas"] == 0
            assert early[name]["recent_deliveries"] == _RECENT_DELIVERIES
            assert early[name]["store_messages"] == 128
            assert late[name]["journal_senders"] == (3 if journalled else 0)
            before, after = sum(early[name].values()), sum(late[name].values())
            assert abs(after - before) <= 0.05 * before, (early[name], late[name])

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# (b) deliveries is a window; the counters are the total
# ----------------------------------------------------------------------


def test_deliveries_is_the_most_recent_window_and_counts_stay_exact():
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
        each = _RECENT_DELIVERIES * 3 // 4  # the two together overrun it
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
        window = history[-_RECENT_DELIVERIES:]
        assert a.deliveries == window
        assert a.delivered_payloads() == [r.message.payload for r in window]
        remote = a.delivered_payloads(include_local=False)
        assert remote == [r.message.payload for r in window if not r.local]
        assert 0 < len(remote) < each  # filtered within the window

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


def coverage_views(node):
    return (
        node.endpoint.seen_frontiers(),
        node.store.frontiers(),
        node.delivered_frontiers(),
    )


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
                assert coverage_views(node) == (RECOVERED_COVERAGE,) * 3
                # The whole adopted range is marked evicted: a digest
                # reaching into it is counted as unservable.
                before = node.store.stats.unservable_requests
                list(node.store.missing_for({"b": (1, ())}))
                assert node.store.stats.unservable_requests == before + 1
            assert joiner.endpoint.clock.snapshot() == (2, 2, 3, 3, 2, 2, 0, 0)
            # Together or not at all: a second transfer is refused
            # before any of the three records is touched.
            with pytest.raises(ConfigurationError):
                joiner.adopt_coverage({"z": (9, ())})
            assert coverage_views(joiner) == (RECOVERED_COVERAGE,) * 3
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
            assert coverage_views(node) == ({}, {}, {})
        finally:
            await node.close()

    asyncio.run(scenario())


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
    """``_resync_last`` used to take a mark before ``_heal_peer``
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
                node._request_resync(f"stranger{index}")
                await asyncio.sleep(0.001)
            assert node.repair_stats.resync_fallbacks == 300
            assert set(node._resync_last) <= set(peers)
            known = set(node.session.all_stats())
            assert known <= set(peers), known  # no session state for a stranger
            # One digest per partner per 50 ms, however many ask: 0.3 s
            # is six full intervals and the start of a seventh.
            assert 0 < node.transport_stats().digests_sent <= 7 * len(peers)
            for peer in peers:
                node._request_resync(peer)
            # A mark lives as long as the interval it enforces, whether
            # or not remove_peer() ever runs for its address.
            await asyncio.sleep(0.06)
            assert node._request_resync(peers[0])
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
