"""Durability tests: WAL replay, snapshots, and node crash-recovery.

A "crash" here is closing a node without any shutdown ceremony and
rebuilding it from the same data directory — the journal's crash-only
design means that IS the only persistence path.
"""

import asyncio
import json
import os

import pytest

import repro.net.journal as journal_module
from repro.api import NodeConfig, RetransmitPolicy, create_node
from repro.core.errors import ConfigurationError
from repro.net.journal import NodeJournal
from repro.sim.group import wait_for
from tests.recording import Deliveries, exact_deliveries


def make_journal(tmp_path, **kwargs):
    defaults = dict(node_id="p", r=8, own_keys=(1, 5))
    defaults.update(kwargs)
    return NodeJournal(str(tmp_path / "j"), **defaults)


class TestWalReplay:
    def test_fresh_directory_recovers_nothing(self, tmp_path):
        journal = make_journal(tmp_path)
        assert journal.open() is None
        journal.close()

    def test_sends_and_deliveries_rebuild_clock_and_frontiers(self, tmp_path):
        journal = make_journal(tmp_path)
        assert journal.open() is None
        journal.record_send(1, b"m1")
        journal.record_send(2, b"m2")
        journal.record_delivery("q", 1, keys=(0, 2))
        journal.record_delivery("q", 3, keys=(0, 2))
        journal.ensure_lease(("host", 9000), 1)
        journal.close()

        restarted = make_journal(tmp_path)
        recovered = restarted.open()
        assert recovered is not None
        # Two own sends increment keys (1, 5); two deliveries keys (0, 2).
        assert recovered.vector == (2, 2, 2, 0, 0, 2, 0, 0)
        assert recovered.send_seq == 2
        assert recovered.delivered == {"p": (2, ()), "q": (1, (3,))}
        assert recovered.own_messages == {1: b"m1", 2: b"m2"}
        assert recovered.wal_records == 5
        # The lease advances the link seq past the whole reserved block.
        assert recovered.links[("host", 9000)].tx_next > 1
        restarted.close()

    def test_torn_trailing_record_is_discarded(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.open()
        journal.record_send(1, b"m1")
        journal.close()
        with open(journal.wal_path, "a", encoding="utf-8") as handle:
            handle.write('{"t":"send","q":2,"d":"bW')  # crash mid-append

        restarted = make_journal(tmp_path)
        recovered = restarted.open()
        assert recovered.send_seq == 1
        assert recovered.own_messages == {1: b"m1"}
        # The torn tail was truncated away; appending resumes cleanly.
        restarted.record_send(2, b"m2")
        restarted.close()
        again = make_journal(tmp_path)
        assert again.open().own_messages == {1: b"m1", 2: b"m2"}
        again.close()

    def test_identity_mismatch_rejected(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.open()
        journal.record_send(1, b"m1")
        journal.close()
        for wrong in (
            dict(node_id="other"),
            dict(r=16),
            dict(own_keys=(0, 3)),
        ):
            with pytest.raises(ConfigurationError):
                make_journal(tmp_path, **wrong).open()

    def test_lease_blocks_amortise_wal_writes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(journal_module, "_SEQ_LEASE", 10)
        journal = make_journal(tmp_path)
        journal.open()
        for seq in range(1, 25):
            journal.ensure_lease("peer", seq)
        journal.close()
        with open(journal.wal_path, encoding="utf-8") as handle:
            leases = [json.loads(line) for line in handle if '"lease"' in line]
        # 24 seqs at a 10-seq lease granularity: 3 lease records, and the
        # last block covers every seq that was used.
        assert len(leases) == 3
        restarted = make_journal(tmp_path)
        assert restarted.open().links["peer"].tx_next > 24
        restarted.close()


class TestSnapshots:
    def test_snapshot_truncates_wal_and_survives_restart(self, tmp_path):
        journal = make_journal(tmp_path, snapshot_interval=4)
        journal.open()
        for seq in range(1, 5):
            journal.record_send(seq, b"m%d" % seq)
        assert journal.snapshot_due
        journal.write_snapshot(
            vector=(4, 4, 0, 0, 0, 4, 0, 0),  # not replay-derived: caller's truth
            send_seq=4,
            delivered={"p": (4, ())},
            links={"peer": (7, 3, (5,))},
        )
        assert not journal.snapshot_due
        assert os.path.getsize(journal.wal_path) < 200  # just the open record
        journal.record_delivery("q", 1, keys=(2,))
        journal.close()

        restarted = make_journal(tmp_path, snapshot_interval=4)
        recovered = restarted.open()
        assert recovered.vector == (4, 4, 1, 0, 0, 4, 0, 0)
        assert recovered.send_seq == 4
        assert recovered.delivered == {"p": (4, ()), "q": (1, ())}
        link = recovered.links["peer"]
        assert (link.tx_next, link.rx_cumulative, link.rx_out_of_order) == (7, 3, (5,))
        # Pre-snapshot own bytes are gone — only the WAL carries bytes.
        assert recovered.own_messages == {}
        restarted.close()

    def test_replay_is_idempotent_across_snapshot_overlap(self, tmp_path):
        """A crash between the snapshot rename and the WAL truncation
        leaves folded records in the log; they must not double-count."""
        journal = make_journal(tmp_path, snapshot_interval=100)
        journal.open()
        journal.record_send(1, b"m1")
        journal.record_delivery("q", 1, keys=(2,))
        journal.close()
        # Simulate the crash window: snapshot exists, WAL NOT truncated.
        stale_wal = open(journal.wal_path, encoding="utf-8").read()
        mid = make_journal(tmp_path, snapshot_interval=100)
        recovered = mid.open()
        mid.write_snapshot(recovered.vector, recovered.send_seq, recovered.delivered, {})
        mid.close()
        with open(journal.wal_path, "w", encoding="utf-8") as handle:
            handle.write(stale_wal)

        restarted = make_journal(tmp_path, snapshot_interval=100)
        again = restarted.open()
        assert again.vector == recovered.vector  # not doubled
        assert again.send_seq == 1
        assert again.delivered == {"p": (1, ()), "q": (1, ())}
        restarted.close()

    def test_invalid_intervals_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            make_journal(tmp_path, snapshot_interval=0)
        # The lease block is a module constant: naming it is a TypeError.
        with pytest.raises(TypeError):
            make_journal(tmp_path, seq_lease=10)


@pytest.fixture
def fsyncs(monkeypatch):
    """File descriptors handed to ``os.fsync`` (still executed)."""
    calls = []
    real_fsync = os.fsync

    def counting_fsync(fd):
        calls.append(fd)
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", counting_fsync)
    return calls


class TestFsync:
    @pytest.mark.parametrize("fsync", [True, False])
    def test_flag_adds_one_fsync_per_wal_append(self, tmp_path, fsyncs, fsync):
        journal = make_journal(tmp_path, fsync=fsync)
        journal.open()
        opened = journal.appends
        fsyncs.clear()
        journal.record_send(1, b"m1")
        journal.record_delivery("q", 1, keys=(2,))
        journal.ensure_lease(("host", 9000), 1)
        assert journal.appends - opened == 3
        assert len(fsyncs) == (3 if fsync else 0)
        # The snapshot file is always synced before the rename; the
        # flag adds the restarted WAL's open record.
        fsyncs.clear()
        journal.write_snapshot(
            vector=(0, 1, 1, 0, 0, 1, 0, 0), send_seq=1,
            delivered={"p": (1, ()), "q": (1, ())}, links={},
        )
        assert len(fsyncs) == (2 if fsync else 1)
        journal.close()

    @pytest.mark.parametrize("fsync", [True, False])
    def test_config_flag_reaches_the_journal(self, tmp_path, fsyncs, fsync):
        async def scenario():
            config = NodeConfig(r=32, k=2, data_dir=str(tmp_path), journal_fsync=fsync)
            node = await create_node("n", config)
            appends = node.journal.appends
            fsyncs.clear()
            await node.broadcast("durable")
            assert node.journal.appends > appends
            assert len(fsyncs) == (node.journal.appends - appends if fsync else 0)
            await node.close()

        asyncio.run(scenario())


class TestNodeRecovery:
    def test_restarted_node_resumes_pre_crash_state(self, tmp_path):
        """End-to-end: crash alice mid-conversation, restart her from the
        journal, and verify clock/seq continuity plus no redeliveries."""

        async def scenario():
            config = NodeConfig(
                r=32, k=2, anti_entropy_interval=0.1,
                retransmit=RetransmitPolicy(initial_timeout=0.02),
                data_dir=str(tmp_path / "alice"), journal_snapshot_interval=6,
            )
            alice = await create_node("alice", config)
            bob = await create_node("bob", config.replace(data_dir=None))
            alice.add_peer(bob.local_address)
            bob.add_peer(alice.local_address)
            for i in range(10):
                await alice.broadcast(("alice", i))
            await bob.broadcast(("bob", 0))
            assert await wait_for(lambda: exact_deliveries(alice) == 11)
            assert await wait_for(lambda: exact_deliveries(bob) == 11)
            pre_vector = alice.endpoint.clock.snapshot()
            pre_sends = alice.endpoint.clock.send_count
            port = alice.local_address[1]
            await alice.close()  # crash: no shutdown snapshot exists

            alice2 = await create_node(
                "alice", config.replace(port=port), start=False
            )
            assert alice2.recovered is not None
            assert alice2.endpoint.clock.snapshot() == pre_vector
            assert alice2.endpoint.clock.send_count == pre_sends
            await alice2.start()
            alice2.add_peer(bob.local_address)
            bob_count = exact_deliveries(bob)
            message = await alice2.broadcast(("alice", "post-crash"))
            # Fresh-but-monotonic: the message id continues the sequence.
            assert message.seq == pre_sends + 1
            assert await wait_for(lambda: exact_deliveries(bob) == bob_count + 1)
            # Bob saw no duplicate of the pre-crash traffic: the restart
            # neither re-sent old messages nor reused a message id.
            assert bob.endpoint.stats.duplicates == 0
            # Alice's restart did not re-deliver anything she had seen.
            assert exact_deliveries(alice2) == 1
            await alice2.close()
            await bob.close()

        asyncio.run(scenario())

    def test_restart_does_not_reuse_link_seqs(self, tmp_path):
        """Bob's session must accept the first post-restart frame from a
        rebooted alice on the same address: her link seqs resume past the
        journal lease instead of colliding with acked ones."""

        async def scenario():
            config = NodeConfig(
                r=32, k=2, anti_entropy_interval=0.0,
                retransmit=RetransmitPolicy(initial_timeout=0.02),
                data_dir=str(tmp_path / "alice"),
            )
            alice = await create_node("alice", config)
            bob = await create_node("bob", config.replace(data_dir=None))
            alice.add_peer(bob.local_address)
            for i in range(3):
                await alice.broadcast(i)
            assert await wait_for(lambda: bob.endpoint.stats.delivered == 3)
            port = alice.local_address[1]
            await alice.close()

            alice2 = await create_node("alice", config.replace(port=port))
            alice2.add_peer(bob.local_address)
            link = alice2.session.link_states()[bob.local_address]
            assert link[0] > 3, "link seq must resume past the lease"
            await alice2.broadcast("fresh")
            # Anti-entropy is off: only a non-duplicate link seq delivers.
            assert await wait_for(lambda: bob.endpoint.stats.delivered == 4)
            await alice2.close()
            await bob.close()

        asyncio.run(scenario())

    def test_recovered_node_serves_own_waled_messages(self, tmp_path):
        """Own broadcasts journalled since the last snapshot are servable
        through anti-entropy after the restart."""

        async def scenario():
            config = NodeConfig(
                r=32, k=2, anti_entropy_interval=0.05,
                retransmit=RetransmitPolicy(initial_timeout=0.02),
                data_dir=str(tmp_path / "alice"),
            )
            # Alice broadcasts with no peers attached, then crashes.
            alice = await create_node("alice", config)
            for i in range(4):
                await alice.broadcast(("pre", i))
            port = alice.local_address[1]
            await alice.close()

            alice2 = await create_node("alice", config.replace(port=port))
            log = Deliveries()
            bob = await create_node("bob", config.replace(data_dir=None),
                                    on_delivery=log.append)
            alice2.add_peer(bob.local_address)
            bob.add_peer(alice2.local_address)
            # Bob's digests reveal he lacks the pre-crash messages; the
            # restarted store can serve them because the WAL kept bytes.
            assert await wait_for(lambda: len(log) == 4)
            assert log.payloads() == [
                ("pre", 0), ("pre", 1), ("pre", 2), ("pre", 3)
            ]
            await alice2.close()
            await bob.close()

        asyncio.run(scenario())

    def test_own_broadcast_is_encoded_once_for_wal_and_wire(self, tmp_path, monkeypatch):
        """WAL-before-wire used to full-encode every own broadcast twice
        (once for the journal, once for the store and the links).  A
        node without a journal encodes only the broadcast that goes full
        (its first): the store keeps the delta the links carry."""
        from repro.core.codec import MessageCodec

        encodes = []
        real_encode = MessageCodec.encode

        def counting_encode(self, message):
            encodes.append(message.message_id)
            return real_encode(self, message)

        monkeypatch.setattr(MessageCodec, "encode", counting_encode)

        async def scenario():
            config = NodeConfig(r=32, k=2, data_dir=str(tmp_path / "alice"))
            journalled = await create_node("alice", config)
            plain = await create_node("bob", config.replace(data_dir=None))
            for node in (journalled, plain):
                for i in range(5):
                    await node.broadcast(("m", i))
            stored = {seq: journalled.store.get("alice", seq) for seq in range(1, 6)}
            await journalled.close()
            await plain.close()
            # The journalled bytes are the ones the store served.
            restarted = await create_node("alice", config)
            assert dict(restarted.recovered.own_messages) == stored
            await restarted.close()

        asyncio.run(scenario())
        assert sorted(encodes) == sorted(
            [("alice", seq) for seq in range(1, 6)] + [("bob", 1)]
        )
