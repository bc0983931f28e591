"""Long-haul regression tests for the delta-reference lifecycle.

Every older wire test stops below ~1k messages per sender, which is why
the reference starvation of ROADMAP item 2 (every delta bouncing once
the receiver's table rolled over at 1,056 messages) went unseen.  These
run past that point on real loopback UDP with shipping defaults.

A receiver resolves the reference a delta names from two slots per
sender (the one in use, the newest full seen) and, behind them, from
the full encodings in its ``MessageStore``:

* steady state — no reference miss, ever, and never more than the two
  slots per sender, on the mesh and on the overlay alike;
* a receiver that loses slots *and* store mid-run — misses stop within
  one refresh window and nothing is lost or duplicated;
* a burst of old full encodings (what an anti-entropy exchange pushes)
  does not disturb the reference the link is using;
* the store is the history (link start, where the sender adopts an
  early one of many fulls) and the slots outlive it (a quiet sender in
  a busy group);
* the in-use slot survives a restart through the journal snapshot.
"""

import asyncio
import json
import logging

from repro.api import NodeConfig, create_node
from repro.net import LocalAsyncBus
from repro.net import node as node_module
from repro.sim.network import ConstantDelayModel
from repro.sim.oracle import CausalityOracle, DeliveryVerdict

LONG_HAUL = 3000  # broadcasts per sender; the old table rolled over at 1,056


async def wait_for(predicate, timeout=60.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


class Pair:
    """Two ``create_node()`` participants at zero loss, oracle attached."""

    names = ("a", "b")

    def __init__(self, data_root=None, **config):
        self.data_root = data_root
        self.config = config
        self.oracle = CausalityOracle(capacity=2)
        self.nodes = {}
        self.delivered = {name: [] for name in self.names}
        self.violations = []
        for name in self.names:
            self.oracle.register_node(name)

    def _on_delivery(self, name):
        def callback(record):
            message_id = record.message.message_id
            now = asyncio.get_running_loop().time()
            if record.local:
                self.oracle.on_send(name, message_id, now=now, fanout=1)
                return
            self.delivered[name].append(message_id)
            result = self.oracle.classify_delivery(name, message_id, now=now)
            if result.verdict is DeliveryVerdict.VIOLATION:
                self.violations.append((name, message_id))

        return callback

    async def boot(self, name, port=0):
        # Disjoint keys: the delivery condition is exact, so the
        # zero-violation assertion cannot flake.
        index = self.names.index(name)
        config = NodeConfig(
            keys=tuple(range(3 * index, 3 * index + 3)), port=port, **self.config
        )
        if self.data_root is not None:
            config = config.replace(data_dir=str(self.data_root / name))
        self.nodes[name] = await create_node(
            name, config, on_delivery=self._on_delivery(name)
        )
        return self.nodes[name]

    async def __aenter__(self):
        for name in self.names:
            await self.boot(name)
        a, b = self.nodes["a"], self.nodes["b"]
        a.add_peer(b.local_address)
        b.add_peer(a.local_address)
        return self

    async def __aexit__(self, *exc_info):
        await asyncio.gather(*(node.close() for node in self.nodes.values()))

    async def run(self, count, senders=names):
        """``count`` closed-loop broadcasts from each of ``senders`` at once."""
        async def client(node):
            for _ in range(count):
                await node.broadcast("x")

        await asyncio.gather(*(client(self.nodes[name]) for name in senders))

    async def establish_reference(self):
        """a's first message, acked: what its next deltas will name."""
        a, b = self.nodes["a"], self.nodes["b"]
        await self.run(1, senders=("a",))
        assert await wait_for(lambda: a.session.acked_cumulative(b.local_address) >= 1)

    def wire(self):
        a, b = (node.transport_stats() for node in self.nodes.values())
        return a.merge(b)

    async def assert_delivered(self, name, count):
        other = "a" if name == "b" else "b"
        assert await wait_for(lambda: len(self.delivered[name]) >= count), (
            f"{name} delivered {len(self.delivered[name])} of {count}"
        )
        assert self.delivered[name] == [(other, seq) for seq in range(1, count + 1)]
        assert not self.violations

    async def assert_exactly_once(self, count):
        for name in self.names:
            await self.assert_delivered(name, count)


def reference_seqs(node, sender):
    """``(in use, newest full)`` seqs ``node`` holds for ``sender``."""
    return tuple(
        slot[sender][0] if sender in slot else None
        for slot in (node._ref_in_use, node._ref_newest)
    )


def forget_everything(node):
    """What a restart without a journal loses: both slots and the store."""
    node._ref_in_use.clear()
    node._ref_newest.clear()
    node.store._data.clear()
    node.store._order.clear()


def test_steady_state_never_misses_and_tables_stay_bounded():
    async def scenario():
        async with Pair() as pair:
            await pair.run(LONG_HAUL)
            await pair.assert_exactly_once(LONG_HAUL)
            wire = pair.wire()
            assert wire.delta_ref_misses == 0
            share = wire.delta_sent / (wire.delta_sent + wire.full_sent)
            assert share >= 0.95, f"delta share {share:.3f}"
            for name, other in (("a", "b"), ("b", "a")):
                node = pair.nodes[name]
                # Receiver state is keyed by sender, nothing else.
                assert set(node._ref_in_use) == set(node._ref_newest) == {other}
                in_use, newest = reference_seqs(node, other)
                age = node_module._DELTA_REFRESH_AGE
                assert LONG_HAUL - 2 * age < in_use <= newest <= LONG_HAUL
                gauges = node.metrics.snapshot()["gauges"]
                assert gauges["repro_delta_ref_miss_ratio"] == 0.0
                assert 0 < gauges["repro_delta_ref_age"] <= 2 * age

    asyncio.run(scenario())


def test_lost_receiver_table_heals_within_one_refresh_window(caplog):
    async def scenario():
        async with Pair() as pair:
            await pair.run(LONG_HAUL // 2)
            assert pair.wire().delta_ref_misses == 0
            b = pair.nodes["b"]
            forget_everything(b)
            await pair.run(LONG_HAUL // 2)
            await pair.assert_exactly_once(LONG_HAUL)
            misses = b.transport_stats().delta_ref_misses
            # a's deltas bounce until its next age refresh is acked.
            assert 0 < misses <= 2 * node_module._DELTA_REFRESH_AGE
            assert pair.nodes["a"].transport_stats().delta_ref_misses == 0
            # ...and stay healed: the tail of the run decoded as deltas.
            before = b.transport_stats().delta_received
            await pair.run(200)
            await pair.assert_exactly_once(LONG_HAUL + 200)
            assert b.transport_stats().delta_ref_misses == misses
            assert b.transport_stats().delta_received >= before + 190

    with caplog.at_level(logging.WARNING, logger="repro.net.node"):
        asyncio.run(scenario())
    # One incident is far below the 5% health threshold: no warning.
    assert "delta timestamps" not in caplog.text


def test_anti_entropy_burst_cannot_evict_the_live_reference():
    async def scenario():
        async with Pair() as pair:
            await pair.run(500)
            await pair.assert_exactly_once(500)
            a, b = pair.nodes["a"], pair.nodes["b"]
            slots = reference_seqs(b, "a")
            # a's own history, old messages first, pushed full over the
            # link: none is newer than what b already holds.
            burst = [a.store.get("a", seq) for seq in range(1, 401)]
            assert all(burst)
            for data in burst:
                a.session.push(b.local_address, data)
            received = b.transport_stats().full_received
            assert await wait_for(
                lambda: b.transport_stats().full_received >= received + 400
            )
            assert reference_seqs(b, "a") == slots
            await pair.run(200)
            await pair.assert_exactly_once(700)
            assert pair.wire().delta_ref_misses == 0

    asyncio.run(scenario())


def test_persistently_bouncing_link_is_warned_about_once(caplog):
    class Forgetful(dict):
        def __setitem__(self, key, value):
            pass

    async def scenario():
        async with Pair() as pair:
            await pair.run(100)
            await pair.assert_exactly_once(100)
            a, b = pair.nodes["a"], pair.nodes["b"]
            # A receiver that never keeps a reference: every delta bounces.
            b._ref_in_use = b._ref_newest = Forgetful()
            b.store.get = lambda sender, seq: None
            await pair.run(400)
            await pair.assert_exactly_once(500)
            stats = b.transport_stats()
            assert stats.delta_ref_misses >= node_module._DELTA_MISS_WARN_AFTER
            assert b.metrics.snapshot()["gauges"]["repro_delta_ref_miss_ratio"] > 0.05
            assert a.transport_stats().delta_ref_misses == 0

    with caplog.at_level(logging.WARNING, logger="repro.net.node"):
        asyncio.run(scenario())
    warnings = [r for r in caplog.records if "delta timestamps" in r.getMessage()]
    assert len(warnings) == 1


def test_quiet_senders_reference_outlives_its_bytes_in_a_busy_store():
    async def scenario():
        async with Pair(store_limit=256) as pair:
            a, b = pair.nodes["a"], pair.nodes["b"]
            await pair.establish_reference()
            await pair.run(4, senders=("a",))  # deltas naming message 1
            await pair.assert_delivered("b", 5)
            assert reference_seqs(b, "a") == (1, 1)
            await pair.run(300, senders=("b",))
            await pair.assert_delivered("a", 300)
            assert b.store.get("a", 1) is None, "the busy sender never evicted it"
            decoded = b.transport_stats().delta_received
            await pair.run(1, senders=("a",))
            await pair.assert_delivered("b", 6)
            assert b.transport_stats().delta_received == decoded + 1
            assert pair.wire().delta_ref_misses == 0

    asyncio.run(scenario())


def test_link_start_reference_resolves_from_the_store():
    async def scenario():
        async with Pair() as pair:
            a, b = pair.nodes["a"], pair.nodes["b"]
            # Pin what the delta sender sees of the link's cumulative
            # ack: nothing while five fulls go out, then three of them.
            a.session.acked_cumulative = lambda address: 0
            await pair.run(5, senders=("a",))
            await pair.assert_delivered("b", 5)
            assert reference_seqs(b, "a") == (None, 5)
            a.session.acked_cumulative = lambda address: 3
            await pair.run(1, senders=("a",))
            del a.session.acked_cumulative
            await pair.assert_delivered("b", 6)
            # The sender adopted message 3, not the newest: neither
            # slot held it, the store did.
            assert b.transport_stats().delta_received == 1
            assert reference_seqs(b, "a") == (3, 5)
            await pair.run(50, senders=("a",))
            await pair.assert_delivered("b", 56)
            assert pair.wire().delta_ref_misses == 0

    asyncio.run(scenario())


def test_overlay_run_holds_two_references_per_sender():
    """Every RELAY body is a full: recording each as a candidate grew
    the old per-(peer, sender) tables by one vector per arrival."""

    async def scenario():
        names = [f"n{i}" for i in range(8)]
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        config = NodeConfig(
            r=24, anti_entropy_interval=0.1,
            dissemination="overlay", fanout=3, view_size=6,
        )
        delivered = {name: 0 for name in names}

        def count(name):
            def callback(record):
                delivered[name] += 1

            return callback

        nodes = {
            name: await create_node(
                name,
                config.replace(keys=tuple(range(3 * i, 3 * i + 3))),
                transport=bus.attach(name),
                on_delivery=count(name),
            )
            for i, name in enumerate(names)
        }
        for i, name in enumerate(names):
            for step in (1, 2):
                nodes[name].add_peer(names[(i + step) % len(names)])
        try:
            rounds = 20
            for _ in range(rounds):
                await asyncio.gather(*(node.broadcast("x") for node in nodes.values()))
                await asyncio.sleep(0.01)
            assert await wait_for(
                lambda: all(n == rounds * len(names) for n in delivered.values())
            ), delivered
            for name, node in nodes.items():
                assert not node._ref_in_use  # no delta ever named one
                assert set(node._ref_newest) == set(names) - {name}
        finally:
            await asyncio.gather(*(node.close() for node in nodes.values()))

    asyncio.run(scenario())


def test_journal_snapshot_carries_the_in_use_reference(tmp_path):
    async def scenario():
        async with Pair(data_root=tmp_path, journal_snapshot_interval=16) as pair:
            a, b = pair.nodes["a"], pair.nodes["b"]
            await pair.establish_reference()
            await pair.run(39, senders=("a",))
            await pair.assert_delivered("b", 40)
            port = b.local_address[1]
            in_use = b._ref_in_use["a"]
            snapshot_path = b.journal.snapshot_path
            await b.close()  # crash-only: close() writes nothing

            with open(snapshot_path, encoding="utf-8") as handle:
                snapshot = json.load(handle)
            # Flat: one reference per sender, no per-address nesting.
            assert list(snapshot["delta_refs"]) == ["a"]
            assert snapshot["delta_refs"]["a"][0] == in_use[0]

            b = await pair.boot("b", port=port)
            b.add_peer(a.local_address)
            seq, vector, keys = b._ref_in_use["a"]
            assert (seq, keys) == (in_use[0], in_use[2])
            assert vector.tolist() == in_use[1].tolist()
            assert not vector.flags.writeable
            # a is still inside its first refresh block: its deltas name
            # the journalled reference, and b's store restarted empty.
            assert b.store.get("a", seq) is None
            await pair.run(10, senders=("a",))
            assert await wait_for(lambda: b.transport_stats().delta_received >= 10)
            assert b.transport_stats().delta_ref_misses == 0
            assert not pair.violations
            await b.close()

            # The parent tree nested the references per peer address;
            # such a snapshot still loads, without them.
            with open(snapshot_path, encoding="utf-8") as handle:
                snapshot = json.load(handle)
            snapshot["delta_refs"] = [
                [list(a.local_address), snapshot["delta_refs"]]
            ]
            with open(snapshot_path, "w", encoding="utf-8") as handle:
                json.dump(snapshot, handle)
            b = await pair.boot("b", port=port)
            assert b.recovered is not None and b.recovered.delta_refs == {}
            assert not b._ref_in_use

    asyncio.run(scenario())
