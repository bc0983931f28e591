"""Long-haul regression tests for the delta-reference lifecycle.

Every older wire test stops below ~1k messages per sender, which is why
the reference starvation of ROADMAP item 2 (every delta bouncing once
the receiver's table rolled over at 1,056 messages) went unseen.  These
run past that point on real loopback UDP with shipping defaults:

* steady state — no reference miss, ever, and bounded receiver tables;
* a receiver that loses its tables mid-run — misses stop within one
  refresh window and nothing is lost or duplicated;
* a burst of old full encodings (what an anti-entropy exchange pushes)
  must not evict the reference the link is using.
"""

import asyncio
import logging

import numpy as np

from repro.api import NodeConfig, create_node
from repro.net import node as node_module
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

    def __init__(self, **config):
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

    async def __aenter__(self):
        for index, name in enumerate(self.names):
            # Disjoint keys: the delivery condition is exact, so the
            # zero-violation assertion cannot flake.
            config = NodeConfig(
                keys=tuple(range(3 * index, 3 * index + 3)), **self.config
            )
            self.nodes[name] = await create_node(
                name, config, on_delivery=self._on_delivery(name)
            )
        a, b = self.nodes["a"], self.nodes["b"]
        a.add_peer(b.local_address)
        b.add_peer(a.local_address)
        return self

    async def __aexit__(self, *exc_info):
        await asyncio.gather(*(node.close() for node in self.nodes.values()))

    async def run(self, count):
        """``count`` closed-loop broadcasts from both senders at once."""
        async def client(node):
            for _ in range(count):
                await node.broadcast("x")

        await asyncio.gather(*(client(node) for node in self.nodes.values()))

    def wire(self):
        a, b = (node.transport_stats() for node in self.nodes.values())
        return a.merge(b)

    def tables(self):
        return [
            entry
            for node in self.nodes.values()
            for senders in node._delta_rx.values()
            for entry in senders.values()
        ]

    async def assert_exactly_once(self, count):
        for name, other in (("a", "b"), ("b", "a")):
            assert await wait_for(lambda: len(self.delivered[name]) >= count), (
                f"{name} delivered {len(self.delivered[name])} of {count}"
            )
            assert self.delivered[name] == [
                (other, seq) for seq in range(1, count + 1)
            ]
        assert not self.violations


def test_receiver_table_keeps_candidates_and_bounded_history():
    """The table rule on its own: everything above the live reference is
    a candidate the sender may adopt (a stalled cumulative ack makes it
    pick an early one of many), below it only the recent history stays,
    and at the cap the lowest goes first but never the live one."""
    vector = np.zeros(4, dtype=np.int64)
    history = node_module._DELTA_RX_HISTORY
    table = node_module._DeltaRx(keys=(0,))
    for seq in range(1, 201):
        table.record(seq, vector, cap=1056)
    assert table.use(5) is vector and table.live == 5
    assert len(table.refs) == 200
    assert table.use(200) is vector and table.live == 200
    assert sorted(table.refs) == list(range(200 - history, 201))
    # A delta retransmitted after the sender moved on names an old one.
    assert table.use(190) is vector and table.live == 200
    assert table.use(100) is None
    for seq in range(1, 100):
        table.record(seq, vector, cap=40)
    assert 30 <= len(table.refs) <= 40
    assert 1 not in table.refs and set(range(190, 201)) <= set(table.refs)
    # ...even when the live reference is the lowest of all.
    table = node_module._DeltaRx(keys=(0,))
    table.record(1, vector, cap=8)
    assert table.use(1) is vector
    for seq in range(2, 40):
        table.record(seq, vector, cap=8)
    assert len(table.refs) <= 8 and 1 in table.refs and 39 in table.refs


def test_steady_state_never_misses_and_tables_stay_bounded():
    async def scenario():
        async with Pair() as pair:
            await pair.run(LONG_HAUL)
            await pair.assert_exactly_once(LONG_HAUL)
            wire = pair.wire()
            assert wire.delta_ref_misses == 0
            share = wire.delta_sent / (wire.delta_sent + wire.full_sent)
            assert share >= 0.95, f"delta share {share:.3f}"
            tables = pair.tables()
            assert tables
            for entry in tables:
                # The superseded references, the refresh in flight, and
                # whatever anti-entropy pushed full since the last one.
                assert 0 < len(entry.refs) <= 2 * node_module._DELTA_RX_HISTORY
            for node in pair.nodes.values():
                gauges = node.metrics.snapshot()["gauges"]
                assert gauges["repro_delta_ref_miss_ratio"] == 0.0
                assert (
                    0 < gauges["repro_delta_ref_age"]
                    <= 2 * node_module._DELTA_REFRESH_AGE
                )

    asyncio.run(scenario())


def test_lost_receiver_table_heals_within_one_refresh_window(caplog):
    async def scenario():
        async with Pair() as pair:
            await pair.run(LONG_HAUL // 2)
            assert pair.wire().delta_ref_misses == 0
            b = pair.nodes["b"]
            b._delta_rx.clear()  # what a restart without a journal loses
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
        # A small send_buffer shrinks the table's hard cap to 128.
        async with Pair(send_buffer=64) as pair:
            await pair.run(500)
            await pair.assert_exactly_once(500)
            a, b = pair.nodes["a"], pair.nodes["b"]
            # a's own history, old messages first, pushed full over the
            # link — three times what the table can hold.
            burst = [a.store.get("a", seq) for seq in range(1, 401)]
            assert all(burst)
            for data in burst:
                a.session.push(b.local_address, data)
            received = b.transport_stats().full_received
            assert await wait_for(
                lambda: b.transport_stats().full_received >= received + 400
            )
            entry = b._delta_rx[a.local_address]["a"]
            assert b._delta_rx_cap == 128
            assert 96 <= len(entry.refs) <= 128
            assert entry.live in entry.refs
            await pair.run(200)
            await pair.assert_exactly_once(700)
            assert pair.wire().delta_ref_misses == 0
            # The next reference retired the burst along with the rest.
            assert len(entry.refs) <= 2 * node_module._DELTA_RX_HISTORY

    asyncio.run(scenario())


def test_persistently_bouncing_link_is_warned_about_once(caplog):
    async def scenario():
        async with Pair() as pair:
            await pair.run(100)
            await pair.assert_exactly_once(100)
            a, b = pair.nodes["a"], pair.nodes["b"]
            # A receiver that never keeps a reference: every delta bounces.
            b._record_ref = lambda *args, **kwargs: None
            b._delta_rx.clear()
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
