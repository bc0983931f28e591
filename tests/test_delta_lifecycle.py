"""The one delta rule, end to end: every broadcast names its sender's
previous one, and a delta that outruns its reference waits for it.

A receiver resolves the reference from one slot per sender (its newest
admitted message) and, behind it, from the full encodings in its
``MessageStore``.  A delta whose reference it never recorded is parked
until that reference is admitted; one whose reference it recorded but no
longer holds is a counted miss and a resync.

* steady state — no reference miss, ever, one slot per sender and
  nothing parked, on the mesh and on the overlay alike (long-haul runs
  on real loopback UDP with shipping defaults, past the old 1,056-entry
  reference table);
* a receiver that loses slot and store, or restarts from its journal,
  misses once per sender and then decodes deltas again; a mesh joiner
  misses nothing (every member's next broadcast to it is full);
* a delta that overtakes its reference parks and is released with no
  miss; a reference dropped after its frame was acked still comes
  through anti-entropy; a full park is a miss and a resync; a view
  eviction purges what its sender left parked;
* a burst of old full encodings (what an anti-entropy exchange pushes)
  does not move the slot, and the slot outlives the store's bytes for a
  quiet sender.
"""

import asyncio
import logging

from repro.api import MembershipConfig, NodeConfig, create_endpoint, create_node
from repro.core.codec import MessageCodec
from repro.core.keyspace import PerfectKeyAssigner
from repro.net import LocalAsyncBus
from repro.net import membership as membership_module
from repro.net import node as node_module
from repro.sim.group import Group, wait_for
from repro.sim.network import ConstantDelayModel, GaussianDelayModel
from repro.sim.oracle import CausalityOracle, DeliveryVerdict
from repro.sim.vtime import run_virtual

LONG_HAUL = 3000  # broadcasts per sender; the old table rolled over at 1,056


class Pair:
    """Two ``create_node()`` participants at zero loss, oracle attached:
    on loopback UDP, or on ``bus`` when one is given."""

    names = ("a", "b")

    def __init__(self, data_root=None, bus=None, **config):
        self.data_root = data_root
        self.bus = bus
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
        transport = self.bus.attach(name) if self.bus is not None else None
        self.nodes[name] = await create_node(
            name, config, transport=transport, on_delivery=self._on_delivery(name)
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

    def wire(self):
        a, b = (node.transport_stats() for node in self.nodes.values())
        return a.merge(b)

    async def assert_delivered(self, name, count):
        other = "a" if name == "b" else "b"
        assert await wait_for(lambda: len(self.delivered[name]) >= count, timeout=60.0), (
            f"{name} delivered {len(self.delivered[name])} of {count}"
        )
        assert self.delivered[name] == [(other, seq) for seq in range(1, count + 1)]
        assert not self.violations

    async def assert_exactly_once(self, count):
        for name in self.names:
            await self.assert_delivered(name, count)


def newest_seq(node, sender):
    """The seq of the reference slot ``node`` holds for ``sender``."""
    return node._ref_newest[sender][0]


def forget_everything(node):
    """What a restart without a journal loses: the slots and the store's
    bytes (its coverage stays)."""
    node._ref_newest.clear()
    node.store._data.clear()
    node.store._order.clear()


def drop_once(node, seq, sender="a"):
    """Make ``node`` lose the first DATA body carrying ``(sender, seq)``
    after its session acked the frame."""
    handle = node.session._on_message
    armed = [True]

    def intake(data, addr):
        if armed[0]:
            if MessageCodec.is_delta(data):
                origin, message_seq, _ = node._codec.delta_header(data)
            else:
                message = node._codec.decode(data)
                origin, message_seq = str(message.sender), message.seq
            if (origin, message_seq) == (sender, seq):
                armed[0] = False
                return
        handle(data, addr)

    node.session._on_message = intake


class Origin:
    """Encodings of five broadcasts from a bare endpoint ``a``: full, or
    a delta against the previous one, as a node would send them."""

    def __init__(self):
        self.codec = MessageCodec()
        endpoint = create_endpoint("a", NodeConfig(r=16, keys=(1, 2, 3)))
        self.sent = [endpoint.broadcast(f"m{seq}") for seq in range(1, 6)]

    def full(self, seq):
        return self.codec.encode(self.sent[seq - 1])

    def delta(self, seq):
        previous = self.sent[seq - 2]
        return self.codec.encode_delta(
            self.sent[seq - 1], previous.seq, previous.timestamp.vector
        )


async def receiver(bus):
    """A node ``b`` whose only peer is ``a``, with no anti-entropy round."""
    node = await create_node(
        "b", NodeConfig(r=16, keys=(4, 5, 6), anti_entropy_interval=0),
        transport=bus.attach("b"),
    )
    node.add_peer("a")
    return node


# ----------------------------------------------------------------------
# long haul on loopback
# ----------------------------------------------------------------------


def test_steady_state_never_misses_and_tables_stay_bounded():
    async def scenario():
        async with Pair() as pair:
            await pair.run(LONG_HAUL)
            await pair.assert_exactly_once(LONG_HAUL)
            wire = pair.wire()
            assert wire.delta_ref_misses == 0
            share = wire.delta_sent / (wire.delta_sent + wire.full_sent)
            assert share >= 0.99, f"delta share {share:.3f}"
            for name, other in (("a", "b"), ("b", "a")):
                node = pair.nodes[name]
                # Receiver state is keyed by sender, nothing else.
                assert set(node._ref_newest) == {other}
                assert newest_seq(node, other) == LONG_HAUL
                assert node.state_sizes()["parked_deltas"] == 0
                gauges = node.metrics.snapshot()["gauges"]
                assert gauges["repro_delta_ref_miss_ratio"] == 0.0

    asyncio.run(scenario())


def test_lost_receiver_table_heals_within_one_refresh_window(caplog):
    """The refresh window is one resync now: the first delta naming a
    lost reference misses, the resync re-delivers it full, and the
    deltas behind it — parked meanwhile — decode."""

    async def scenario():
        async with Pair() as pair:
            await pair.run(LONG_HAUL // 2)
            await pair.assert_exactly_once(LONG_HAUL // 2)
            assert pair.wire().delta_ref_misses == 0
            b = pair.nodes["b"]
            forget_everything(b)
            await pair.run(LONG_HAUL // 2)
            await pair.assert_exactly_once(LONG_HAUL)
            assert b.transport_stats().delta_ref_misses == 1
            assert pair.nodes["a"].transport_stats().delta_ref_misses == 0
            # ...and stays healed: the tail of the run decoded as deltas.
            before = b.transport_stats().delta_received
            await pair.run(200)
            await pair.assert_exactly_once(LONG_HAUL + 200)
            assert b.transport_stats().delta_ref_misses == 1
            assert b.transport_stats().delta_received == before + 200
            assert b.state_sizes()["parked_deltas"] == 0

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
            # a's own history, old messages first, pushed full over the
            # link: none is newer than what b already holds.
            burst = [a.store.get("a", seq) for seq in range(1, 401)]
            assert all(burst)
            for data in burst:
                a.session.push(b.local_address, data)
            received = b.transport_stats().full_received
            assert await wait_for(
                lambda: b.transport_stats().full_received >= received + 400, timeout=60.0
            )
            assert newest_seq(b, "a") == 500
            await pair.run(200)
            await pair.assert_exactly_once(700)
            assert pair.wire().delta_ref_misses == 0

    asyncio.run(scenario())


def test_persistently_bouncing_link_is_warned_about_once(caplog, monkeypatch):
    # Nothing parks either: a parked delta released onto a reference
    # this receiver cannot keep would bounce one anti-entropy round later.
    monkeypatch.setattr(node_module, "_PARK_LIMIT", 0)

    class Forgetful(dict):
        def __setitem__(self, key, value):
            pass

    async def scenario():
        async with Pair() as pair:
            await pair.run(100)
            await pair.assert_exactly_once(100)
            a, b = pair.nodes["a"], pair.nodes["b"]
            # A receiver that never keeps a reference: every delta bounces.
            b._ref_newest = Forgetful()
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


def test_quiet_senders_reference_outlives_its_bytes_in_a_busy_store(monkeypatch):
    monkeypatch.setattr(node_module, "_STORE_LIMIT", 256)

    async def scenario():
        async with Pair() as pair:
            b = pair.nodes["b"]
            await pair.run(5, senders=("a",))  # a full, then four deltas
            await pair.assert_delivered("b", 5)
            assert newest_seq(b, "a") == 5
            await pair.run(300, senders=("b",))
            await pair.assert_delivered("a", 300)
            assert b.store.get("a", 5) is None, "the busy sender never evicted it"
            decoded = b.transport_stats().delta_received
            await pair.run(1, senders=("a",))
            await pair.assert_delivered("b", 6)
            assert b.transport_stats().delta_received == decoded + 1
            assert pair.wire().delta_ref_misses == 0

    asyncio.run(scenario())


def test_overlay_run_holds_one_reference_per_sender():
    """Every RELAY body names its origin's previous broadcast: one slot
    per sender, and nothing left parked once the run is delivered."""

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
                lambda: all(n == rounds * len(names) for n in delivered.values()),
                timeout=60.0,
            ), delivered
            for name, node in nodes.items():
                assert set(node._ref_newest) == set(names) - {name}
                assert node.state_sizes()["parked_deltas"] == 0
                assert node.transport_stats().delta_ref_misses == 0
        finally:
            await asyncio.gather(*(node.close() for node in nodes.values()))

    asyncio.run(scenario())


def test_a_restarted_receiver_misses_once_per_sender_then_decodes_deltas(tmp_path):
    """The journal keeps what b delivered, not the bytes: a's first
    delta after the restart names a message b recorded but no longer
    holds.  That one misses; the resync brings it full, and every delta
    after it decodes."""

    async def scenario():
        async with Pair(data_root=tmp_path, journal_snapshot_interval=16) as pair:
            a, b = pair.nodes["a"], pair.nodes["b"]
            await pair.run(40, senders=("a",))
            await pair.assert_delivered("b", 40)
            port = b.local_address[1]
            await b.close()  # crash-only: close() writes nothing

            b = await pair.boot("b", port=port)
            b.add_peer(a.local_address)
            assert b.store.get("a", 40) is None and b.store.knows("a", 40)
            await pair.run(10, senders=("a",))
            await pair.assert_delivered("b", 50)
            stats = b.transport_stats()
            assert stats.delta_ref_misses == 1
            # 42–50, plus any pre-crash frame a retransmitted to the new
            # incarnation (a duplicate, whatever it names).
            assert stats.delta_received >= 9
            assert b.state_sizes()["parked_deltas"] == 0
            await b.close()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# parking, on the virtual bus
# ----------------------------------------------------------------------


def test_a_reordered_mesh_delta_parks_and_releases_with_no_miss():
    async def scenario():
        bus = LocalAsyncBus()
        node = await receiver(bus)
        origin = Origin()
        try:
            node._handle_wire_message(origin.delta(3), "a")  # names 2
            node._handle_wire_message(origin.delta(2), "a")  # names 1
            assert node.state_sizes()["parked_deltas"] == 2
            assert node.delivered_payloads() == []
            # A parked message is held: the digest does not ask for it.
            assert node._digest()["a"] == (0, (2, 3))
            node._handle_wire_message(origin.full(1), "a")
            assert node.delivered_payloads() == ["m1", "m2", "m3"]
            assert node.state_sizes()["parked_deltas"] == 0
            # A delta that arrives after a later message names one that
            # is no longer the newest: the store holds it.
            node._handle_wire_message(origin.full(5), "a")
            node._handle_wire_message(origin.delta(4), "a")
            assert node.delivered_payloads() == ["m1", "m2", "m3", "m4", "m5"]
            stats = node.transport_stats("a")
            assert (stats.delta_received, stats.full_received) == (3, 2)
            assert (stats.delta_ref_misses, stats.digests_sent) == (0, 0)
            assert node.store.get("a", 4) == origin.full(4)
        finally:
            await node.close()

    run_virtual(scenario())


def test_a_reference_dropped_after_its_frame_was_acked_comes_through_anti_entropy():
    """b's session acks the frame carrying a's second broadcast, but the
    node loses it, so a never retransmits it.  The third parks behind
    it; b's digest names the third as held and the second as missing,
    and a's answer releases both."""

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        async with Pair(bus=bus, anti_entropy_interval=0.1) as pair:
            a, b = pair.nodes["a"], pair.nodes["b"]
            drop_once(b, seq=2)
            await pair.run(3, senders=("a",))
            assert await wait_for(lambda: b.state_sizes()["parked_deltas"] == 1)
            await pair.assert_delivered("b", 3)
            assert b.state_sizes()["parked_deltas"] == 0
            assert pair.wire().delta_ref_misses == 0
            assert (a.repair_stats.repairs_sent, b.repair_stats.repair_duplicates) == (1, 0)

    run_virtual(scenario())


def test_overflowing_the_park_counts_a_miss_and_resyncs(monkeypatch):
    monkeypatch.setattr(node_module, "_PARK_LIMIT", 2)

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        async with Pair(bus=bus, anti_entropy_interval=0) as pair:
            a, b = pair.nodes["a"], pair.nodes["b"]
            # a's first broadcast never reaches b's node.  Deltas 2 and
            # 3 park behind it and fill the park; 4 and 5 are misses.
            drop_once(b, seq=1)
            await pair.run(5, senders=("a",))
            await pair.assert_delivered("b", 5)
            stats = b.transport_stats()
            assert stats.delta_ref_misses == 2
            # The first miss sent a digest at once (the second was within
            # the resync interval), and a answered it with everything
            # the park did not cover: 1, 4 and 5.
            assert stats.digests_sent == 1
            assert a.repair_stats.repairs_sent == 3
            assert b.state_sizes()["parked_deltas"] == 0

    run_virtual(scenario())


def test_a_mesh_join_costs_no_reference_miss(monkeypatch):
    """A joiner's state transfer records the group's past without its
    bytes.  Each member peers the joiner in and sends its next broadcast
    full, so every delta the joiner meets names a message it holds."""
    monkeypatch.setattr(membership_module, "_ANNOUNCE_INTERVAL", 0.1)

    def config(name):
        return NodeConfig(
            r=32, k=3, anti_entropy_interval=0.1,
            keys=(0, 1, 2) if name == "n0" else None,
            membership=MembershipConfig(
                seed_peers=() if name == "n0" else ("n0",),
            ),
        )

    async def scenario():
        group = await Group.start(
            0, config, 1, 0.0, GaussianDelayModel(5.0, 2.0, 2.0), judged=True, capacity=4
        )
        async with group:
            founder = await group.join("n0", assigner=PerfectKeyAssigner(32, 3))
            for name in ("n1", "n2"):
                await group.join(name)
            await group.burst(20)
            await group.settle()
            joiner = await group.join("n3")
            assert await wait_for(
                lambda: all(len(node.peers) == 3 for node in group.nodes)
            ), "the members never peered the joiner in"
            await group.burst(20)
            await group.settle()
            assert founder.membership.view.view_id == 4
            return group.wire(), joiner.transport_stats(), group.counts()

    wire, joined, counts = run_virtual(scenario())
    assert wire.delta_ref_misses == 0
    assert counts["violations"] == 0
    # One full from each of the three members, deltas after it.
    assert (joined.full_received, joined.delta_received) == (3, 3 * 19)


def test_view_eviction_purges_parked_deltas():
    async def scenario():
        bus = LocalAsyncBus()
        node = await receiver(bus)
        origin = Origin()
        try:
            node._handle_wire_message(origin.full(1), "a")
            node._handle_wire_message(origin.delta(3), "a")
            assert node.state_sizes()["parked_deltas"] == 1
            node.evict_peer("a", "a")
            assert node.state_sizes()["parked_deltas"] == 0
            assert node.state_sizes()["reference_slots"] == 0
        finally:
            await node.close()

    run_virtual(scenario())
