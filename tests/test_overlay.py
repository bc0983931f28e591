"""Overlay dissemination tests: RELAY wire format, the partial view,
and the overlay-vs-mesh observational-identity differential.

Three layers, mirroring how the mesh wire earned its trust:

* the RELAY envelope round-trips through the frame codec (property
  test) and rejects truncation and corruption (a malformed relay must
  never take a node down — it is gossip, dropped on the floor);
* :class:`~repro.net.overlay.PartialView` honours its bounds, throttles
  gossip merges, excludes the local node, and reports collapse through
  the diversity gauge;
* above the codec, a swarm disseminating over the bounded-fanout
  overlay is observationally identical to the full mesh: same delivered
  message sets, zero oracle violations — under the same loss,
  duplication and jitter the wire differential suite uses;
* at scale, on :class:`~repro.sim.group.Group` under virtual time: a
  64-node swarm from a sparse seed ring converges oracle-clean, and the
  busiest node's datagrams per message stay flat as the swarm doubles
  while the mesh's origin pays N − 1.
"""

import asyncio
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    MembershipConfig,
    NodeConfig,
    RetransmitPolicy,
    create_endpoint,
    create_node,
)
from repro.core.clocks import Timestamp
from repro.core.codec import CodecError, FrameCodec, MemberRecord, MessageCodec, RelayFrame
from repro.core.errors import ConfigurationError
from repro.core.keyspace import PerfectKeyAssigner
from repro.core.protocol import Message
from repro.net import LocalAsyncBus, MessageStore
from repro.net import membership as membership_module
from repro.net import overlay as overlay_module
from repro.net.overlay import PartialView
from repro.sim.group import Group, disjoint_keys, wait_for
from repro.sim.network import ConstantDelayModel, GaussianDelayModel
from repro.sim.vtime import run_virtual
from tests.recording import Deliveries

codec = FrameCodec()

MESH = {}  # the defaults
OVERLAY = dict(dissemination="overlay", fanout=3, view_size=8)
DIFFERENTIAL = NodeConfig(
    r=64, k=3, retransmit=RetransmitPolicy(initial_timeout=0.02), anti_entropy_interval=0.1
)

origins = st.text(min_size=1, max_size=20)
seqs = st.integers(min_value=1, max_value=2**40)
hops = st.integers(min_value=0, max_value=255)
addresses = st.tuples(
    st.text(min_size=1, max_size=16), st.integers(min_value=0, max_value=65535)
) | st.tuples(
    st.ip_addresses(v=4).map(str), st.integers(min_value=0, max_value=65535)
)
samples = st.lists(
    st.tuples(st.text(min_size=1, max_size=12), addresses),
    max_size=6,
    unique_by=lambda m: m[0],
).map(lambda ms: tuple(MemberRecord(n, a) for n, a in ms))


def message_body(origin: str, seq: int, payload=None) -> bytes:
    """A full message encoding of ``(origin, seq)`` — what a RELAY wraps."""
    stamp = Timestamp(vector=np.arange(8, dtype=np.int64), sender_keys=(1, 2), seq=seq)
    return MessageCodec().encode(Message(sender=origin, seq=seq, timestamp=stamp, payload=payload))


# ----------------------------------------------------------------------
# RELAY wire format
# ----------------------------------------------------------------------


class TestRelayRoundTrip:
    @given(origin=origins, seq=seqs, hop=hops, sample=samples, payload=st.text(max_size=100))
    @settings(max_examples=200, deadline=None)
    def test_relay_frame(self, origin, seq, hop, sample, payload):
        frame = RelayFrame(hops=hop, sample=sample, payload=message_body(origin, seq, payload))
        decoded = codec.decode(codec.encode(frame))
        assert decoded == frame
        assert (decoded.origin, decoded.seq) == (origin, seq)


class TestRelayMalformed:
    def _frame(self):
        return RelayFrame(
            hops=3, sample=(MemberRecord("m1", ("h", 9000)),),
            payload=message_body("origin-node", 41, "payload"),
        )

    @given(cut=st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_rejected(self, cut):
        """A cut inside the body may leave its header whole; then the
        message codec refuses the body."""
        data = codec.encode(self._frame())
        with pytest.raises(CodecError):
            MessageCodec().decode(codec.decode(data[:-cut]).payload)

    def test_a_body_that_is_not_a_message_is_rejected(self):
        with pytest.raises(CodecError):
            RelayFrame(hops=0, payload=b"xyz")
        with pytest.raises(CodecError):
            codec.decode(codec.encode(self._frame())[:-len(message_body("origin-node", 41, "payload"))] + b"xyz")

    def test_hop_count_out_of_range_rejected(self):
        payload = message_body("a", 1)
        with pytest.raises(CodecError):
            codec.encode(RelayFrame(hops=256, payload=payload))
        with pytest.raises(CodecError):
            codec.encode(RelayFrame(hops=-1, payload=payload))

    def test_oversized_sample_rejected(self):
        sample = tuple(
            MemberRecord(f"m{i}", ("h", i)) for i in range(256)
        )
        with pytest.raises(CodecError):
            codec.encode(RelayFrame(hops=0, sample=sample, payload=message_body("a", 1)))

    def test_corrupt_origin_utf8_rejected(self):
        data = bytearray(codec.encode(self._frame()))
        # The body's sender starts 8 bytes into the body, which follows
        # magic, version, type, hops and the sample.
        start = len(data) - len(self._frame().payload)
        data[start + 8] = 0xFF
        with pytest.raises(CodecError):
            codec.decode(bytes(data))

    def test_sample_count_overrun_rejected(self):
        data = bytearray(codec.encode(self._frame()))
        assert data[5] == 1  # the sample's member count
        data[5] = 0x7E
        with pytest.raises(CodecError):
            codec.decode(bytes(data))


# ----------------------------------------------------------------------
# the partial view
# ----------------------------------------------------------------------


class TestPartialView:
    def test_knob_validation(self):
        with pytest.raises(ConfigurationError):
            PartialView("n", fanout=0)
        with pytest.raises(ConfigurationError):
            PartialView("n", fanout=4, view_size=3)
        # Module constants now: naming one is a TypeError.
        for knob in ("piggyback_size", "merge_probability", "max_hops"):
            with pytest.raises(TypeError):
                PartialView("n", **{knob: 1})

    def test_view_is_bounded(self):
        view = PartialView("n", fanout=2, view_size=4, seed=7)
        for i in range(20):
            view.add(("h", i), f"m{i}")
        assert len(view) == 4

    def test_self_exclusion(self):
        view = PartialView("n", seed=7)
        view.set_local_address(("me", 1))
        assert not view.add(("me", 1), "n")
        assert not view.add(("elsewhere", 2), "n")  # own id, NAT'd address
        view.add(("peer", 3), "p")
        assert ("me", 1) not in view
        assert len(view) == 1
        # Learning the local address late evicts an already-admitted self.
        late = PartialView("n2", seed=7)
        late.add(("me2", 1), "")
        late.set_local_address(("me2", 1))
        assert ("me2", 1) not in late

    def test_merge_probability_throttles(self, monkeypatch):
        """The coin is the pusher's, one flip per envelope copy; the
        receiver merges whatever sample arrives, and an empty one is no
        merge at all."""
        view = PartialView("n", seed=3)
        monkeypatch.setattr(overlay_module, "_MERGE_PROBABILITY", 0.0)
        assert not any(view.carries_sample() for _ in range(100))
        monkeypatch.setattr(overlay_module, "_MERGE_PROBABILITY", 1.0)
        assert all(view.carries_sample() for _ in range(100))
        monkeypatch.undo()  # the shipping quarter
        quarter = PartialView("n", seed=3)
        won = sum(quarter.carries_sample() for _ in range(4000))
        assert 900 < won < 1100, won
        receiver = PartialView("r", seed=3)
        assert not receiver.merge_sample(())
        assert receiver.stats.merges_applied == 0
        assert receiver.merge_sample((MemberRecord("m1", ("h", 1)),))
        assert ("h", 1) in receiver
        assert receiver.stats.merges_applied == 1

    def test_only_copies_that_win_the_coin_carry_the_sample(self, monkeypatch):
        """A node's push sends the view sample on the copies whose coin
        won and an empty sample on the rest, one coin per copy."""

        async def scenario(probability):
            monkeypatch.setattr(overlay_module, "_MERGE_PROBABILITY", probability)
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            received = []
            for index in range(3):
                bus.attach(f"t{index}").set_receiver(
                    lambda data, addr: received.append(codec.decode(data))
                )
            node = await create_node(
                "o", NodeConfig(r=16, dissemination="overlay", fanout=3, view_size=4),
                transport=bus.attach("o"),
            )
            try:
                for index in range(3):
                    node.add_peer(f"t{index}")
                for index in range(40):
                    await node.broadcast(index)
                    await asyncio.sleep(0.01)  # one datagram per copy
            finally:
                await node.close()
            return [len(frame.sample) for frame in received]

        assert set(run_virtual(scenario(0.0))) == {0}
        assert set(run_virtual(scenario(1.0))) == {4}  # 3 view entries + self
        mixed = run_virtual(scenario(0.5))
        assert len(mixed) == 120 and set(mixed) == {0, 4}
        assert 40 < mixed.count(4) < 80, mixed

    def test_push_targets_fanout_and_exclusion(self):
        view = PartialView("n", fanout=3, view_size=12, seed=5)
        for i in range(10):
            view.add(("h", i))
        targets = view.push_targets()
        assert len(targets) == 3
        assert len(set(targets)) == 3
        excluded = ("h", 0)
        for _ in range(50):
            assert excluded not in view.push_targets(exclude=(excluded,))

    def test_live_filter_applies(self):
        view = PartialView("n", fanout=4, view_size=8, seed=5)
        for i in range(6):
            view.add(("h", i))
        live = lambda address: address[1] % 2 == 0  # noqa: E731
        assert all(a[1] % 2 == 0 for a in view.push_targets(live_filter=live))
        assert all(a[1] % 2 == 0 for a in view.digest_targets(live_filter=live))

    def test_gossip_sample_carries_self(self, monkeypatch):
        monkeypatch.setattr(overlay_module, "_PIGGYBACK_SIZE", 2)
        view = PartialView("n", seed=9)
        view.set_local_address(("me", 7))
        for i in range(5):
            view.add(("h", i), f"m{i}")
        sample = view.gossip_sample()
        assert MemberRecord("n", ("me", 7)) in sample
        assert len(sample) <= 3  # _PIGGYBACK_SIZE + self

    def test_sample_diversity_detects_collapse(self):
        view = PartialView("n", seed=11)
        assert view.sample_diversity() == 1.0
        # A healthy stream of distinct ids keeps the ratio high ...
        for i in range(64):
            view.merge_sample((MemberRecord(f"m{i}", ("h", i)),))
        healthy = view.sample_diversity()
        # ... a rich-get-richer stream of one id sinks it.
        for _ in range(256):
            view.merge_sample((MemberRecord("hub", ("hub", 1)),))
        assert view.sample_diversity() < 0.05 < healthy


# ----------------------------------------------------------------------
# overlay vs mesh: the observational-identity differential
# ----------------------------------------------------------------------
#
# Same scripted scenario, same seed and faults, two dissemination
# substrates.  The overlay run must be indistinguishable above the
# codec: identical delivered message sets, zero violations against the
# oracle (disjoint key sets make the zero sound; it also rules out a
# duplicate or a per-sender FIFO break).  The wire stats double-check
# that the overlay run actually relayed and the mesh run never did.


async def run_differential(config, *, seed, size, rounds=6, senders=None):
    """``rounds`` broadcasts per sender (every node, or ``senders``) on a
    judged group at 20 % loss and 10 % duplication; returns each node's
    delivery order and the merged wire stats."""
    group = await Group.start(
        size, disjoint_keys(DIFFERENTIAL.replace(**config)), seed, 0.20,
        GaussianDelayModel(5.0, 2.0, 2.0), judged=True, duplicate_rate=0.10,
    )
    async with group:
        for _ in range(rounds):
            for node in group.nodes:
                if senders is None or node.node_id in senders:
                    await node.broadcast(group.sent)
            await asyncio.sleep(0.03)
        await group.settle(timeout=30.0)
        assert group.counts()["violations"] == 0, (config, group.oracle.totals)
        return group.order, group.wire()


class TestOverlayObservationalIdentity:
    def test_lossy_multiparty_exchange(self):
        mesh, mesh_stats = run_virtual(run_differential(MESH, seed=83, size=5))
        over, over_stats = run_virtual(run_differential(OVERLAY, seed=83, size=5))
        # The runs really exercised different disseminators.
        assert mesh_stats.relay_sent == 0
        assert over_stats.relay_sent > 0, "overlay run never relayed"
        assert over_stats.relay_received > 0
        for name in mesh:
            assert set(mesh[name]) == set(over[name])

    def test_single_sender_total_order_is_identical(self):
        """One sender: delivery order is fully determined (seq order),
        so every receiver must observe the identical sequence whichever
        substrate carried it."""
        orders = [
            run_virtual(run_differential(config, seed=97, size=4, rounds=15, senders=("n0",)))[0]
            for config in (MESH, OVERLAY)
        ]
        assert orders[0] == orders[1]
        for name in ("n1", "n2", "n3"):
            assert orders[1][name] == [("n0", seq) for seq in range(1, 16)]

    def test_relay_metrics_exported(self):
        """The relay counters, hop histogram, and diversity gauge reach
        the registry (the observability half of the tentpole)."""

        async def scenario():
            group = await Group.start(
                4, NodeConfig(r=64, k=3, **OVERLAY), 101, 0.20, GaussianDelayModel(5.0, 2.0, 2.0)
            )
            async with group:
                await group.burst(4)
                await group.settle(timeout=30.0)
                pushes = intakes = 0
                for node in group.nodes:
                    snapshot = node.metrics.snapshot()
                    counters = snapshot["counters"]
                    gauges = snapshot["gauges"]
                    pushes += counters["repro_relay_pushes_total"]
                    intakes += counters["repro_relay_first_intake_total"]
                    assert counters["repro_relay_pushes_total"] == (
                        node.overlay.stats.relay_pushes
                    )
                    assert 0.0 <= gauges["repro_overlay_sample_diversity"] <= 1.0
                    assert gauges["repro_overlay_view_size"] == len(node.overlay)
                    assert "repro_relay_hops" in snapshot["histograms"]
                assert pushes > 0 and intakes > 0

        run_virtual(scenario())


# ----------------------------------------------------------------------
# at scale: the 64-node swarm and the flat per-node cost
# ----------------------------------------------------------------------

SWARM = 64


@pytest.mark.parametrize("seed", range(4))
def test_swarm_converges_oracle_clean_from_a_sparse_ring(seed):
    """64 nodes, relay-only (fanout 3, views of 12 out of 63), 5 % loss,
    each starting from a ring of 4 seed peers: view gossip must find the
    rest.  Three rounds of one broadcast per node reach every node once
    the relay wave and anti-entropy settle — zero violations, per-sender
    FIFO — duplicate copies are absorbed, and the views stay diverse
    (no member colonises them: the live rich-get-richer check)."""

    async def scenario():
        config = disjoint_keys(NodeConfig(
            r=3 * SWARM, k=3, retransmit=RetransmitPolicy(initial_timeout=0.05),
            anti_entropy_interval=0.15, dissemination="overlay", fanout=3, view_size=12,
        ))
        group = await Group.start(
            SWARM, config, seed, 0.05, GaussianDelayModel(5.0, 1.0, 0.0), judged=True, ring=4
        )
        async with group:
            for _ in range(3):
                for node in group.nodes:
                    await node.broadcast(group.sent)
                await asyncio.sleep(0.05)
            await group.settle(timeout=240.0)
            assert group.counts()["violations"] == 0, group.oracle.totals
            for name, order in group.order.items():
                last = {}
                for sender, seq in order:
                    assert seq == last.get(sender, 0) + 1, (name, sender, seq)
                    last[sender] = seq

            # The overlay carried the load: one bounded push per
            # broadcast, redundant copies absorbed without re-forwarding.
            stats = [node.overlay.stats for node in group.nodes]
            assert sum(s.relay_pushes for s in stats) == group.sent
            assert sum(s.relay_first_intake for s in stats) > 0
            assert sum(s.relay_duplicates for s in stats) > 0, "no gossip redundancy"

            # The views sample most of the swarm, no member holds half of
            # all view slots, and the per-node gauge stays far above the
            # collapse floor (~1/window ≈ 0.004).
            slots = [address for node in group.nodes for address in node.overlay.digest_targets()]
            occupancy = Counter(slots)
            assert len(occupancy) >= 0.5 * SWARM, occupancy
            assert occupancy.most_common(1)[0][1] <= 0.5 * len(slots), occupancy
            diversities = [node.overlay.sample_diversity() for node in group.nodes]
            assert sum(diversities) / SWARM > 0.05, diversities
            for node, diversity in zip(group.nodes, diversities):
                gauges = node.metrics.snapshot()["gauges"]
                assert gauges["repro_overlay_sample_diversity"] == pytest.approx(diversity)

    run_virtual(scenario())


async def busiest_node_datagrams(dissemination: str, size: int, seed: int = 29) -> float:
    """One source, no loss: ``n0`` broadcasts 8 warm-up messages (they
    spread the views past the seed ring), then 12 counted ones, 20 ms
    apart.  Returns the largest datagrams sent per counted message by
    any one node — the origin on the mesh, the busiest relayer on the
    overlay.  The mesh runs without anti-entropy (its O(N) digests would
    blur the line); the overlay keeps a 1 s round and is charged for
    it."""
    overlay = dissemination == "overlay"
    config = NodeConfig(
        r=64, k=3, anti_entropy_interval=1.0 if overlay else 0.0,
        dissemination=dissemination, fanout=3, view_size=12,
    )
    group = await Group.start(
        size, config, seed, 0.0, GaussianDelayModel(5.0, 1.0, 0.0), ring=4 if overlay else None
    )
    async with group:
        for count in (8, 12):
            before = [node.transport_stats().datagrams_sent for node in group.nodes]
            for index in range(count):
                await group.nodes[0].broadcast(index)
                await asyncio.sleep(0.02)
            await group.settle()
        return max(
            node.transport_stats().datagrams_sent - sent
            for node, sent in zip(group.nodes, before)
        ) / count


def test_overlay_cost_per_node_stays_flat_as_the_swarm_doubles():
    """The overlay's scaling claim, exact for the seed: at fanout 3 the
    busiest node pays the same per message at N = 32 and 64 — 3.0, the
    origin's three eager links (fanout-3 gossip paid 3.25 and 3.33) —
    while the mesh's origin pays N − 1."""
    cost = {
        (mode, size): run_virtual(busiest_node_datagrams(mode, size))
        for mode in ("mesh", "overlay") for size in (32, 64)
    }
    assert cost["mesh", 64] >= 1.6 * cost["mesh", 32], cost
    assert cost["overlay", 64] <= 1.5 * cost["overlay", 32], cost
    assert {key: round(value, 2) for key, value in cost.items()} == {
        ("mesh", 32): 31.0, ("mesh", 64): 63.0, ("overlay", 32): 3.0, ("overlay", 64): 3.0,
    }, cost


# ----------------------------------------------------------------------
# a re-key under relay deltas
# ----------------------------------------------------------------------

REKEY_GROUP = 6


def rekey_config(name, dissemination="overlay"):
    """Membership over the overlay (or the mesh): ``n0`` founds the
    group on keys (0, 1, 2) of a perfect assigner, so every key set is
    disjoint and the delivery condition exact."""
    return NodeConfig(
        r=64, k=3, dissemination=dissemination, fanout=3, view_size=8,
        retransmit=RetransmitPolicy(initial_timeout=0.02), anti_entropy_interval=0.1,
        keys=(0, 1, 2) if name == "n0" else None,
        membership=MembershipConfig(
            seed_peers=() if name == "n0" else ("n0",), join_timeout=0.3,
        ),
    )


async def rekey_mid_traffic(seed, dissemination="overlay"):
    """Six members broadcast at 10/s each (every broadcast a delta
    against the sender's previous one); the coordinator re-tiles K 3 → 2
    a second into it.  Returns the oracle's verdict, each member's new
    keys, and every delivery record."""
    group = await Group.start(
        0, lambda name: rekey_config(name, dissemination), seed, 0.0,
        GaussianDelayModel(5.0, 1.0, 1.0), judged=True, capacity=REKEY_GROUP,
    )
    records = {f"n{index}": Deliveries() for index in range(REKEY_GROUP)}
    async with group:
        founder = await group.join("n0", assigner=PerfectKeyAssigner(64, 3),
                                   on_delivery=records["n0"].append)
        for index in range(1, REKEY_GROUP):
            name = f"n{index}"
            await group.join(name, on_delivery=records[name].append)
        assert await wait_for(lambda: len(founder.membership.view.members) == REKEY_GROUP)
        traffic = asyncio.ensure_future(group.paced(30, rate=10.0))
        await asyncio.sleep(1.0)
        bumped = founder.membership.propose_epoch(2)
        await traffic
        await group.settle()
        keys = {member.node_id: tuple(member.keys) for member in bumped.members}
        assert all(
            tuple(node.endpoint.clock.own_keys) == keys[node.node_id] for node in group.nodes
        )
        return group.counts(), keys, records


def post_bump_deliveries_under_old_keys(keys, records):
    """Every delivery of a sender's broadcasts from its first one under
    its new keys on, rebuilt with any other key set."""
    # A sender's first broadcast under its new keys, from its own record.
    first = {
        name: min(
            record.message.seq for record in own
            if record.local and record.message.timestamp.sender_keys == keys[name]
        )
        for name, own in records.items()
    }
    post_bump = [
        (name, record.message.message_id, record.message.timestamp.sender_keys)
        for name, own in records.items() for record in own
        if not record.local and record.message.seq >= first[record.message.sender]
    ]
    assert len(post_bump) > 100, len(post_bump)
    return [entry for entry in post_bump if entry[2] != keys[entry[1][0]]]


@pytest.mark.parametrize("seed", range(3))
def test_a_rekey_mid_traffic_takes_the_relay_reference_with_it(seed, monkeypatch):
    """The stale-key bug class on the relay path.  A delta carries no
    keys, so a receiver rebuilds it with the keys of the message it
    names.  ``reset_delta_reference`` must drop the origin's
    previous-broadcast slot, or its first post-bump broadcast names a
    pre-bump one and is delivered everywhere under the old keys."""
    monkeypatch.setattr(membership_module, "_ANNOUNCE_INTERVAL", 0.15)
    counts, keys, records = run_virtual(rekey_mid_traffic(seed))
    assert counts["violations"] == 0, counts
    stale = post_bump_deliveries_under_old_keys(keys, records)
    assert not stale, stale[:5]


@pytest.mark.parametrize("seed", range(3))
def test_a_rekey_mid_traffic_takes_the_mesh_reference_with_it(seed, monkeypatch):
    """The same on the mesh, whose links name the sender's previous
    broadcast too since there is one delta rule."""
    monkeypatch.setattr(membership_module, "_ANNOUNCE_INTERVAL", 0.15)
    counts, keys, records = run_virtual(rekey_mid_traffic(seed, "mesh"))
    assert counts["violations"] == 0, counts
    stale = post_bump_deliveries_under_old_keys(keys, records)
    assert not stale, stale[:5]


# ----------------------------------------------------------------------
# relay intake shares the node's one admit path
# ----------------------------------------------------------------------


class RelayRig:
    """One overlay node on a bus between two bare endpoints: ``up``
    injects RELAY envelopes, ``down`` records what gets forwarded and
    ``delivered`` what the node delivered."""

    def __init__(self, **config):
        self.config = config

    async def __aenter__(self):
        self.bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        self.up, down = self.bus.attach("up"), self.bus.attach("down")
        self.forwarded = []
        self.delivered = Deliveries()
        down.set_receiver(lambda data, addr: self.forwarded.append(codec.decode(data)))
        self.node = await create_node(
            "rx",
            NodeConfig(r=16, dissemination="overlay", fanout=2, view_size=4, **self.config),
            transport=self.bus.attach("rx"), on_delivery=self.delivered.append,
        )
        self.node.add_peer("up")
        self.node.add_peer("down")
        # The origin's side of the story: five messages, two codings.
        self.messages = MessageCodec()
        origin = create_endpoint("origin", NodeConfig(r=16, keys=(1, 2, 3)))
        self.sent = [origin.broadcast(f"m{seq}") for seq in range(1, 6)]
        return self

    async def __aexit__(self, *exc_info):
        await self.node.close()

    def full(self, index):
        return self.messages.encode(self.sent[index])

    def delta(self, index):
        return self.messages.encode_delta(self.sent[index], self.sent[index - 1].timestamp.vector)

    async def relay(self, payload):
        await self.up.send("rx", codec.encode(RelayFrame(hops=0, payload=payload)))
        await self.drain()

    async def drain(self):
        """Wait until the node's forwards (or pushes) reached ``down``."""
        await self.bus.drain()
        self.node.session.flush()
        await self.bus.drain()


def forget_everything(node):
    """What a restart without a journal loses: the reference slots and
    the store's bytes (its coverage stays)."""
    node.repair.store = MessageStore(node.endpoint.seen, node._codec)


class TestRelayAdmission:
    def test_delta_body_is_delivered_and_forwarded_verbatim(self):
        async def scenario():
            async with RelayRig() as rig:
                await rig.relay(rig.full(0))
                # The reference is a stored message, nothing per link.
                assert rig.node.store.get("origin", 1) == rig.full(0)
                await rig.relay(rig.delta(1))
                await rig.relay(rig.delta(2))
                assert rig.delivered.payloads() == ["m1", "m2", "m3"]
                assert rig.node.decode_errors == 0
                assert rig.node.transport_stats().delta_ref_misses == 0
                # The wave forwards the body it received: downstream
                # holds the same references this node does.  The store
                # keeps the full encoding for anti-entropy.
                assert [
                    (frame.seq, frame.hops, bytes(frame.payload))
                    for frame in rig.forwarded
                ] == [(1, 1, rig.full(0)), (2, 1, rig.delta(1)), (3, 1, rig.delta(2))]
                assert rig.node.store.get("origin", 3) == rig.full(2)
                # Delta 3 named a message that came as a delta itself:
                # relay intake keeps it as the origin's newest reference,
                # so it resolved without decoding the store.
                assert rig.node.codec_counters.messages_decoded == 1

        asyncio.run(scenario())

    def test_relay_bodies_are_tallied_like_data_bodies(self):
        """Bugfix: only DATA bodies were counted, so a relay node's
        reference-miss ratio read 1.0 after its first miss and its delta
        share read 0.  Copies sent count per link, copies received at
        first intake only."""

        async def scenario():
            async with RelayRig() as rig:
                await rig.relay(rig.full(0))
                await rig.relay(rig.delta(1))
                await rig.relay(rig.delta(1))  # a duplicate copy
                await rig.relay(rig.delta(2))
                up, down = rig.node.transport_stats("up"), rig.node.transport_stats("down")
                assert (up.full_received, up.delta_received) == (1, 2)
                assert (down.full_sent, down.delta_sent) == (1, 2)
                forget_everything(rig.node)
                await rig.relay(rig.delta(3))  # reference (3) held no more
                gauges = rig.node.metrics.snapshot()["gauges"]
                assert gauges["repro_delta_ref_miss_ratio"] == pytest.approx(1 / 3)

        asyncio.run(scenario())

    def test_a_delta_whose_reference_is_missing_is_a_counted_miss(self):
        """A reference this node recorded but no longer holds (a restart,
        an eviction) cannot arrive again: the delta is not delivered,
        not forwarded, not marked seen (a later copy may still resolve),
        and one resync digest goes to the pusher."""

        async def scenario():
            async with RelayRig() as rig:
                await rig.relay(rig.full(0))
                await rig.relay(rig.delta(1))
                forget_everything(rig.node)
                await rig.relay(rig.delta(2))
                await rig.relay(rig.delta(2))  # rate-limited resync
                await asyncio.sleep(0.01)
                node = rig.node
                assert node.transport_stats("up").delta_ref_misses == 2
                assert rig.delivered.payloads() == ["m1", "m2"]
                assert [frame.seq for frame in rig.forwarded] == [1, 2]
                assert not node.endpoint.has_seen(("origin", 3))
                assert node.state_sizes()["parked_deltas"] == 0
                assert node.transport_stats("up").digests_sent == 1
                assert node.decode_errors == 0

        run_virtual(scenario())

    def test_a_delta_that_outruns_its_reference_waits_for_it(self):
        """A reference never recorded is in flight or lost: the delta is
        parked — forwarded (downstream may hold the reference), its
        copies absorbed as duplicates, covered by the node's digest — and
        admitted the moment its reference is."""

        async def scenario():
            async with RelayRig() as rig:
                node = rig.node
                await rig.relay(rig.full(0))
                await rig.relay(rig.delta(2))
                await rig.relay(rig.delta(2))  # a second copy
                assert rig.delivered.payloads() == ["m1"]
                assert node.state_sizes()["parked_deltas"] == 1
                assert [frame.seq for frame in rig.forwarded] == [1, 3]
                assert node.overlay.stats.relay_duplicates == 1
                assert node.repair.digest()["origin"] == (1, (3,))
                await rig.relay(rig.delta(1))
                assert rig.delivered.payloads() == ["m1", "m2", "m3"]
                assert node.state_sizes()["parked_deltas"] == 0
                assert node.store.get("origin", 3) == rig.full(2)
                up = node.transport_stats("up")
                assert (up.delta_received, up.delta_ref_misses) == (2, 0)
                assert node.decode_errors == 0

        run_virtual(scenario())

    def test_the_origin_ships_a_delta_against_its_previous_broadcast(self):
        """Back to back or not: a receiver that meets the delta before
        (o, s − 1) parks it, so the origin needs no grace.  A re-key
        (``reset_delta_reference``) starts over full."""

        async def scenario():
            async with RelayRig() as rig:
                deltas = []

                async def send(payload):
                    await rig.node.broadcast(payload)
                    await rig.drain()
                    deltas.append(MessageCodec.is_delta(rig.forwarded[-1].payload))

                await send("a")
                await send("b")
                await send("c")
                rig.node.reset_delta_reference()
                await send("d")
                await send("e")
                return deltas, rig.node.transport_stats("down")

        deltas, down = run_virtual(scenario())
        assert deltas == [False, True, True, False, True]
        assert (down.full_sent, down.delta_sent) == (2, 3)

    def test_a_body_whose_header_does_not_parse_is_a_frame_error(self):
        """The envelope names no (origin, seq) of its own — it reads the
        body's — so a RELAY whose body header does not parse is dropped
        at the session as a counted frame error."""

        async def scenario():
            async with RelayRig() as rig:
                await rig.relay(rig.full(0))
                data = codec.encode(RelayFrame(hops=0, payload=rig.full(2)))
                at = data.index(b"PC")
                await rig.up.send("rx", data[:at] + b"PX" + data[at + 2 :])
                await rig.drain()
                assert rig.node.session.frame_errors == 1
                assert rig.node.decode_errors == 0
                assert rig.delivered.payloads() == ["m1"]
                assert len(rig.forwarded) == 1
                assert not rig.node.endpoint.has_seen(("origin", 3))

        asyncio.run(scenario())

    def test_departed_sender_is_warned_about_once_on_either_path(self, caplog):
        def warnings():
            return [r for r in caplog.records if "departed sender" in r.getMessage()]

        async def scenario():
            # A bootstrapped group of one: "origin" is not in the view.
            async with RelayRig(membership=MembershipConfig()) as rig:
                await rig.relay(rig.full(0))
                await rig.relay(rig.full(1))
                assert rig.node.stale_frames == 2 and len(warnings()) == 1
                rig.node._handle_wire_message(rig.full(2), "up")
                assert rig.node.stale_frames == 3 and len(warnings()) == 1
                assert rig.delivered.payloads() == []
                assert not rig.forwarded and len(rig.node.store) == 0

        with caplog.at_level("WARNING", logger="repro.net.node"):
            asyncio.run(scenario())
