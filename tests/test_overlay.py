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
  message sets, per-sender FIFO, zero oracle violations — under the
  same injected drops/dups/reorders the wire differential suite uses.
"""

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MembershipConfig, NodeConfig, create_endpoint, create_node
from repro.core.codec import CodecError, FrameCodec, MemberRecord, MessageCodec, RelayFrame
from repro.core.errors import ConfigurationError
from repro.net import LocalAsyncBus
from repro.net.overlay import PartialView
from repro.sim.network import ConstantDelayModel
from tests.test_wire_differential import Exchange, wait_for

codec = FrameCodec()

MESH = {}  # the defaults
OVERLAY = dict(dissemination="overlay", fanout=3, view_size=8)

origins = st.text(min_size=1, max_size=20)
seqs = st.integers(min_value=0, max_value=2**40)
hops = st.integers(min_value=0, max_value=255)
addresses = st.tuples(
    st.text(min_size=1, max_size=16), st.integers(min_value=0, max_value=65535)
)
samples = st.lists(
    st.tuples(st.text(min_size=1, max_size=12), addresses),
    max_size=6,
    unique_by=lambda m: m[0],
).map(lambda ms: tuple(MemberRecord(n, a) for n, a in ms))
stamps = st.floats(min_value=0.0, max_value=2**40, allow_nan=False)


# ----------------------------------------------------------------------
# RELAY wire format
# ----------------------------------------------------------------------


class TestRelayRoundTrip:
    @given(origin=origins, seq=seqs, hop=hops, sample=samples,
           payload=st.binary(max_size=512), sent_at=stamps)
    @settings(max_examples=200, deadline=None)
    def test_relay_frame(self, origin, seq, hop, sample, payload, sent_at):
        frame = RelayFrame(
            origin=origin, seq=seq, hops=hop, sample=sample,
            payload=payload, sent_at=sent_at,
        )
        assert codec.decode(codec.encode(frame)) == frame


class TestRelayMalformed:
    def _frame(self):
        return RelayFrame(
            origin="origin-node", seq=41, hops=3,
            sample=(MemberRecord("m1", ("h", 9000)),),
            payload=b"payload-bytes", sent_at=12.5,
        )

    @given(cut=st.integers(min_value=1, max_value=30))
    @settings(max_examples=60, deadline=None)
    def test_any_truncation_rejected(self, cut):
        data = codec.encode(self._frame())
        with pytest.raises(CodecError):
            codec.decode(data[:-cut])

    def test_negative_seq_rejected(self):
        with pytest.raises(CodecError):
            codec.encode(RelayFrame(origin="a", seq=-1, hops=0))

    def test_hop_count_out_of_range_rejected(self):
        with pytest.raises(CodecError):
            codec.encode(RelayFrame(origin="a", seq=1, hops=256))
        with pytest.raises(CodecError):
            codec.encode(RelayFrame(origin="a", seq=1, hops=-1))

    def test_oversized_sample_rejected(self):
        sample = tuple(
            MemberRecord(f"m{i}", ("h", i)) for i in range(256)
        )
        with pytest.raises(CodecError):
            codec.encode(RelayFrame(origin="a", seq=1, hops=0, sample=sample))

    def test_corrupt_origin_utf8_rejected(self):
        data = bytearray(codec.encode(self._frame()))
        # Byte 5 is the first origin byte (magic+version+type+len prefix).
        data[6] = 0xFF
        with pytest.raises(CodecError):
            codec.decode(bytes(data))

    def test_payload_length_overrun_rejected(self):
        frame = RelayFrame(origin="a", seq=1, hops=0, payload=b"xyz")
        data = bytearray(codec.encode(frame))
        # Inflate the payload length varint (one byte here) past the
        # buffer's end.
        assert data[-1 - len(b"xyz")] == len(b"xyz")
        data[-1 - len(b"xyz")] = 0x7E
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
        with pytest.raises(ConfigurationError):
            PartialView("n", piggyback_size=-1)
        with pytest.raises(ConfigurationError):
            PartialView("n", merge_probability=1.5)
        with pytest.raises(ConfigurationError):
            PartialView("n", max_hops=0)

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

    def test_merge_probability_throttles(self):
        sample = (MemberRecord("m1", ("h", 1)),)
        never = PartialView("n", merge_probability=0.0, seed=3)
        assert not never.merge_sample(sample)
        assert len(never) == 0
        assert never.stats.merges_skipped == 1
        always = PartialView("n", merge_probability=1.0, seed=3)
        assert always.merge_sample(sample)
        assert ("h", 1) in always
        assert always.stats.merges_applied == 1

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

    def test_gossip_sample_carries_self(self):
        view = PartialView("n", piggyback_size=2, seed=9)
        view.set_local_address(("me", 7))
        for i in range(5):
            view.add(("h", i), f"m{i}")
        sample = view.gossip_sample()
        assert MemberRecord("n", ("me", 7)) in sample
        assert len(sample) <= 3  # piggyback_size + self

    def test_sample_diversity_detects_collapse(self):
        view = PartialView("n", merge_probability=0.0, seed=11)
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
# Same scripted scenario, same injected faults, two dissemination
# substrates.  The overlay run must be indistinguishable above the
# codec: identical delivered message sets, per-sender FIFO, zero
# causal violations against the ground-truth oracle (disjoint key sets
# make the zero sound).  The wire stats double-check that the overlay
# run actually relayed and the mesh run never did.


async def run_differential(wire_kwargs, *, seed, names, rounds=6):
    exchange = Exchange(names, wire_kwargs, seed)
    for name in names:
        await exchange.boot(name)
    for _ in range(rounds):
        for name in names:
            await exchange.broadcast(name)
        await asyncio.sleep(0.03)
    assert await wait_for(exchange.converged), (
        f"no convergence ({wire_kwargs or 'mesh'}): "
        f"sent={len(exchange.sent)}, "
        f"delivered={ {n: len(o) for n, o in exchange.order.items()} }"
    )
    exchange.assert_observations()
    stats = exchange.merged_stats()
    await exchange.close()
    return exchange, stats


class TestOverlayObservationalIdentity:
    def test_lossy_multiparty_exchange(self):
        """Drops + dups + reorders over loopback UDP: overlay and mesh
        deliver the same message sets with zero oracle violations."""

        async def scenario():
            names = ("a", "b", "c", "d", "e")
            mesh, mesh_stats = await run_differential(MESH, seed=83, names=names)
            over, over_stats = await run_differential(OVERLAY, seed=83, names=names)
            # The runs really exercised different disseminators.
            assert mesh_stats.relay_sent == 0
            assert over_stats.relay_sent > 0, "overlay run never relayed"
            assert over_stats.relay_received > 0
            for name in mesh.order:
                assert set(mesh.order[name]) == set(over.order[name])

        asyncio.run(scenario())

    def test_single_sender_total_order_is_identical(self):
        """One sender: delivery order is fully determined (seq order),
        so every receiver must observe the identical sequence whichever
        substrate carried it."""

        async def scenario():
            orders = {}
            for label, wire in (("mesh", MESH), ("overlay", OVERLAY)):
                names = ("tx", "rx1", "rx2", "rx3")
                exchange = Exchange(names, wire, seed=97)
                for name in names:
                    await exchange.boot(name)
                for _ in range(15):
                    await exchange.broadcast("tx")
                assert await wait_for(exchange.converged), f"{label} stalled"
                exchange.assert_observations()
                orders[label] = {
                    name: list(exchange.order[name])
                    for name in ("rx1", "rx2", "rx3")
                }
                await exchange.close()
            assert orders["mesh"] == orders["overlay"]
            for order in orders["overlay"].values():
                assert order == [("tx", i) for i in range(1, 16)]

        asyncio.run(scenario())

    def test_relay_metrics_exported(self):
        """The relay counters, hop histogram, and diversity gauge reach
        the registry (the observability half of the tentpole)."""

        async def scenario():
            names = ("a", "b", "c", "d")
            exchange = Exchange(names, OVERLAY, seed=101)
            for name in names:
                await exchange.boot(name)
            for _ in range(4):
                for name in names:
                    await exchange.broadcast(name)
                await asyncio.sleep(0.03)
            assert await wait_for(exchange.converged)
            pushes = intakes = 0
            for node in exchange.nodes.values():
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
            await exchange.close()

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# relay intake shares the node's one admit path
# ----------------------------------------------------------------------


class RelayRig:
    """One overlay node on a bus between two bare endpoints: ``up``
    injects RELAY envelopes, ``down`` records what gets forwarded."""

    def __init__(self, **config):
        self.config = config

    async def __aenter__(self):
        self.bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        self.up, down = self.bus.attach("up"), self.bus.attach("down")
        self.forwarded = []
        down.set_receiver(lambda data, addr: self.forwarded.append(codec.decode(data)))
        self.node = await create_node(
            "rx",
            NodeConfig(r=16, dissemination="overlay", fanout=2, view_size=4, **self.config),
            transport=self.bus.attach("rx"),
        )
        self.node.add_peer("up")
        self.node.add_peer("down")
        # The origin's side of the story: three messages, two codings.
        self.messages = MessageCodec()
        origin = create_endpoint("origin", NodeConfig(r=16, keys=(1, 2, 3)))
        self.sent = [origin.broadcast(f"m{seq}") for seq in (1, 2, 3)]
        return self

    async def __aexit__(self, *exc_info):
        await self.node.close()

    def full(self, index):
        return self.messages.encode(self.sent[index])

    def delta(self, index, ref=0):
        reference = self.sent[ref]
        return self.messages.encode_delta(
            self.sent[index], reference.seq, reference.timestamp.vector
        )

    async def relay(self, seq, payload, origin="origin"):
        frame = RelayFrame(
            origin=origin, seq=seq, hops=0, sent_at=0.0, sample=(), payload=payload
        )
        await self.up.send("rx", codec.encode(frame))
        await self.bus.drain()


class TestRelayAdmission:
    def test_delta_body_is_delivered_and_forwarded_full(self):
        async def scenario():
            async with RelayRig() as rig:
                await rig.relay(1, rig.full(0))
                # The reference is a stored message, nothing per link.
                assert rig.node.store.get("origin", 1) == rig.full(0)
                await rig.relay(2, rig.delta(1))
                assert rig.node.delivered_payloads() == ["m1", "m2"]
                assert rig.node.decode_errors == 0
                assert rig.node.transport_stats().delta_ref_misses == 0
                # Downstream holds no reference: forwards travel full,
                # byte-identical to the origin's own encoding.
                assert [
                    (frame.seq, frame.hops, bytes(frame.payload))
                    for frame in rig.forwarded
                ] == [(1, 1, rig.full(0)), (2, 1, rig.full(1))]

        asyncio.run(scenario())

    def test_envelope_contradicting_its_body_is_a_decode_error(self):
        async def scenario():
            async with RelayRig() as rig:
                await rig.relay(1, rig.full(0))
                await rig.relay(7, rig.full(2))   # body says seq 3
                await rig.relay(8, rig.delta(2))  # ...on both encodings
                await rig.relay(3, rig.full(2), origin="impostor")
                assert rig.node.decode_errors == 3
                assert rig.node.delivered_payloads() == ["m1"]
                assert len(rig.forwarded) == 1
                # Believing the header would have poisoned the filter.
                assert not rig.node.endpoint.has_seen(("origin", 7))
                assert not rig.node.store.knows("origin", 3)

        asyncio.run(scenario())

    def test_departed_sender_is_warned_about_once_on_either_path(self, caplog):
        def warnings():
            return [r for r in caplog.records if "departed sender" in r.getMessage()]

        async def scenario():
            # A bootstrapped group of one: "origin" is not in the view.
            async with RelayRig(membership=MembershipConfig()) as rig:
                await rig.relay(1, rig.full(0))
                await rig.relay(2, rig.full(1))
                assert rig.node.stale_frames == 2 and len(warnings()) == 1
                rig.node._handle_wire_message(rig.full(2), "up")
                assert rig.node.stale_frames == 3 and len(warnings()) == 1
                assert rig.node.delivered_payloads() == []
                assert not rig.forwarded and len(rig.node.store) == 0

        with caplog.at_level("WARNING", logger="repro.net.node"):
            asyncio.run(scenario())
