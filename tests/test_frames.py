"""Wire tests for the reliability frames (DATA/ACK/NACK/DIGEST/HEARTBEAT),
the membership frames and the overlay's eager-tree frame (PRUNE/GRAFT)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import (
    AckFrame,
    BatchFrame,
    CodecError,
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
    TreeFrame,
    ViewFrame,
    encode_varint,
)
from repro.core.protocol import Message
from repro.core.clocks import ProbabilisticCausalClock

codec = FrameCodec()


def body(sender="zoë", seq=1, payload="m"):
    """A message encoding (what a RELAY carries) from ``sender``."""
    clock = ProbabilisticCausalClock(16, (0, 3))
    for _ in range(seq):
        stamp = clock.prepare_send()
    return MessageCodec().encode(Message(sender=sender, seq=seq, timestamp=stamp, payload=payload))

seqs = st.integers(min_value=0, max_value=2**40)
ascending = st.lists(
    st.integers(min_value=1, max_value=2**20), min_size=0, max_size=16, unique=True
).map(sorted).map(tuple)


class TestRoundTrip:
    @given(seq=seqs, payload=st.binary(max_size=512))
    @settings(max_examples=200, deadline=None)
    def test_data_frame(self, seq, payload):
        frame = DataFrame(seq=seq, payload=payload)
        assert codec.decode(codec.encode(frame)) == frame

    @given(cumulative=seqs, deltas=ascending)
    @settings(max_examples=200, deadline=None)
    def test_ack_frame(self, cumulative, deltas):
        sacks = tuple(cumulative + d for d in deltas)
        frame = AckFrame(cumulative=cumulative, sacks=sacks)
        assert codec.decode(codec.encode(frame)) == frame

    @given(first=st.integers(min_value=1, max_value=2**40), deltas=ascending)
    @settings(max_examples=200, deadline=None)
    def test_nack_frame(self, first, deltas):
        missing = (first,) + tuple(first + d for d in deltas)
        frame = NackFrame(missing=missing)
        assert codec.decode(codec.encode(frame)) == frame

    @given(
        frontiers=st.dictionaries(
            st.text(min_size=1, max_size=12),
            st.tuples(st.integers(min_value=0, max_value=2**30), ascending),
            max_size=8,
        ).map(
            lambda d: {
                sender: (contiguous, tuple(contiguous + delta for delta in extras))
                for sender, (contiguous, extras) in d.items()
            }
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_digest_frame(self, frontiers):
        frame = DigestFrame(frontiers=frontiers)
        assert codec.decode(codec.encode(frame)) == frame

    @given(count=st.integers(min_value=0, max_value=2**60))
    @settings(max_examples=200, deadline=None)
    def test_heartbeat_frame(self, count):
        frame = HeartbeatFrame(count=count)
        assert codec.decode(codec.encode(frame)) == frame


class TestDispatch:
    def test_frames_and_messages_are_distinguishable(self):
        """Frame magic differs from message magic at the first bytes."""
        message_codec = MessageCodec()
        clock = ProbabilisticCausalClock(16, (0, 3))
        message = Message(
            sender="p", seq=1, timestamp=clock.prepare_send(), payload="x"
        )
        message_bytes = message_codec.encode(message)
        frame_bytes = codec.encode(DataFrame(seq=1, payload=message_bytes))
        assert FrameCodec.is_frame(frame_bytes)
        assert not FrameCodec.is_frame(message_bytes)
        # And a DATA frame's payload round-trips the inner message.
        inner = codec.decode(frame_bytes).payload
        assert message_codec.decode(inner).payload == "x"

    def test_empty_and_short_data_not_frames(self):
        assert not FrameCodec.is_frame(b"")
        assert not FrameCodec.is_frame(b"PF")


class TestMalformed:
    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            codec.decode(b"XX\x01\x01")

    def test_unknown_type_rejected(self):
        with pytest.raises(CodecError):
            codec.decode(b"PF\x01\x63" + b"\x00" * 16)

    def test_unknown_version_rejected(self):
        data = bytearray(codec.encode(DataFrame(seq=1, payload=b"x")))
        data[2] = 99
        with pytest.raises(CodecError):
            codec.decode(bytes(data))

    def test_version_2_frame_rejected(self):
        """A v2 DATA frame (fixed-width u64 seq, u32 length) is refused
        by its version byte, never misread as varints."""
        v2 = b"PF" + struct.pack("<BBQI", 2, 1, 7, 1) + b"x"
        with pytest.raises(CodecError, match="unsupported frame version 2"):
            codec.decode(v2)
        assert codec.encode(DataFrame(seq=7, payload=b"x")) == b"PF\x04\x01\x07x"

    def test_truncated_data_rejected(self):
        """A cut seq is an error; the payload runs to the datagram's end,
        which the transport delivers whole or not at all."""
        data = codec.encode(DataFrame(seq=300, payload=b"hello"))
        with pytest.raises(CodecError):
            codec.decode(data[:5])
        assert codec.decode(data[:-3]) == DataFrame(seq=300, payload=b"he")

    def test_truncated_digest_rejected(self):
        data = codec.encode(DigestFrame({"alice": (5, (7, 9))}))
        with pytest.raises(CodecError):
            codec.decode(data[:-1])

    def test_empty_nack_rejected(self):
        with pytest.raises(CodecError):
            codec.encode(NackFrame(missing=()))

    def test_non_ascending_sack_rejected(self):
        with pytest.raises(CodecError):
            codec.encode(AckFrame(cumulative=10, sacks=(5,)))

    def test_negative_heartbeat_count_rejected(self):
        with pytest.raises(CodecError):
            codec.encode(HeartbeatFrame(count=-1))

    def test_truncated_heartbeat_rejected(self):
        data = codec.encode(HeartbeatFrame(count=7))
        with pytest.raises(CodecError):
            codec.decode(data[:-2])


class TestTornBuffers:
    """Anything short of a whole, well-formed frame is a
    :class:`CodecError` — never a stray ``UnicodeDecodeError`` or
    ``struct.error`` out of the receive upcall."""

    @pytest.mark.parametrize(
        "frame",
        [
            DigestFrame({"zoë": (5, (7, 9))}),
            RelayFrame(hops=0, payload=body("zoë")),
            RelayFrame(hops=0, payload=body("o"), sample=(MemberRecord("zoë", ("h", 1)),)),
            ViewFrame(view_id=3, members=(MemberRecord("zoë", ("h", 1), (0, 1)),)),
            JoinFrame(node_id="zoë", address=("h", 1)),
            JoinAckFrame(
                accepted=True, view_id=1, r=4, k=1, keys=(0,), members=(),
                frontiers={"zoë": (3, ())}, vector=(0,) * 4,
            ),
            JoinAckFrame(
                accepted=False, view_id=1, r=4, k=1, keys=(), members=(),
                reason="zoë is full",
            ),
            LeaveFrame(node_id="zoë"),
            TreeFrame(origin="zoë"),
        ],
        ids=lambda frame: type(frame).__name__,
    )
    def test_id_that_is_not_utf8_raises_codec_error(self, frame):
        encoded = codec.encode(frame)
        good, bad = "ë".encode("utf-8"), b"\xc3\x28"
        assert encoded.count(good) == 1
        with pytest.raises(CodecError):
            codec.decode(encoded.replace(good, bad))


# ----------------------------------------------------------------------
# membership frames (VIEW / JOIN / JOIN_ACK / LEAVE)
# ----------------------------------------------------------------------

addresses = st.tuples(
    st.text(min_size=1, max_size=20), st.integers(min_value=0, max_value=65535)
)
key_sets = st.lists(
    st.integers(min_value=0, max_value=255), min_size=0, max_size=8, unique=True
).map(sorted).map(tuple)
members = st.lists(
    st.tuples(st.text(min_size=1, max_size=12), addresses, key_sets),
    max_size=6,
    unique_by=lambda m: m[0],
).map(lambda ms: tuple(MemberRecord(n, a, k) for n, a, k in ms))


class TestMembershipRoundTrip:
    @given(view_id=seqs, records=members)
    @settings(max_examples=150, deadline=None)
    def test_view_frame(self, view_id, records):
        frame = ViewFrame(view_id=view_id, members=records)
        assert codec.decode(codec.encode(frame)) == frame

    @given(node_id=st.text(min_size=1, max_size=20), address=addresses,
           keys=key_sets)
    @settings(max_examples=150, deadline=None)
    def test_join_frame(self, node_id, address, keys):
        frame = JoinFrame(node_id=node_id, address=address, keys=keys)
        assert codec.decode(codec.encode(frame)) == frame

    @given(
        accepted=st.booleans(),
        view_id=seqs,
        keys=key_sets,
        records=members,
        frontiers=st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.tuples(seqs, ascending),
            max_size=4,
        ).map(
            lambda d: {
                sender: (contiguous, tuple(contiguous + delta for delta in extras))
                for sender, (contiguous, extras) in d.items()
            }
        ),
        vector=st.lists(
            st.integers(min_value=0, max_value=2**30), max_size=32
        ).map(tuple),
        reason=st.text(max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_join_ack_frame(
        self, accepted, view_id, keys, records, frontiers, vector, reason
    ):
        frame = JoinAckFrame(
            accepted=accepted, view_id=view_id, r=256, k=len(keys) or 1,
            keys=keys, members=records, frontiers=frontiers,
            vector=vector, reason=reason,
        )
        assert codec.decode(codec.encode(frame)) == frame

    @given(node_id=st.text(min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_leave_frame(self, node_id):
        frame = LeaveFrame(node_id=node_id)
        assert codec.decode(codec.encode(frame)) == frame

    def test_list_address_decodes_as_tuple(self):
        # JSON has no tuples; decoding canonicalises to tuples so
        # addresses stay usable as dict keys / transport targets.
        frame = JoinFrame(node_id="n", address=["10.0.0.1", 9000], keys=())
        decoded = codec.decode(codec.encode(frame))
        assert decoded.address == ("10.0.0.1", 9000)


class TestMembershipMalformed:
    def test_truncated_view_rejected(self):
        frame = ViewFrame(
            view_id=3,
            members=(MemberRecord("a", ("h", 1), (0, 1)),),
        )
        with pytest.raises(CodecError):
            codec.decode(codec.encode(frame)[:-2])

    def test_truncated_join_ack_rejected(self):
        frame = JoinAckFrame(
            accepted=True, view_id=1, r=16, k=2, keys=(0, 1),
            members=(), frontiers={"a": (3, ())}, vector=(0,) * 16,
        )
        with pytest.raises(CodecError):
            codec.decode(codec.encode(frame)[:-1])

    def test_unencodable_address_rejected(self):
        with pytest.raises(CodecError):
            codec.encode(JoinFrame(node_id="n", address=object(), keys=()))


# ----------------------------------------------------------------------
# the eager-tree frame (PRUNE / GRAFT)
# ----------------------------------------------------------------------


class TestTreeFrame:
    @pytest.mark.parametrize(
        "frame",
        [TreeFrame(origin="n7"), TreeFrame(origin="n7", graft=True), TreeFrame(graft=True),
         TreeFrame()],
        ids=["prune", "graft", "graft-every-origin", "prune-every-origin"],
    )
    def test_round_trip(self, frame):
        assert codec.decode(codec.encode(frame)) == frame

    @given(origin=st.text(max_size=40), graft=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_any_origin_round_trips(self, origin, graft):
        frame = TreeFrame(origin=origin, graft=graft)
        assert codec.decode(codec.encode(frame)) == frame

    def test_layout(self):
        """Magic, version, type 12, the graft byte, then the origin
        behind its varint length."""
        assert codec.encode(TreeFrame(origin="ab", graft=True)) == (
            b"PF" + bytes((4, 12, 1, 2)) + b"ab"
        )

    @pytest.mark.parametrize("cut", range(1, 6))
    def test_truncated_body_rejected(self, cut):
        data = codec.encode(TreeFrame(origin="n7"))
        with pytest.raises(CodecError):
            codec.decode(data[:-cut])

    def test_unknown_flag_bits_rejected(self):
        data = bytearray(codec.encode(TreeFrame(origin="n7", graft=True)))
        for flags in (0x02, 0x81, 0xFF):
            data[4] = flags
            with pytest.raises(CodecError):
                codec.decode(bytes(data))


# ----------------------------------------------------------------------
# frame version 4: one magic per datagram, bodies to the end of their
# frame, the RELAY's id read from its body, IPv4 addresses in binary
# ----------------------------------------------------------------------

ADDRESSES = [
    ("127.0.0.1", 9730),  # binary from here ...
    ("10.1.2.3", 0),
    ("255.255.255.255", 65535),  # ... to here
    ("localhost", 9730),  # JSON from here on: a host name,
    ("::1", 9730, 0, 0),  # an IPv6 tuple,
    ("127.000.0.1", 9730),  # a host that is not canonical,
    ("10.0.0.1", 70000),  # a port past 16 bits,
    "n3",  # a bus name
]
MEMBERS = tuple(MemberRecord(f"m{i}", address, (i,)) for i, address in enumerate(ADDRESSES))
EVERY_FRAME = [
    DataFrame(seq=9, payload=body()),
    DataFrame(seq=300, payload=b""),
    AckFrame(cumulative=5, sacks=(7, 9)),
    NackFrame(missing=(2, 4)),
    DigestFrame({"zoë": (5, (7, 9)), "a": (0, ())}),
    HeartbeatFrame(count=3),
    ViewFrame(view_id=2, members=MEMBERS, epoch=1),
    JoinFrame(node_id="zoë", address=("127.0.0.1", 9730), keys=(4, 5)),
    JoinAckFrame(
        accepted=True, view_id=2, r=16, k=2, keys=(4, 5), members=MEMBERS,
        frontiers={"zoë": (2, ())}, vector=tuple(range(16)), epoch=1,
    ),
    LeaveFrame(node_id="zoë"),
    RelayFrame(hops=2, payload=body("o", seq=3), sample=MEMBERS),
    RelayFrame(hops=0, payload=body()),
    TreeFrame(origin="n7", graft=True),
]


class TestFrameVersion4:
    @pytest.mark.parametrize("frame", EVERY_FRAME, ids=lambda frame: type(frame).__name__)
    def test_every_frame_round_trips(self, frame):
        data = codec.encode(frame)
        assert data[:3] == b"PF\x04"
        assert codec.decode(data) == frame
        assert codec.encode(codec.decode(data)) == data

    def test_a_batch_sends_one_magic_and_its_elements_decode_alone(self):
        inner = tuple(codec.encode(frame) for frame in EVERY_FRAME)
        for ack in (None, AckFrame(cumulative=3, sacks=(5,))):
            data = codec.encode(BatchFrame(frames=inner, ack=ack))
            # Type, flags and the ack behind the one header; then per
            # element its length, type and body, without magic or version.
            head = 5 + (len(codec.encode(ack)) - 4 if ack else 0)
            assert len(data) == head + sum(len(f) - 3 + len(encode_varint(len(f) - 3)) for f in inner)
            batch = codec.decode(data)
            assert batch == BatchFrame(frames=inner, ack=ack)
            assert [codec.decode(element) for element in batch.frames] == EVERY_FRAME

    @pytest.mark.parametrize("address", ADDRESSES + [["10.0.0.1", 9000]], ids=str)
    def test_every_address_form_round_trips(self, address):
        data = codec.encode(JoinFrame(node_id="n", address=address))
        binary = address in ADDRESSES[:3]
        # magic, version, type, the id's length and byte, then the tag
        assert data[6] == (1 if binary else 0)
        if binary:
            assert len(data) == 6 + 1 + 4 + 2 + 1  # tag, quad, port, no keys
        expected = tuple(address) if isinstance(address, list) else address
        assert codec.decode(data).address == expected

    def test_a_sample_free_relay_copy_costs_its_body_plus_six_bytes(self):
        """Magic, version, type, hops and an empty sample's count: the
        body's own header names (origin, seq), and its end is the
        datagram's."""
        for payload in (body(), body("a-much-longer-sender-id", seq=40, payload="x" * 300)):
            assert len(codec.encode(RelayFrame(hops=0, payload=payload))) == len(payload) + 6
        frame = codec.decode(codec.encode(RelayFrame(hops=1, payload=body("o", seq=3))))
        assert (frame.origin, frame.seq, frame.hops) == ("o", 3, 1)

    def test_a_truncated_inner_frame_is_rejected(self):
        data = codec.encode(BatchFrame(frames=(codec.encode(HeartbeatFrame(count=1)),) * 2))
        for cut in (1, 2):  # the last element's body, then its type byte
            with pytest.raises(CodecError, match="truncated BATCH inner frame"):
                codec.decode(data[:-cut])
        bad = bytearray(data)
        bad[-3] = 9  # the last element's length, past the datagram's end
        with pytest.raises(CodecError, match="truncated BATCH inner frame"):
            codec.decode(bytes(bad))

    def test_an_unknown_address_tag_is_rejected(self):
        data = bytearray(codec.encode(JoinFrame(node_id="n", address=("127.0.0.1", 1))))
        data[6] = 2
        with pytest.raises(CodecError, match="unknown address tag 2"):
            codec.decode(bytes(data))

    def test_a_relay_body_whose_header_does_not_parse_is_rejected(self):
        data = codec.encode(RelayFrame(hops=0, payload=body()))
        for bad in (
            data[:6] + b"PX" + data[8:],  # not a message's magic
            data[:8] + b"\x09" + data[9:],  # an unknown message version
            data[:14],  # cut inside the sender id
        ):
            with pytest.raises(CodecError):
                codec.decode(bad)
        with pytest.raises(CodecError):
            RelayFrame(hops=0, payload=b"not a message")

    def test_a_version_3_frame_is_rejected(self):
        for frame in (HeartbeatFrame(count=1), BatchFrame(frames=(codec.encode(HeartbeatFrame(count=1)),) * 2)):
            data = codec.encode(frame)
            with pytest.raises(CodecError, match="unsupported frame version 3"):
                codec.decode(data[:2] + b"\x03" + data[3:])
