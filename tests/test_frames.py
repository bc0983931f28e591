"""Wire tests for the reliability frames (DATA/ACK/NACK/DIGEST/HEARTBEAT)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import (
    AckFrame,
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
    ViewFrame,
)
from repro.core.protocol import Message
from repro.core.clocks import ProbabilisticCausalClock

codec = FrameCodec()

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
        assert codec.encode(DataFrame(seq=7, payload=b"x")) == b"PF\x03\x01\x07\x01x"

    def test_truncated_data_rejected(self):
        data = codec.encode(DataFrame(seq=1, payload=b"hello"))
        with pytest.raises(CodecError):
            codec.decode(data[:-3])

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
            RelayFrame(origin="zoë", seq=1, hops=0, payload=b"m"),
            RelayFrame(
                origin="o", seq=1, hops=0, payload=b"m",
                sample=(MemberRecord("zoë", ("h", 1)),),
            ),
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
