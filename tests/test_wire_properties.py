"""Property tests for the wire formats (messages, deltas, frames).

Two families of invariants, hypothesis-driven:

* every frame type (DATA/ACK/NACK/DIGEST/HEARTBEAT/BATCH) round-trips
  ``encode -> decode -> encode`` byte-identically — the retransmit
  path stores encoded frames, so a re-encode that drifted by one byte
  would silently fork the wire history;
* DELTA differential — ``encode_delta -> decode_delta`` reconstructs a
  message bit-identical to its full encoding (same vector values and
  dtype, keys, seq, payload), for arbitrary reference/increment splits,
  through either entry layout (a list or a bitmap, built here from the
  layout's definition), and the encoder sends the smaller one;

and every truncation of a generated message or frame is rejected as a
``CodecError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocks import Timestamp
from repro.core.codec import (
    AckFrame,
    BatchFrame,
    CodecError,
    DataFrame,
    DigestFrame,
    FrameCodec,
    HeartbeatFrame,
    JsonPayloadCodec,
    MessageCodec,
    NackFrame,
    encode_varint,
)
from repro.core.protocol import Message


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

SENDERS = st.text(min_size=1, max_size=12)
SEQS = st.integers(min_value=1, max_value=2**48)


@st.composite
def messages(draw):
    r = draw(st.integers(min_value=1, max_value=64))
    key_count = draw(st.integers(min_value=1, max_value=min(4, r)))
    keys = tuple(
        sorted(
            draw(
                st.lists(
                    st.integers(0, r - 1),
                    min_size=key_count,
                    max_size=key_count,
                    unique=True,
                )
            )
        )
    )
    entries = draw(
        st.lists(st.integers(0, 2**40), min_size=r, max_size=r)
    )
    vector = np.asarray(entries, dtype=np.int64)
    vector.flags.writeable = False
    sender = draw(SENDERS)
    seq = draw(SEQS)
    payload = draw(
        st.none()
        | st.integers(-(2**31), 2**31)
        | st.text(max_size=32)
        | st.lists(st.integers(-100, 100), max_size=8)
    )
    return Message(
        sender=sender,
        seq=seq,
        timestamp=Timestamp(vector=vector, sender_keys=keys, seq=seq),
        payload=payload,
    )


@st.composite
def ascending_above(draw, base, max_size=16):
    gaps = draw(
        st.lists(st.integers(1, 1000), min_size=0, max_size=max_size)
    )
    values, current = [], base
    for gap in gaps:
        current += gap
        values.append(current)
    return tuple(values)


@st.composite
def inner_frames(draw):
    kind = draw(st.sampled_from(["data", "ack", "nack", "digest", "heartbeat"]))
    if kind == "data":
        return DataFrame(
            seq=draw(st.integers(0, 2**60)),
            payload=draw(st.binary(max_size=200)),
        )
    if kind == "ack":
        cumulative = draw(st.integers(0, 2**40))
        return AckFrame(
            cumulative=cumulative,
            sacks=draw(ascending_above(cumulative)),
        )
    if kind == "nack":
        first = draw(st.integers(0, 2**40))
        return NackFrame(missing=(first,) + draw(ascending_above(first)))
    if kind == "digest":
        frontiers = {}
        for sender in draw(st.lists(SENDERS, max_size=4, unique=True)):
            contiguous = draw(st.integers(0, 2**40))
            frontiers[sender] = (contiguous, draw(ascending_above(contiguous)))
        return DigestFrame(frontiers=frontiers)
    return HeartbeatFrame(count=draw(st.integers(0, 2**60)))


@st.composite
def frames(draw):
    codec = FrameCodec()
    if draw(st.booleans()):
        return draw(inner_frames())
    inners = draw(st.lists(inner_frames(), min_size=1, max_size=5))
    ack = None
    if draw(st.booleans()):
        cumulative = draw(st.integers(0, 2**40))
        ack = AckFrame(cumulative=cumulative, sacks=draw(ascending_above(cumulative)))
    return BatchFrame(
        frames=tuple(codec.encode(inner) for inner in inners), ack=ack
    )


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------


class TestMessageRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(messages())
    def test_encode_decode_encode_is_identity(self, message):
        codec = MessageCodec()
        data = codec.encode(message)
        decoded = codec.decode(data)
        assert codec.encode(decoded) == data
        assert decoded.sender == message.sender
        assert decoded.seq == message.seq
        assert decoded.timestamp.sender_keys == message.timestamp.sender_keys
        assert decoded.timestamp.vector.dtype == np.int64
        assert np.array_equal(decoded.timestamp.vector, message.timestamp.vector)


class TestFrameRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(frames())
    def test_encode_decode_encode_is_identity(self, frame):
        codec = FrameCodec()
        data = codec.encode(frame)
        decoded = codec.decode(data)
        assert type(decoded) is type(frame)
        assert codec.encode(decoded) == data


class TestTornBuffers:
    """Anything short of a whole message or frame is a
    :class:`CodecError` — never a stray ``UnicodeDecodeError`` or
    ``struct.error`` out of the receive upcall."""

    @settings(max_examples=150, deadline=None)
    @given(messages(), st.data())
    def test_truncated_message_raises_codec_error(self, message, data):
        codec = MessageCodec()
        encoded = codec.encode(message)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        with pytest.raises(CodecError):
            codec.decode(encoded[:cut])

    @settings(max_examples=150, deadline=None)
    @given(frames(), st.data())
    def test_truncated_frame_raises_codec_error(self, frame, data):
        """A DATA payload and a BATCH's element list run to the end of
        the datagram, so a cut there reads as a shorter frame — never as
        the frame sent; every other cut is an error."""
        codec = FrameCodec()
        encoded = codec.encode(frame)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        try:
            decoded = codec.decode(encoded[:cut])
        except CodecError:
            return
        assert isinstance(frame, (DataFrame, BatchFrame)) and decoded != frame


class TestDeltaDifferential:
    @settings(max_examples=200, deadline=None)
    @given(messages(), st.data())
    def test_delta_reconstructs_bit_identically(self, message, data):
        codec = MessageCodec()
        vector = message.timestamp.vector
        increments = np.asarray(
            data.draw(
                st.lists(
                    st.integers(0, 500),
                    min_size=len(vector),
                    max_size=len(vector),
                )
            ),
            dtype=np.int64,
        )
        ref_vector = np.maximum(vector - increments, 0)
        ref_vector.flags.writeable = False
        if message.seq < 2:
            with pytest.raises(CodecError, match="no previous"):
                codec.encode_delta(message, ref_vector)
            return

        delta = codec.encode_delta(message, ref_vector)
        assert MessageCodec.is_delta(delta)
        assert not MessageCodec.is_delta(codec.encode(message))
        sender, seq, _ = codec.delta_header(delta)
        assert (sender, seq) == (message.sender, message.seq)

        decoded = codec.decode_delta(
            delta, ref_vector, message.timestamp.sender_keys
        )
        full = codec.full_from_delta(
            delta, decoded.timestamp.vector, message.timestamp.sender_keys, codec.epoch
        )
        assert full == codec.encode(decoded) == codec.encode(message)
        assert decoded.timestamp.vector.dtype == np.int64
        assert np.array_equal(decoded.timestamp.vector, vector)
        assert decoded.timestamp.sender_keys == message.timestamp.sender_keys
        assert decoded.payload == codec.decode(codec.encode(message)).payload

    @settings(max_examples=100, deadline=None)
    @given(messages())
    def test_delta_never_larger_than_full_plus_slack(self, message):
        """Against an up-to-date reference the delta is strictly smaller
        than the full encoding whenever R is non-trivial."""
        codec = MessageCodec()
        if message.seq < 2 or message.timestamp.size < 8:
            return
        delta = codec.encode_delta(message, message.timestamp.vector)
        assert len(delta) < len(codec.encode(message))


def layout_body(delta: bytes, message: Message, diff, bitmap: bool) -> bytes:
    """``delta`` with its entry block rebuilt in one layout from the
    definition: the list is a count, then per changed entry the varint
    ``(index gap << 1) | (increment != 1)`` and ``increment - 2`` when
    that bit is set; the bitmap is an R-bit map of the changed entries,
    an n-bit map of those whose increment is not 1, and their
    ``increment - 2``.  Bitmaps are little-endian: bit i is bit i % 8 of
    byte i // 8."""
    _, _, offset = MessageCodec().delta_header(delta)
    changed = [index for index, step in enumerate(diff) if step]
    others = [position for position, index in enumerate(changed) if diff[index] != 1]
    if bitmap:
        entries = sum(1 << index for index in changed).to_bytes((len(diff) + 7) // 8, "little")
        entries += sum(1 << position for position in others).to_bytes(
            (len(changed) + 7) // 8, "little"
        )
        entries += b"".join(encode_varint(int(diff[changed[p]]) - 2) for p in others)
    else:
        entries, previous = encode_varint(len(changed)), 0
        for index in changed:
            step = int(diff[index])
            entries += encode_varint((index - previous) << 1 | (step != 1))
            if step != 1:
                entries += encode_varint(step - 2)
            previous = index
    payload = JsonPayloadCodec().encode(message.payload)
    flags = bytes((delta[3] & ~0x04 | (0x04 if bitmap else 0),))
    return delta[:3] + flags + delta[4:offset] + entries + encode_varint(len(payload)) + payload


# Increments worth hitting: 1 (no exception), 2 (exception 0), the
# one- and two-byte varint edges of an exception, and a large one.
STEPS = st.sampled_from([0, 0, 1, 1, 1, 2, 127, 128, 129, 130, 10**6]) | st.integers(0, 300)


@st.composite
def layout_cases(draw):
    """A message and a reference it grew from by ``diff``; R need not be
    a multiple of 8 and gaps between changed entries straddle 63/64."""
    r = draw(st.integers(1, 200))
    shape = draw(st.sampled_from(["none", "all", "sparse", "random"]))
    if shape == "none":
        diff = [0] * r
    elif shape == "all":
        diff = draw(st.lists(STEPS.filter(bool), min_size=r, max_size=r))
    elif shape == "sparse":
        diff, index = [0] * r, draw(st.integers(0, r - 1))
        while index < r:
            diff[index] = draw(STEPS.filter(bool))
            index += draw(st.sampled_from([1, 63, 64, 65, 127, 128]))
    else:
        diff = draw(st.lists(STEPS, min_size=r, max_size=r))
    ref = np.asarray(draw(st.lists(st.integers(0, 2**40), min_size=r, max_size=r)), dtype=np.int64)
    vector = ref + np.asarray(diff, dtype=np.int64)
    vector.flags.writeable = False
    seq = draw(st.integers(2, 2**40))
    message = Message(
        sender=draw(SENDERS), seq=seq,
        timestamp=Timestamp(vector=vector, sender_keys=(0,), seq=seq),
        payload=draw(st.none() | st.text(max_size=8)),
    )
    return message, ref, diff


class TestDeltaLayouts:
    @settings(max_examples=100, deadline=None)
    @given(layout_cases())
    def test_each_layout_reconstructs_bit_identically(self, case):
        message, ref, diff = case
        codec = MessageCodec()
        sent = codec.encode_delta(message, ref)
        full = codec.encode(message)
        for bitmap in (False, True):
            body = layout_body(sent, message, diff, bitmap)
            decoded = codec.decode_delta(body, ref, (0,))
            assert decoded.timestamp.vector.dtype == np.int64
            assert np.array_equal(decoded.timestamp.vector, message.timestamp.vector)
            assert codec.full_from_delta(body, decoded.timestamp.vector, (0,), 0) == full
            assert codec.encode(decoded) == full
            # apply_delta walks the store both ways: -1 undoes +1.
            walked = ref.copy()
            MessageCodec.apply_delta(body, walked)
            assert np.array_equal(walked, message.timestamp.vector)
            MessageCodec.apply_delta(body, walked, -1)
            assert np.array_equal(walked, ref)

    @settings(max_examples=100, deadline=None)
    @given(layout_cases())
    def test_the_encoder_sends_the_smaller_layout(self, case):
        """Byte for byte the smaller of the two, the list on a tie."""
        message, ref, diff = case
        sent = MessageCodec().encode_delta(message, ref)
        bodies = [layout_body(sent, message, diff, bitmap) for bitmap in (False, True)]
        assert sent == min(bodies, key=len)

    def test_both_layouts_are_chosen_where_expected(self):
        """A few changed entries take the list, most of R the bitmap."""
        ref = np.zeros(128, dtype=np.int64)
        for changed, bitmap in ((3, False), (41, True), (128, True), (0, False)):
            vector = ref.copy()
            vector[:changed] = 1
            message = Message(
                sender="s", seq=2,
                timestamp=Timestamp(vector=vector, sender_keys=(0,), seq=2),
                payload=None,
            )
            delta = MessageCodec().encode_delta(message, ref)
            assert bool(delta[3] & 0x04) == bitmap, changed


class TestDeltaRejections:
    def _message(self, r=8, seq=5, entries=None):
        vector = np.asarray(
            entries if entries is not None else [3] * r, dtype=np.int64
        )
        vector.flags.writeable = False
        return Message(
            sender="s",
            seq=seq,
            timestamp=Timestamp(vector=vector, sender_keys=(0, 1), seq=seq),
            payload=None,
        )

    def test_reference_must_be_earlier_message(self):
        """A delta names (sender, seq - 1): seq 1 has none."""
        message = self._message(seq=1)
        with pytest.raises(CodecError, match="no previous"):
            MessageCodec().encode_delta(message, message.timestamp.vector)

    def test_vector_regression_rejected(self):
        message = self._message(entries=[1] * 8)
        ref = np.asarray([2] * 8, dtype=np.int64)
        with pytest.raises(CodecError):
            MessageCodec().encode_delta(message, ref)

    def test_size_mismatch_rejected(self):
        message = self._message(r=8)
        with pytest.raises(CodecError):
            MessageCodec().encode_delta(message, np.zeros(9, dtype=np.int64))

    def test_plain_decode_rejects_delta(self):
        codec = MessageCodec()
        message = self._message()
        ref = np.zeros(8, dtype=np.int64)
        delta = codec.encode_delta(message, ref)
        with pytest.raises(CodecError):
            codec.decode(delta)


class TestBatchRejections:
    def test_empty_batch_rejected(self):
        with pytest.raises(CodecError):
            FrameCodec().encode(BatchFrame(frames=()))

    def test_nested_batch_rejected(self):
        codec = FrameCodec()
        inner = codec.encode(HeartbeatFrame(count=1))
        batch = codec.encode(BatchFrame(frames=(inner,)))
        with pytest.raises(CodecError):
            codec.encode(BatchFrame(frames=(batch,)))
