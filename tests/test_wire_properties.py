"""Property tests for the wire formats (messages, deltas, frames).

Two families of invariants, hypothesis-driven:

* every frame type (DATA/ACK/NACK/DIGEST/HEARTBEAT/BATCH) round-trips
  ``encode -> decode -> encode`` byte-identically — the retransmit
  path stores encoded frames, so a re-encode that drifted by one byte
  would silently fork the wire history;
* DELTA differential — ``encode_delta -> decode_delta`` reconstructs a
  message bit-identical to its full encoding (same vector values and
  dtype, keys, seq, payload), for arbitrary reference/increment splits;

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
    MessageCodec,
    NackFrame,
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
        codec = FrameCodec()
        encoded = codec.encode(frame)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        with pytest.raises(CodecError):
            codec.decode(encoded[:cut])


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
        ref_seq = data.draw(st.integers(0, message.seq - 1))

        delta = codec.encode_delta(message, ref_seq, ref_vector)
        assert MessageCodec.is_delta(delta)
        assert not MessageCodec.is_delta(codec.encode(message))
        sender, seq, peeked_ref, _ = codec.delta_header(delta)
        assert (sender, seq, peeked_ref) == (message.sender, message.seq, ref_seq)

        decoded = codec.decode_delta(
            delta, ref_vector, message.timestamp.sender_keys
        )
        full = codec.full_from_delta(
            delta, decoded.timestamp.vector, message.timestamp.sender_keys
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
        delta = codec.encode_delta(
            message, message.seq - 1, message.timestamp.vector
        )
        assert len(delta) < len(codec.encode(message))


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
        message = self._message(seq=5)
        with pytest.raises(CodecError):
            MessageCodec().encode_delta(message, 5, message.timestamp.vector)

    def test_vector_regression_rejected(self):
        message = self._message(entries=[1] * 8)
        ref = np.asarray([2] * 8, dtype=np.int64)
        with pytest.raises(CodecError):
            MessageCodec().encode_delta(message, 1, ref)

    def test_size_mismatch_rejected(self):
        message = self._message(r=8)
        with pytest.raises(CodecError):
            MessageCodec().encode_delta(
                message, 1, np.zeros(9, dtype=np.int64)
            )

    def test_plain_decode_rejects_delta(self):
        codec = MessageCodec()
        message = self._message()
        ref = np.zeros(8, dtype=np.int64)
        delta = codec.encode_delta(message, 1, ref)
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
