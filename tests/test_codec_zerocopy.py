"""Differential tests for the zero-copy decode fast path.

The batched transport hands the codecs ``memoryview`` slices into a
preallocated receive ring instead of owned ``bytes``; those views are
only valid until the receive callback returns.  Three families of
invariants keep the fast path honest:

* **observational identity** — decoding through a ``memoryview`` (and a
  ``bytearray``) must produce results indistinguishable from the legacy
  ``bytes`` path: same fields, same re-encoding, byte-for-byte — for
  full messages, deltas, every frame type, and BATCH splits;
* **torn buffers** — any truncation must raise :class:`CodecError` on
  the view path exactly where the bytes path does, never a stray
  ``UnicodeDecodeError``/``struct.error``, and never return a frame
  holding views past the torn end;
* **buffer lifetime** — ``retain()`` at the journal boundary must yield
  bytes that survive the ring being recycled (scribbling over the
  source buffer), while counters attribute every copy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocks import Timestamp
from repro.core.codec import (
    AckFrame,
    BatchFrame,
    CodecCounters,
    CodecError,
    DataFrame,
    FrameCodec,
    MessageCodec,
    retain,
)
from repro.core.protocol import Message

from tests.test_wire_properties import frames, messages


def _variants(data: bytes):
    """The same wire bytes under every buffer type a transport may hand
    the codec: owned bytes, a mutable scratch buffer, and views."""
    backing = bytearray(data)
    return (
        data,
        backing,
        memoryview(data),
        memoryview(backing),
    )


def _assert_same_message(decoded: Message, reference: Message, codec: MessageCodec):
    assert decoded.sender == reference.sender
    assert decoded.seq == reference.seq
    assert decoded.payload == reference.payload
    assert decoded.timestamp.sender_keys == reference.timestamp.sender_keys
    assert decoded.timestamp.vector.dtype == np.int64
    assert np.array_equal(decoded.timestamp.vector, reference.timestamp.vector)
    assert codec.encode(decoded) == codec.encode(reference)


class TestMessageDecodeIdentity:
    @settings(max_examples=150, deadline=None)
    @given(messages())
    def test_view_decode_matches_bytes_decode(self, message):
        codec = MessageCodec()
        data = codec.encode(message)
        reference = codec.decode(data)
        for variant in _variants(data):
            _assert_same_message(codec.decode(variant), reference, codec)

    @settings(max_examples=100, deadline=None)
    @given(messages(), st.data())
    def test_delta_view_decode_matches_bytes_decode(self, message, data):
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
        keys = message.timestamp.sender_keys
        reference, full = codec.decode_delta(delta, ref_vector, keys)
        for variant in _variants(delta):
            assert MessageCodec.is_delta(variant)
            assert codec.delta_header(variant) == (
                message.sender, message.seq, ref_seq,
            )
            decoded, rebuilt = codec.decode_delta(variant, ref_vector, keys)
            _assert_same_message(decoded, reference, codec)
            assert rebuilt == full


class TestFrameDecodeIdentity:
    @settings(max_examples=200, deadline=None)
    @given(frames())
    def test_view_decode_matches_bytes_decode(self, frame):
        codec = FrameCodec()
        data = codec.encode(frame)
        reference = codec.decode(data)
        for variant in _variants(data):
            decoded = codec.decode(variant)
            assert type(decoded) is type(reference)
            # Re-encoding accepts borrowed payload/inner views and must
            # reproduce the wire bytes exactly — the retransmit path
            # depends on this.
            assert codec.encode(decoded) == data

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.binary(min_size=0, max_size=120), min_size=1, max_size=6))
    def test_batch_inner_views_split_identically(self, payloads):
        codec = FrameCodec()
        inners = tuple(
            codec.encode(DataFrame(seq=i, payload=payload))
            for i, payload in enumerate(payloads)
        )
        data = codec.encode(BatchFrame(frames=inners, ack=AckFrame(cumulative=7)))
        decoded = codec.decode(memoryview(data))
        assert len(decoded.frames) == len(inners)
        for inner_view, inner_bytes in zip(decoded.frames, inners):
            # The zero-copy split hands back views; contents must match
            # the standalone encodings bit-for-bit and re-parse to the
            # same frame.
            assert bytes(inner_view) == inner_bytes
            assert codec.decode(inner_view) == codec.decode(inner_bytes)


class TestTornBuffers:
    @settings(max_examples=150, deadline=None)
    @given(messages(), st.data())
    def test_truncated_message_raises_codec_error_on_both_paths(self, message, data):
        codec = MessageCodec()
        encoded = codec.encode(message)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        torn = encoded[:cut]
        for variant in (torn, memoryview(torn)):
            with pytest.raises(CodecError):
                codec.decode(variant)

    @settings(max_examples=150, deadline=None)
    @given(frames(), st.data())
    def test_truncated_frame_raises_codec_error_on_both_paths(self, frame, data):
        codec = FrameCodec()
        encoded = codec.encode(frame)
        cut = data.draw(st.integers(0, len(encoded) - 1))
        torn = encoded[:cut]
        for variant in (torn, memoryview(torn)):
            with pytest.raises(CodecError):
                codec.decode(variant)

    def test_truncated_sender_never_leaks_unicode_error(self):
        """The sender length check must run before the UTF-8 decode —
        a datagram torn mid-sender is a CodecError, not a decode crash."""
        codec = MessageCodec()
        vector = np.zeros(4, dtype=np.int64)
        vector.flags.writeable = False
        message = Message(
            sender="sender-éé",
            seq=1,
            timestamp=Timestamp(vector=vector, sender_keys=(0,), seq=1),
            payload=None,
        )
        encoded = codec.encode(message)
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                codec.decode(memoryview(encoded[:cut]))


class TestBufferLifetime:
    def test_retain_copies_views_and_passes_bytes_through(self):
        counters = CodecCounters()
        owned = b"immutable"
        assert retain(owned, counters) is owned
        assert counters.retain_noops == 1
        assert counters.retain_copies == 0

        backing = bytearray(b"recyclable")
        view = memoryview(backing)[:6]
        kept = retain(view, counters)
        assert kept == b"recycl"
        assert counters.retain_copies == 1
        assert counters.retained_bytes == 6
        backing[:6] = b"XXXXXX"
        assert kept == b"recycl"  # unaffected by the ring being reused

    def test_decoded_message_survives_ring_recycling(self):
        """Everything MessageCodec.decode returns must already be owned:
        the protocol stores Message objects long past the callback."""
        codec = MessageCodec()
        vector = np.arange(8, dtype=np.int64)
        vector.flags.writeable = False
        message = Message(
            sender="alice",
            seq=3,
            timestamp=Timestamp(vector=vector, sender_keys=(1, 4), seq=3),
            payload={"k": "v"},
        )
        backing = bytearray(codec.encode(message))
        decoded = codec.decode(memoryview(backing))
        for i in range(len(backing)):
            backing[i] = 0xAA
        _assert_same_message(decoded, message, codec)

    def test_data_frame_payload_is_borrowed_until_retained(self):
        """DATA payloads ARE views into the receive buffer — the whole
        point of the fast path — so consumers must retain() before the
        callback returns.  This documents the sharp edge."""
        codec = FrameCodec()
        backing = bytearray(codec.encode(DataFrame(seq=1, payload=b"payload")))
        frame = codec.decode(memoryview(backing))
        assert isinstance(frame.payload, memoryview)
        owned = retain(frame.payload)
        for i in range(len(backing)):
            backing[i] = 0x00
        assert owned == b"payload"
        assert bytes(frame.payload) != b"payload"  # the view went stale

    def test_counters_attribute_views_and_copies(self):
        codec = FrameCodec()
        inner = codec.encode(DataFrame(seq=1, payload=b"abc"))
        batch = codec.encode(BatchFrame(frames=(inner, inner)))
        codec.decode(memoryview(batch))
        snapshot = codec.counters.snapshot()
        assert snapshot["frames_decoded"] == 1
        assert snapshot["batch_inner_views"] == 2
        # Decoding owned bytes takes no views at all.
        codec.decode(batch)
        assert codec.counters.snapshot()["batch_inner_views"] == 2
