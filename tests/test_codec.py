"""Tests for the wire codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocks import ProbabilisticCausalClock, Timestamp
from repro.core.codec import (
    CodecError,
    JsonPayloadCodec,
    MessageCodec,
    _decode_varints,
    _encode_varints,
    decode_varint,
    encode_varint,
)
from repro.core.protocol import CausalBroadcastEndpoint, Message


def make_message(payload=None, sender="node-1", r=16, keys=(0, 3, 7), sends=1):
    endpoint = CausalBroadcastEndpoint(sender, ProbabilisticCausalClock(r, keys))
    message = None
    for _ in range(sends):
        message = endpoint.broadcast(payload)
    return message


class TestVarint:
    def test_known_values(self):
        assert encode_varint(0) == b"\x00"
        assert encode_varint(127) == b"\x7f"
        assert encode_varint(128) == b"\x80\x01"
        assert encode_varint(300) == b"\xac\x02"

    def test_roundtrip_large(self):
        for value in (0, 1, 127, 128, 2**32, 2**63 - 1):
            data = encode_varint(value)
            decoded, offset = decode_varint(data, 0)
            assert decoded == value and offset == len(data)

    def test_negative_rejected(self):
        with pytest.raises(CodecError):
            encode_varint(-1)

    def test_truncated_rejected(self):
        with pytest.raises(CodecError):
            decode_varint(b"\x80", 0)

    @given(value=st.integers(0, 2**63 - 1))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, value):
        decoded, _ = decode_varint(encode_varint(value), 0)
        assert decoded == value


class TestMessageCodec:
    def test_roundtrip_preserves_everything(self):
        codec = MessageCodec()
        original = make_message(payload={"op": "add", "item": "milk"}, sends=5)
        decoded = codec.decode(codec.encode(original))
        assert decoded.sender == original.sender
        assert decoded.seq == original.seq
        assert decoded.payload == original.payload
        assert decoded.timestamp.as_tuple() == original.timestamp.as_tuple()
        assert decoded.timestamp.sender_keys == original.timestamp.sender_keys
        assert list(decoded.timestamp.adjusted) == list(original.timestamp.adjusted)

    def test_decoded_message_drives_a_real_endpoint(self):
        codec = MessageCodec()
        sender = CausalBroadcastEndpoint("a", ProbabilisticCausalClock(8, (0, 1)))
        receiver = CausalBroadcastEndpoint("b", ProbabilisticCausalClock(8, (2, 3)))
        m1 = sender.broadcast("one")
        m2 = sender.broadcast("two")
        wire2 = codec.encode(m2)
        wire1 = codec.encode(m1)
        assert receiver.on_receive(codec.decode(wire2)) == []
        delivered = receiver.on_receive(codec.decode(wire1))
        assert [r.message.payload for r in delivered] == ["one", "two"]

    def test_full_message_without_the_varint_flag_rejected(self):
        # Fixed-width entries were never sent; the flag byte is outside
        # input like any other.
        data = bytearray(MessageCodec().encode(make_message(sends=9)))
        data[3] &= ~0x01
        with pytest.raises(CodecError, match="varint"):
            MessageCodec().decode(bytes(data))

    def test_the_scheme_byte_is_1_and_any_other_is_a_foreign_build(self):
        """A full form's byte 4 names the (n, r, k) clock.  Ids 2–5
        named the other families, which now run in the simulator only;
        they are retired, and every value but 1 fails naming the id."""
        codec = MessageCodec()
        data = codec.encode(make_message(sends=2))
        assert data[4] == 1
        for scheme_id in (0, *range(2, 256)):
            with pytest.raises(CodecError, match=f"scheme id {scheme_id};"):
                codec.decode(data[:4] + bytes((scheme_id,)) + data[5:])

    def test_varint_is_smaller_for_sparse_vectors(self):
        message = make_message(r=100, keys=(0, 1, 2, 3))
        # The whole message undercuts what uint32 slots alone would take.
        assert len(MessageCodec().encode(message)) < 4 * 100

    def test_tuple_payload_roundtrips_via_json(self):
        # CRDT ops are nested tuples; JSON turns them into lists and the
        # codec normalises back.
        payload = ("add", "x", ("replica", 3))
        codec = MessageCodec()
        decoded = codec.decode(codec.encode(make_message(payload=payload)))
        assert decoded.payload == payload

    def test_none_payload(self):
        codec = MessageCodec()
        decoded = codec.decode(codec.encode(make_message(payload=None)))
        assert decoded.payload is None

    def test_unicode_sender(self):
        codec = MessageCodec()
        decoded = codec.decode(codec.encode(make_message(sender="pëer-ωμέγα")))
        assert decoded.sender == "pëer-ωμέγα"

    def test_bad_magic_rejected(self):
        with pytest.raises(CodecError):
            MessageCodec().decode(b"XX\x01\x00garbage")

    def test_truncation_rejected_everywhere(self):
        codec = MessageCodec()
        wire = codec.encode(make_message(payload={"k": "v"}))
        for cut in (3, 5, 10, len(wire) - 1):
            with pytest.raises(CodecError):
                codec.decode(wire[:cut])

    def test_unencodable_payload_rejected(self):
        codec = MessageCodec()
        with pytest.raises(CodecError):
            codec.encode(make_message(payload=object()))


class TestTornBuffers:
    """Anything short of a whole message is a :class:`CodecError` — never
    a stray ``UnicodeDecodeError``/``struct.error`` out of the receive
    upcall."""

    def test_truncated_sender_never_leaks_unicode_error(self):
        """The sender length check must run before the UTF-8 decode —
        a datagram torn mid-sender is a CodecError, not a decode crash —
        and so is a whole one whose sender bytes are not UTF-8, in
        either encoding."""
        codec = MessageCodec()
        first = make_message(sender="sender-éé")
        encoded = codec.encode(first)
        for cut in range(len(encoded)):
            with pytest.raises(CodecError):
                codec.decode(encoded[:cut])
        second = Message(
            sender=first.sender,
            seq=2,
            timestamp=Timestamp(
                vector=first.timestamp.vector + 1,
                sender_keys=first.timestamp.sender_keys,
                seq=2,
            ),
            payload=None,
        )
        reference = first.timestamp.vector
        delta = codec.encode_delta(second, reference)
        good, bad = "é".encode("utf-8"), b"\xc3\x28"
        assert good in encoded and good in delta
        with pytest.raises(CodecError, match="UTF-8"):
            codec.decode(encoded.replace(good, bad))
        with pytest.raises(CodecError, match="UTF-8"):
            codec.delta_header(delta.replace(good, bad))
        with pytest.raises(CodecError, match="UTF-8"):
            codec.decode_delta(
                delta.replace(good, bad), reference, first.timestamp.sender_keys
            )

    def test_seq_zero_and_keys_outside_the_vector_rejected(self):
        """Well-framed but impossible: sequence numbers start at 1 and a
        sender key indexes the R-entry vector.  Both used to decode and
        raise only once the node had stored the message."""
        codec = MessageCodec()
        good = make_message(r=16, keys=(0, 3, 7))
        codec.decode(codec.encode(good))
        for seq, keys in ((0, (0, 3, 7)), (1, (0, 3, 16))):
            bad = Message(
                sender=good.sender,
                seq=seq,
                timestamp=Timestamp(
                    vector=good.timestamp.vector, sender_keys=keys, seq=seq
                ),
                payload=None,
            )
            with pytest.raises(CodecError):
                codec.decode(codec.encode(bad))


class TestMalformedDeltas:
    """Each delta entry layout, damaged: a :class:`CodecError` from the
    intake's ``decode_delta`` (and the store's ``apply_delta``), never an
    ``IndexError`` or a numpy error."""

    R = 10  # not a multiple of 8: the bitmap's last byte has spare bits

    def delta(self, changed):
        """A delta whose reference is all zeros and whose vector is
        ``changed`` (index -> value); its entry block starts at the
        returned offset."""
        vector = np.zeros(self.R, dtype=np.int64)
        for index, value in changed.items():
            vector[index] = value
        codec = MessageCodec()
        message = message_with_vector(vector.tolist(), payload=None)
        data = codec.encode_delta(message, np.zeros(self.R, dtype=np.int64))
        return data, codec.delta_header(data)[2]

    def rejects(self, data, match=None):
        with pytest.raises(CodecError, match=match):
            MessageCodec().decode_delta(data, np.zeros(self.R, dtype=np.int64), (0,))

    def test_a_bitmap_bit_at_or_above_its_entries(self):
        data, at = self.delta({index: 1 for index in range(8)})
        assert data[3] & 0x04  # the bitmap layout
        for bit in (10, 15):  # past R, in the R-bit map's last byte
            bad = bytearray(data)
            bad[at + bit // 8] |= 1 << bit % 8
            self.rejects(bytes(bad), "at or above")
            with pytest.raises(CodecError):
                MessageCodec.apply_delta(bytes(bad), np.zeros(self.R, dtype=np.int64))
        data, at = self.delta({index: 1 for index in range(7)})
        assert data[3] & 0x04
        bad = bytearray(data)
        bad[at + 2] |= 1 << 7  # 7 changed entries: bit 7 of the second map is past them
        self.rejects(bytes(bad), "at or above")

    def test_every_truncation_of_either_layout(self):
        for changed in ({3: 1, 9: 200}, {index: index + 1 for index in range(10)}):
            data, _ = self.delta(changed)
            for cut in range(len(data)):
                self.rejects(data[:cut])

    def test_a_truncated_exception_block(self):
        data, at = self.delta({index: 300 for index in range(10)})
        assert data[3] & 0x04
        block = at + 2 + 2  # past the R map and the exceptions map
        assert data[block + 2 * 10 :] == b"\x00"  # ten 2-byte varints, then no payload
        for end in (block, block + 5, block + 19):  # none, 2.5 and 9.5 varints
            self.rejects(data[:end], "truncated varint")

    def test_a_zero_list_gap_after_the_first_entry(self):
        data, at = self.delta({0: 1, 4: 1})
        assert not data[3] & 0x04  # the list layout: count, code, code
        assert data[at : at + 3] == bytes((2, 0 << 1, 4 << 1))
        self.rejects(data[:at] + bytes((2, 0, 0)) + data[at + 3 :], "zero index gap")

    def test_a_list_index_beyond_the_vector(self):
        data, at = self.delta({4: 1})
        self.rejects(data[:at] + bytes((1, 10 << 1)) + data[at + 2 :], "outside")

    def test_an_increment_beyond_the_clock(self):
        """An increment an int64 entry cannot take, in either layout."""
        for changed in ({4: 2}, {index: 2 for index in range(10)}):
            data, _ = self.delta(changed)
            assert data[-2:] == b"\x00\x00"  # the last exception (2 - 2), no payload
            for extra in (2**63 - 2, 2**63 - 1, 2**64):
                self.rejects(data[:-2] + encode_varint(extra) + b"\x00", "int64")

    def test_a_v3_body(self):
        """v3 deltas name entries as (gap, increment) pairs: a v5 node
        rejects them, and a v3 node rejects v5 bodies, rather than misread
        them.  A v3 full form is a v5 one but for the byte."""
        codec = MessageCodec()
        data, _ = self.delta({4: 1})
        v3 = data[:2] + b"\x03" + data[3:]
        with pytest.raises(CodecError, match="version"):
            codec.delta_header(v3)
        self.rejects(v3, "version")
        message = make_message()
        full = codec.encode(message)
        assert full[2] == 5
        old = codec.decode(full[:2] + b"\x03" + full[3:])
        assert np.array_equal(old.timestamp.vector, message.timestamp.vector)
        assert codec.encode(old) == full


# One message encoded by the v4 codec (epoch 3): its full form, and its
# delta against (s, 8) = [1, 0, 0, 0, 2, 0, ...] in the bitmap layout.
V4_FULL = (
    b'PC\x04\x01\x01\x03\x01\x00s\t\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00'
    b'\x04\x00\x00\x00\n\x00\x00\x00\x01\x01\x00\x00\x03\x00\x00\x00\x00\x01\x03\x00\x00\x00"p"'
)
V4_DELTA = b'PC\x04\x07\x01\x03\x01\x00s\t\x01\x12\x02\x00\x03"p"'


class TestDeltaLayoutV5:
    """A v5 delta is magic, version, flags, the sender behind a varint
    length, a varint seq, the changed entries and the payload: nothing
    its reference ``(sender, seq - 1)`` already gives the receiver."""

    REFERENCE = np.array([1, 0, 0, 0, 2, 0, 0, 0, 0, 0], dtype=np.int64)

    @staticmethod
    def message(entries):
        return message_with_vector(entries, keys=(0, 4))

    def test_the_bitmap_layout_byte_for_byte(self):
        codec = MessageCodec(epoch=3)
        message = self.message([1, 1, 0, 0, 3, 0, 0, 0, 0, 1])
        delta = codec.encode_delta(message, self.REFERENCE)
        assert delta == b"".join((
            b"PC", bytes((5, 0x07)),  # magic, version, flags: varint, delta, bitmap
            b"\x01s",  # the sender's length and bytes
            b"\x09",  # seq; the reference is seq 8
            b"\x12\x02",  # entries 1, 4 and 9 changed (10 bits)
            b"\x00",  # none of the three grew by more than 1
            b'\x03"p"',  # the payload's length and bytes
        ))
        # The v4 delta of the same message, less its scheme, epoch and
        # reference gap bytes and its sender length's second byte.
        assert len(V4_DELTA) - len(delta) == 4
        assert V4_DELTA[9:10] + V4_DELTA[11:] == delta[6:]
        assert codec.delta_header(delta) == ("s", 9, 7)

    def test_the_list_layout_byte_for_byte(self):
        codec = MessageCodec(epoch=3)
        message = self.message([1, 0, 0, 0, 5, 0, 0, 0, 0, 0])
        delta = codec.encode_delta(message, self.REFERENCE)
        assert delta == b"".join((
            b"PC", bytes((5, 0x03)),  # magic, version, flags: varint, delta
            b"\x01s\x09",  # the sender's length and bytes, seq
            b"\x01",  # one changed entry
            bytes((4 << 1 | 1, 3 - 2)),  # index 4, grown by more than 1: by 3
            b'\x03"p"',
        ))
        decoded = codec.decode_delta(delta, self.REFERENCE, (0, 4))
        assert decoded.timestamp.vector.tolist() == message.timestamp.vector.tolist()

    def test_a_long_sender_length_takes_two_bytes(self):
        codec = MessageCodec()
        sender = "x" * 200
        message = Message(
            sender=sender, seq=2,
            timestamp=Timestamp(vector=self.REFERENCE + 1, sender_keys=(0, 4), seq=2),
            payload=None,
        )
        delta = codec.encode_delta(message, self.REFERENCE)
        assert delta[4:6] == encode_varint(200) and delta[6:206] == sender.encode()
        assert codec.delta_header(delta) == (sender, 2, 207)
        for cut in range(len(delta)):
            with pytest.raises(CodecError):
                codec.decode_delta(delta[:cut], self.REFERENCE, (0, 4))

    def test_a_delta_body_of_seq_1_is_refused(self):
        """Seq 1 has no previous message to be decoded against (the
        encoder refuses it too, ``tests/test_wire_properties.py``)."""
        codec = MessageCodec()
        delta = codec.encode_delta(self.message([1, 1, 0, 0, 3, 0, 0, 0, 0, 1]), self.REFERENCE)
        for seq in (b"\x01", b"\x00"):
            with pytest.raises(CodecError, match="seq starts at 2"):
                codec.delta_header(delta[:6] + seq + delta[7:])

    def test_a_v4_delta_is_rejected(self):
        codec = MessageCodec(epoch=3)
        with pytest.raises(CodecError, match="unsupported version 4"):
            codec.delta_header(V4_DELTA)
        with pytest.raises(CodecError, match="unsupported version 4"):
            codec.decode_delta(V4_DELTA, self.REFERENCE, (0, 4))
        with pytest.raises(CodecError):
            codec.decode(V4_DELTA)

    def test_a_v4_full_form_still_decodes(self):
        """The full form kept its layout: v5 but for the version byte."""
        codec = MessageCodec(epoch=3)
        message = self.message([1, 1, 0, 0, 3, 0, 0, 0, 0, 1])
        assert codec.encode(message) == V4_FULL[:2] + b"\x05" + V4_FULL[3:]
        decoded = codec.decode(V4_FULL)
        assert decoded.timestamp.vector.tolist() == message.timestamp.vector.tolist()
        assert (decoded.sender, decoded.seq, decoded.payload) == ("s", 9, "p")
        assert decoded.timestamp.sender_keys == (0, 4)
        assert codec.counters.epoch_mismatches == 0

    def test_full_from_delta_takes_the_epoch_it_is_given(self):
        """A delta carries no epoch: the store hands the rebuild the
        epoch byte of the chain's full form, and gets the sender's full
        form back byte for byte."""
        message = self.message([1, 1, 0, 0, 3, 0, 0, 0, 0, 1])
        for epoch in (0, 3, 255):
            sender = MessageCodec(epoch=epoch)
            delta = sender.encode_delta(message, self.REFERENCE)
            receiver = MessageCodec(epoch=7)
            vector = receiver.decode_delta(delta, self.REFERENCE, (0, 4)).timestamp.vector
            assert receiver.full_from_delta(delta, vector, (0, 4), epoch) == sender.encode(message)


class TestJsonPayloadCodec:
    def test_empty_is_none(self):
        codec = JsonPayloadCodec()
        assert codec.decode(b"") is None
        assert codec.encode(None) == b""

    def test_nested_tuplify(self):
        codec = JsonPayloadCodec()
        assert codec.decode(codec.encode({"a": [1, [2, 3]]})) == {"a": (1, (2, 3))}

    def test_malformed_rejected(self):
        with pytest.raises(CodecError):
            JsonPayloadCodec().decode(b"{nope")


@settings(max_examples=100, deadline=None)
@given(
    r=st.integers(1, 40),
    seed_entries=st.data(),
    seq=st.integers(1, 2**40),
)
def test_any_timestamp_roundtrips(r, seed_entries, seq):
    k = seed_entries.draw(st.integers(1, min(4, r)))
    keys = tuple(sorted(seed_entries.draw(
        st.sets(st.integers(0, r - 1), min_size=k, max_size=k)
    )))
    entries = seed_entries.draw(
        st.lists(st.integers(0, 2**31), min_size=r, max_size=r)
    )
    vector = np.asarray(entries, dtype=np.int64)
    vector.flags.writeable = False
    message = Message(
        sender="s", seq=seq,
        timestamp=Timestamp(vector=vector, sender_keys=keys, seq=seq),
        payload=None,
    )
    codec = MessageCodec()
    decoded = codec.decode(codec.encode(message))
    assert decoded.timestamp.as_tuple() == message.timestamp.as_tuple()
    assert decoded.timestamp.sender_keys == keys
    assert decoded.seq == seq


class TestWireRangeGuards:
    """Entries are int64 in memory but uint32 on the fixed-width wire."""

    @staticmethod
    def _message_with_entry(value, r=8, keys=(1, 4)):
        vector = np.zeros(r, dtype=np.int64)
        vector[2] = value
        vector.flags.writeable = False
        return Message(
            sender="s",
            seq=1,
            timestamp=Timestamp(vector=vector, sender_keys=keys, seq=1),
            payload=None,
        )

    def test_varint_mode_carries_entries_beyond_uint32(self):
        codec = MessageCodec()
        message = self._message_with_entry(2**40)
        decoded = codec.decode(codec.encode(message))
        assert int(decoded.timestamp.vector[2]) == 2**40

    def test_negative_entry_rejected(self):
        with pytest.raises(CodecError, match="negative"):
            MessageCodec().encode(self._message_with_entry(-1))

    def test_sender_key_beyond_uint32_rejected(self):
        codec = MessageCodec()
        message = self._message_with_entry(1, keys=(1, 2**32))
        with pytest.raises(CodecError, match="sender keys"):
            codec.encode(message)


# ----------------------------------------------------------------------
# Bulk vector coding vs the scalar varint oracle
# ----------------------------------------------------------------------

# Every LEB128 length boundary the clock can reach, and their neighbours.
BOUNDARIES = (
    0, 1, 127, 128, 16_383, 16_384, 2**21 - 1, 2**21, 2**32 - 1, 2**32,
    2**35, 2**56 - 1, 2**56, 2**63 - 1,
)
entry_values = st.one_of(st.sampled_from(BOUNDARIES), st.integers(0, 2**63 - 1))
entry_vectors = st.lists(entry_values, min_size=0, max_size=48)


def scalar_encode(entries):
    return b"".join(encode_varint(value) for value in entries)


def scalar_decode(data, offset, count):
    """The replaced per-varint loop: ("ok", values, offset) or ("error", text)."""
    values = []
    try:
        for _ in range(count):
            value, offset = decode_varint(data, offset)
            values.append(value)
    except CodecError as error:
        return ("error", str(error))
    return ("ok", values, offset)


def bulk_decode(data, offset, count):
    try:
        vector, offset = _decode_varints(data, offset, count)
    except CodecError as error:
        return ("error", str(error))
    assert vector.dtype == np.int64
    return ("ok", vector.tolist(), offset)


def message_with_vector(entries, keys=(0,), payload="p"):
    vector = np.asarray(entries, dtype=np.int64)
    vector.flags.writeable = False
    return Message(
        sender="s", seq=9,
        timestamp=Timestamp(vector=vector, sender_keys=keys, seq=9),
        payload=payload,
    )


class TestBulkVectorCoding:
    @given(entries=entry_vectors)
    @settings(max_examples=300, deadline=None)
    def test_encode_is_byte_identical_to_the_scalar_loop(self, entries):
        assert _encode_varints(entries) == scalar_encode(entries)

    @given(entries=entry_vectors, prefix=st.binary(max_size=5),
           suffix=st.binary(max_size=5))
    @settings(max_examples=300, deadline=None)
    def test_decode_matches_the_scalar_loop(self, entries, prefix, suffix):
        data = prefix + scalar_encode(entries) + suffix
        expected = scalar_decode(data, len(prefix), len(entries))
        assert expected[0] == "ok" and expected[1] == entries
        assert bulk_decode(data, len(prefix), len(entries)) == expected

    @given(data=st.binary(max_size=64), count=st.integers(0, 12),
           offset=st.integers(0, 8))
    @settings(max_examples=500, deadline=None)
    def test_arbitrary_bytes_same_outcome_as_the_scalar_loop(
        self, data, count, offset
    ):
        """Truncated, over-long and non-canonical input: same values,
        same consumed length, or the same CodecError text."""
        offset = min(offset, len(data))
        expected = scalar_decode(data, offset, count)
        if expected[0] == "ok" and max(expected[1], default=0) > 2**63 - 1:
            # The scalar loop yields a Python int the int64 clock vector
            # cannot hold; the bulk coder rejects it as a wire error.
            assert bulk_decode(data, offset, count)[0] == "error"
        else:
            assert bulk_decode(data, offset, count) == expected

    @given(entries=st.lists(entry_values, min_size=1, max_size=48))
    @settings(max_examples=150, deadline=None)
    def test_message_roundtrip(self, entries):
        codec = MessageCodec()
        data = codec.encode(message_with_vector(entries))
        decoded = codec.decode(data)
        assert decoded.timestamp.vector.dtype == np.int64
        assert not decoded.timestamp.vector.flags.writeable
        assert decoded.timestamp.vector.tolist() == entries
        assert scalar_encode(entries) in data

    def _vector_region(self, codec, message):
        """``(data, start, end)`` of the varint block in an encoding."""
        data = codec.encode(message)
        block = scalar_encode(message.timestamp.vector.tolist())
        start = data.index(block)
        return data, start, start + len(block)

    def test_truncation_inside_the_vector_raises_the_scalar_error(self):
        codec = MessageCodec()
        message = message_with_vector([5, 300, 2**40, 0, 127, 128])
        data, start, end = self._vector_region(codec, message)
        for cut in range(start, end):
            expected = scalar_decode(data[:cut], start, 6)
            assert expected[0] == "error"
            with pytest.raises(CodecError) as caught:
                codec.decode(data[:cut])
            assert str(caught.value) == expected[1]

    def test_overlong_varint_raises_the_scalar_error(self):
        codec = MessageCodec()
        message = message_with_vector([1, 2, 3])
        data, start, end = self._vector_region(codec, message)
        # Entry 1 replaced by eleven continuation bytes: wider than 63 bits.
        bad = data[: start + 1] + b"\x80" * 11 + b"\x00" + data[start + 2 :]
        expected = scalar_decode(bad, start, 3)
        assert expected == ("error", "varint too long")
        with pytest.raises(CodecError, match="varint too long"):
            codec.decode(bad)

    def test_vector_shorter_than_r_raises_the_scalar_error(self):
        codec = MessageCodec()
        message = message_with_vector([1, 2, 3, 4], payload=None)
        data, start, end = self._vector_region(codec, message)
        # R says 4, two entries follow, then the datagram ends.
        short = data[: start + 2]
        expected = scalar_decode(short, start, 4)
        assert expected == ("error", "truncated varint")
        with pytest.raises(CodecError, match="truncated varint"):
            codec.decode(short)

    def test_entry_beyond_int64_is_a_codec_error(self):
        codec = MessageCodec()
        message = message_with_vector([7])
        data, start, end = self._vector_region(codec, message)
        bad = data[:start] + encode_varint(2**63) + data[end:]
        with pytest.raises(CodecError, match="int64"):
            codec.decode(bad)

    @given(entries=st.lists(entry_values, min_size=4, max_size=32),
           bumps=st.lists(st.integers(0, 3), min_size=4, max_size=32))
    @settings(max_examples=150, deadline=None)
    def test_delta_decode_stays_bit_identical_to_full_decode(self, entries, bumps):
        codec = MessageCodec()
        reference = np.asarray(entries, dtype=np.int64)
        grown = reference.copy()
        for index, bump in enumerate(bumps[: len(entries)]):
            grown[index] = min(int(grown[index]) + bump, 2**63 - 1)
        message = message_with_vector(grown.tolist(), keys=(0, 2), payload=["a", 1])
        delta = codec.encode_delta(message, reference)
        via_delta = codec.decode_delta(delta, reference, (0, 2))
        full = codec.full_from_delta(delta, via_delta.timestamp.vector, (0, 2), 0)
        assert full == codec.encode(message)
        for decoded in (via_delta, codec.decode(full)):
            assert decoded.timestamp.vector.dtype == np.int64
            assert decoded.timestamp.vector.tolist() == grown.tolist()
            assert decoded.timestamp.sender_keys == (0, 2)
            assert (decoded.sender, decoded.seq) == ("s", 9)
            assert decoded.payload == ("a", 1)
