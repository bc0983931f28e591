"""Wire format for messages and timestamps.

A deployable causal broadcast needs its control information on the wire;
this module defines a compact, versioned binary encoding used by the
:mod:`repro.net` transports and available to any integrator.

Layout (little-endian)::

    magic   2B  b"PC"
    version 1B  (currently 5; a v3 or v4 full form is decoded alike)
    flags   1B  bit0: entries are LEB128 varints (always set)
                bit1: DELTA encoding (see below)
                bit2: a DELTA's changed entries as a bitmap
    scheme  1B  always 1, the (n, r, k) clock.  Decoding refuses any
                other value, so a foreign build's timestamps — which may
                share the vector shape but not the delivery semantics —
                fail loudly instead of being silently mis-applied.
    epoch   1B  low 8 bits of the sender's clock-sizing epoch (a
                mismatch is tallied, never an error)
    sender  u16 length + UTF-8 bytes
    seq     u64 (>= 1)
    K       u16, then K x u32 sender keys (each < R)
    R       u32, then R varint entries
    payload u32 length + bytes

Entry counters are non-negative and usually small, so varints shrink
the dominant cost — the R entries — to ~1 byte each in steady state,
realising the paper's "few integer timestamps" on the wire.
Payload bytes are JSON (:class:`JsonPayloadCodec`), which covers every
operation :mod:`repro.crdt`'s types emit (tuples become lists and are
normalised back).

**DELTA encoding** (flags bit1) exploits Algorithm 1 harder: between two
consecutive sends the sender only incremented its K entries ``f(p_i)``
plus whatever entries its deliveries bumped, so a message can carry just
the entries *changed* since its reference ``(sender, seq - 1)``: the
sender's previous broadcast, which every receiver must hold before it
may deliver this one anyway, and must hold to decode it at all.  So a
delta carries nothing the reference gives: no scheme (the reference
passed the check), no epoch (a chain of deltas never spans an epoch
bump, so its full form's byte holds), no key block, no R, no reference.
After ``magic..flags`` the layout is all varints::

    sender   varint length + UTF-8 bytes
    seq      varint (>= 2; the reference is seq - 1)
    changed  the n entries that grew, in one of two layouts:
             list (bit2 clear): varint n, then per entry in index order
                 varint (index gap << 1) | (increment != 1), and varint
                 increment - 2 when that bit is set (the first gap is
                 the index itself, every later one is > 0);
             bitmap (bit2 set): ceil(R/8) bytes marking the changed
                 entries, ceil(n/8) bytes marking which of them grew by
                 more than 1, then varint increment - 2 for each of those
                 (bit i is bit i % 8 of byte i // 8; R is the reference's)
    payload  varint length + bytes

Most increments are 1 (one bump per delivery), so neither layout
spends a byte on them.  The encoder sizes both, builds only the smaller
and sends the list on a tie.
Decoding requires the reference vector and the sender's key set
(:meth:`MessageCodec.decode_delta`) and reconstructs the full vector
bit-identically to the full encoding; with the reference's epoch too,
:meth:`MessageCodec.full_from_delta` rebuilds the sender's full encoding
byte for byte — see ``docs/PROTOCOL.md`` §8 for the reference rule and
the full-encoding fallbacks.

Alongside the message encoding, this module defines the **reliability
frames** spoken by :class:`repro.net.session.ReliableSession`: a DATA
frame carrying an opaque payload under a per-link sequence number, ACK
(cumulative + selective), NACK (explicit missing sequence numbers),
DIGEST (per-sender ``(sender, seq)`` frontiers for anti-entropy),
HEARTBEAT (a liveness beacon for the failure detector) and BATCH (a
container datagram coalescing several frames, with an optional
piggybacked cumulative ACK).  Frames use a distinct magic (``b"PF"``),
sent once per datagram, so a receiver can dispatch between raw messages
and session frames on the first two bytes.

Decoding takes owned ``bytes`` (what every transport delivers) and
turns anything malformed — truncation, an id that is not UTF-8, a
sequence number or sender key out of range — into :class:`CodecError`.
"""

from __future__ import annotations

import functools
import ipaddress
import json
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.clocks import Timestamp
from repro.core.errors import ReproError
from repro.core.protocol import Message

__all__ = [
    "CodecError",
    "CodecCounters",
    "JsonPayloadCodec",
    "MessageCodec",
    "encode_varint",
    "decode_varint",
    "varint_size",
    "DataFrame",
    "AckFrame",
    "NackFrame",
    "DigestFrame",
    "HeartbeatFrame",
    "BatchFrame",
    "MemberRecord",
    "ViewFrame",
    "JoinFrame",
    "JoinAckFrame",
    "LeaveFrame",
    "RelayFrame",
    "TreeFrame",
    "Frame",
    "FrameCodec",
]

_MAGIC = b"PC"
# v2: clock-scheme id byte; v3: epoch id byte; v4: delta entry layouts;
# v5: a delta drops the scheme, epoch and reference gap, a varint sender length
_VERSION = 5
_FLAG_VARINT = 0x01
_FLAG_DELTA = 0x02
_FLAG_BITMAP = 0x04
_MAX_EXTRA = 2**63 - 3  # the largest increment - 2 an int64 entry can take
_MAX_U32 = 0xFFFFFFFF
_SCHEME_ID = 1  # the (n, r, k) clock; ids 2-5 are retired, never reused
_HEADER_SIZE = 6  # magic + version + flags + scheme + epoch


class CodecError(ReproError):
    """Raised on malformed wire data or unencodable payloads."""


class CodecCounters:
    """Decode tallies of one codec instance.

    Plain slotted integers bumped inline (no obs dependency — the node's
    :mod:`repro.obs` collector reads them at snapshot time, so the hot
    path never touches the registry).  ``retained_bytes`` is
    bumped by the node's intake, not here: the bytes of full encodings
    its store took from the wire; ``full_rebuilds``, those it built.
    """

    __slots__ = (
        "frames_decoded",
        "messages_decoded",
        "deltas_decoded",
        "epoch_mismatches",
        "payload_bytes_in",
        "retained_bytes",
        "full_rebuilds",
    )

    def __init__(self) -> None:
        self.frames_decoded = 0
        self.messages_decoded = 0
        self.deltas_decoded = 0
        self.epoch_mismatches = 0
        self.payload_bytes_in = 0
        self.retained_bytes = 0
        self.full_rebuilds = 0

    def snapshot(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}


def encode_varint(value: int) -> bytes:
    """LEB128-encode a non-negative integer."""
    if value < 0:
        raise CodecError(f"varint requires a non-negative value, got {value}")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_varint(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode a LEB128 varint at ``offset``; returns (value, new_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise CodecError("truncated varint")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def varint_size(value: int) -> int:
    """Encoded length of a non-negative integer, without encoding it."""
    if value < 0:
        raise CodecError(f"varint requires a non-negative value, got {value}")
    size = 1
    while value > 0x7F:
        value >>= 7
        size += 1
    return size


_MAX_VARINT_BYTES = 10  # decode_varint's bound: shifts 0, 7, ..., 63


def _varints_size(values: np.ndarray) -> int:
    """Encoded length of a vector of non-negative ints, without encoding
    it: one byte each, plus one for every 7 bits past the first 7."""
    size, shifted = len(values), values >> 7
    while count := np.count_nonzero(shifted):
        size += count
        shifted >>= 7
    return size


def _encode_varints(values: List[int]) -> bytes:
    """LEB128-encode a whole vector of non-negative ints in one pass.

    Byte-for-byte ``b"".join(encode_varint(v) for v in values)``, without
    a call or a bytes object per entry.  The caller has rejected
    negative entries.
    """
    out = bytearray()
    append = out.append
    for value in values:
        while value > 0x7F:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)
    return bytes(out)


def _decode_varints(data: bytes, offset: int, count: int) -> Tuple[np.ndarray, int]:
    """Decode ``count`` consecutive LEB128 varints starting at ``offset``.

    Returns ``(int64 vector, new_offset)`` — entry for entry what
    ``count`` calls of :func:`decode_varint` return, with the same
    :class:`CodecError` for a truncated or over-long varint (an entry
    beyond int64, which the clock cannot hold, is rejected too).
    """
    chunk = data[offset : offset + count * _MAX_VARINT_BYTES]
    head = chunk[:count]
    if len(head) == count and max(head, default=0) < 0x80:
        # Every entry is its own byte.
        return np.frombuffer(head, dtype=np.uint8).astype(np.int64), offset + count
    values = []
    append = values.append
    pending = shift = 0  # the partial entry: its low groups, their width
    extra = 0  # continuation bytes seen: consumed = entries + extra
    for byte in chunk:
        if byte < 0x80:
            append(pending | (byte << shift))
            if len(values) == count:
                break
            pending = shift = 0
        else:
            pending |= (byte & 0x7F) << shift
            shift += 7
            extra += 1
            if shift > 63:
                raise CodecError("varint too long")
    else:
        raise CodecError("truncated varint")
    try:
        return np.array(values, dtype=np.int64), offset + count + extra
    except OverflowError:
        raise CodecError("vector entry exceeds the int64 range of the clock") from None


class JsonPayloadCodec:
    """The payload format: JSON with tuple-normalisation.

    JSON has no tuple type; on decode, lists are converted back to tuples
    recursively so that CRDT operations (which use tuples as tags and ids)
    round-trip structurally.  Sets have no JSON form and are refused: an
    OR-Set remove carries its tags as a tuple.  ``None`` payloads encode
    to zero bytes.
    """

    def encode(self, payload: Any) -> bytes:
        if payload is None:
            return b""
        try:
            return json.dumps(payload, separators=(",", ":")).encode("utf-8")
        except (TypeError, ValueError) as exc:
            raise CodecError(f"payload is not JSON-encodable: {exc}") from exc

    def decode(self, data: bytes) -> Any:
        if not len(data):
            return None
        try:
            return _tuplify(json.loads(data.decode("utf-8")))
        except (ValueError, UnicodeDecodeError) as exc:
            raise CodecError(f"malformed JSON payload: {exc}") from exc


def _tuplify(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_tuplify(item) for item in value)
    if isinstance(value, dict):
        return {key: _tuplify(item) for key, item in value.items()}
    return value


class MessageCodec:
    """Encodes/decodes whole :class:`~repro.core.protocol.Message` objects.

    Payloads are JSON (:class:`JsonPayloadCodec`).

    Args:
        epoch: the clock-sizing epoch this codec currently encodes; one
            byte of a full form (mod 256) next to the scheme id, which a
            delta leaves to its chain's full form.  Unlike the scheme, a
            *mismatched* epoch is not an error — mixed-epoch frames are
            expected while a geometry renegotiation drains through the
            group (every message carries its sender's keys, so delivery
            is epoch-agnostic); decode only tallies the mismatch in
            :attr:`counters` so the transition is observable.
    """

    def __init__(self, epoch: int = 0) -> None:
        self._payload_codec = JsonPayloadCodec()
        self.epoch = epoch
        self.counters = CodecCounters()

    @property
    def epoch(self) -> int:
        """The clock-sizing epoch stamped into new encodings."""
        return self._epoch

    @epoch.setter
    def epoch(self, value: int) -> None:
        if value < 0:
            raise CodecError(f"epoch must be >= 0, got {value}")
        self._epoch = int(value)

    def _header_parts(self, message: Message, flags: int) -> list:
        """Shared prefix (magic..keys) of the full and delta encodings."""
        sender_bytes = str(message.sender).encode("utf-8")
        if len(sender_bytes) > 0xFFFF:
            raise CodecError("sender id longer than 65535 bytes")
        keys = message.timestamp.sender_keys
        if len(keys) > 0xFFFF:
            raise CodecError("more than 65535 sender keys")
        if keys and (min(keys) < 0 or max(keys) > _MAX_U32):
            raise CodecError(f"sender keys outside uint32 wire range: {keys}")
        return [
            _MAGIC,
            struct.pack(
                "<BBBB", _VERSION, flags, _SCHEME_ID, self._epoch & 0xFF
            ),
            struct.pack("<H", len(sender_bytes)),
            sender_bytes,
            struct.pack("<Q", message.seq),
            struct.pack("<H", len(keys)),
            struct.pack(f"<{len(keys)}I", *keys) if keys else b"",
        ]

    @staticmethod
    def _vector_entries(message: Message) -> List[int]:
        """The timestamp's entries as Python ints, none negative."""
        entries = np.asarray(message.timestamp.vector, dtype=np.int64).tolist()
        if min(entries, default=0) < 0:
            raise CodecError(
                f"negative vector entry in message {message.message_id}: "
                "clock entries are counters and must be >= 0"
            )
        return entries

    def encode(self, message: Message) -> bytes:
        timestamp = message.timestamp
        parts = self._header_parts(message, _FLAG_VARINT)
        parts.append(struct.pack("<I", timestamp.size))
        parts.append(_encode_varints(self._vector_entries(message)))
        payload_bytes = self._payload_codec.encode(message.payload)
        parts.append(struct.pack("<I", len(payload_bytes)))
        parts.append(payload_bytes)
        return b"".join(parts)

    def decode(self, data: bytes) -> Message:
        flags, sender, seq, offset = _header(data)
        if flags & _FLAG_DELTA:
            raise CodecError(
                "delta-encoded message: use decode_delta() with the "
                "reference vector"
            )
        if data[4] != _SCHEME_ID:
            raise CodecError(
                f"message timestamp carries clock scheme id {data[4]}; "
                f"this build decodes only {_SCHEME_ID}, the (n, r, k) clock"
            )
        if data[5] != self._epoch & 0xFF:
            self.counters.epoch_mismatches += 1
        try:
            (key_count,) = struct.unpack_from("<H", data, offset)
            offset += 2
            keys = struct.unpack_from(f"<{key_count}I", data, offset)
            offset += 4 * key_count
            (r,) = struct.unpack_from("<I", data, offset)
            offset += 4
            if keys and max(keys) >= r:
                raise CodecError(
                    f"sender key {max(keys)} outside the {r}-entry vector"
                )
            vector, offset = _decode_varints(data, offset, r)
            (payload_len,) = struct.unpack_from("<I", data, offset)
            offset += 4
            if len(data) < offset + payload_len:
                raise CodecError("truncated payload")
            payload = self._payload_codec.decode(data[offset : offset + payload_len])
            offset += payload_len
        except struct.error as exc:
            raise CodecError(f"truncated message: {exc}") from exc

        counters = self.counters
        counters.messages_decoded += 1
        counters.payload_bytes_in += payload_len
        vector.flags.writeable = False
        timestamp = Timestamp(vector=vector, sender_keys=keys, seq=seq)
        return Message(sender=sender, seq=seq, timestamp=timestamp, payload=payload)

    # ------------------------------------------------------------------
    # DELTA encoding (O(K) timestamps against the previous broadcast)
    # ------------------------------------------------------------------

    @staticmethod
    def is_delta(data: bytes) -> bool:
        """True when ``data`` is a delta-encoded message datagram."""
        return (
            len(data) >= _HEADER_SIZE
            and data[:2] == _MAGIC
            and bool(data[3] & _FLAG_DELTA)
        )

    def encode_delta(self, message: Message, ref_vector: np.ndarray) -> bytes:
        """Encode ``message`` as the entries changed since its reference.

        Args:
            message: the message to encode, an *own* broadcast with
                ``seq >= 2``: its reference is the sender's previous
                broadcast ``(sender, seq - 1)``, which a receiver must
                hold before it may deliver this one anyway (PROTOCOL.md
                §8.3) and needs to decode it.
            ref_vector: the reference message's full vector.

        Raises :class:`CodecError` when the message has no previous
        one, the vectors disagree in size or the message's vector is
        not entrywise >= the reference (clock entries are monotone
        counters; a regression means the caller picked a non-causal
        reference).
        """
        timestamp = message.timestamp
        if len(ref_vector) != timestamp.size:
            raise CodecError(
                f"reference vector has {len(ref_vector)} entries, "
                f"message has {timestamp.size}"
            )
        if message.seq < 2:
            raise CodecError(f"message seq {message.seq} has no previous message to name")
        diff = np.asarray(timestamp.vector, dtype=np.int64) - np.asarray(
            ref_vector, dtype=np.int64
        )
        if diff.min(initial=0) < 0:
            raise CodecError(
                f"message {message.message_id} vector regresses below the "
                f"reference (seq {message.seq - 1}): not a causal successor"
            )
        changed = np.flatnonzero(diff)
        increments = diff[changed]
        others = increments != 1
        codes = changed << 1 | others
        codes[1:] -= changed[:-1] << 1  # index gaps, not indices
        # Both layouts end in the same increment - 2 varints.
        n = len(changed)
        bitmap = (len(diff) + 7) // 8 + (n + 7) // 8 < varint_size(n) + _varints_size(codes)
        sender_bytes = str(message.sender).encode("utf-8")
        if len(sender_bytes) > 0xFFFF:
            raise CodecError("sender id longer than 65535 bytes")
        payload_bytes = self._payload_codec.encode(message.payload)
        if bitmap:
            entries = b"".join((
                np.packbits(diff != 0, bitorder="little").tobytes(),
                np.packbits(others, bitorder="little").tobytes(),
                _encode_varints((increments[others] - 2).tolist()),
            ))
        else:
            values = [n]
            for code, increment in zip(codes.tolist(), increments.tolist()):
                values.append(code)
                if code & 1:
                    values.append(increment - 2)
            entries = _encode_varints(values)
        flags = _FLAG_VARINT | _FLAG_DELTA | (_FLAG_BITMAP if bitmap else 0)
        return b"".join((
            _MAGIC,
            bytes((_VERSION, flags)),
            encode_varint(len(sender_bytes)),
            sender_bytes,
            encode_varint(message.seq),
            entries,
            encode_varint(len(payload_bytes)),
            payload_bytes,
        ))

    @staticmethod
    def delta_header(data: bytes) -> Tuple[str, int, int]:
        """Parse a delta's ``(sender, seq, offset of its entries)`` — the
        caller resolves its reference ``(sender, seq - 1)`` first — and
        hand it to :meth:`decode_delta`, which then parses no prefix
        again."""
        flags, sender, seq, offset = _header(data)
        if not flags & _FLAG_DELTA:
            raise CodecError("not a delta-encoded message")
        return sender, seq, offset

    def decode_delta(
        self,
        data: bytes,
        ref_vector: np.ndarray,
        sender_keys: Tuple[int, ...],
        header: Optional[Tuple[str, int, int]] = None,
    ) -> Message:
        """Reconstruct the full message from a delta and its reference.

        ``sender_keys`` is the sender's static key set, known to the
        receiver from the reference message (deltas do not carry it);
        ``header`` is what :meth:`delta_header` returned for ``data``
        (parsed here when not given).  The result is bit-identical to
        decoding the full encoding of the same message
        (differential-tested): same vector dtype and values, same keys,
        seq, and payload.
        """
        sender, seq, offset = header if header is not None else self.delta_header(data)
        vector = np.array(ref_vector, dtype=np.int64, copy=True)
        offset = _add_entries(data, offset, vector, 1)
        payload_len, offset = decode_varint(data, offset)
        if len(data) < offset + payload_len:
            raise CodecError("truncated payload")
        payload = self._payload_codec.decode(data[offset : offset + payload_len])
        counters = self.counters
        counters.deltas_decoded += 1
        counters.payload_bytes_in += payload_len
        vector.flags.writeable = False
        timestamp = Timestamp(
            vector=vector, sender_keys=tuple(int(k) for k in sender_keys), seq=seq
        )
        return Message(sender=sender, seq=seq, timestamp=timestamp, payload=payload)

    @staticmethod
    def message_id(data: bytes) -> Tuple[str, int]:
        """A full or delta encoding's ``(sender, seq)``."""
        return _header(data)[1:3]

    @staticmethod
    def epoch_of(data: bytes) -> int:
        """A full encoding's epoch byte."""
        return data[5]

    @staticmethod
    def timestamp_of(data: bytes) -> Tuple[np.ndarray, Tuple[int, ...], int]:
        """A full encoding's ``(vector, sender keys, epoch byte)`` — a
        fresh vector, the payload left undecoded.  This, the one above
        and the two below take bytes this process decoded before; the
        first two check nothing."""
        keys_at = _HEADER_SIZE + 12 + struct.unpack_from("<H", data, _HEADER_SIZE)[0]
        (key_count,) = struct.unpack_from("<H", data, keys_at - 2)
        keys = struct.unpack_from(f"<{key_count}I", data, keys_at)
        (r,) = struct.unpack_from("<I", data, keys_at + 4 * key_count)
        return _decode_varints(data, keys_at + 4 * key_count + 4, r)[0], keys, data[5]

    @staticmethod
    def apply_delta(data: bytes, vector: np.ndarray, sign: int = 1) -> None:
        """Add the delta's increments into ``vector`` in place (its
        reference's vector becomes its own), or subtract them (``-1``)."""
        _add_entries(data, _header(data)[3], vector, sign)

    def full_from_delta(
        self, data: bytes, vector: np.ndarray, sender_keys: Tuple[int, ...], epoch: int
    ) -> bytes:
        """The sender's full encoding of the delta, byte for byte: the
        message's own ``vector`` and ``sender_keys``, and the ``epoch``
        byte of its chain's full form, around the delta's sender and seq
        and its payload bytes, which are not serialised again."""
        _, sender, seq, offset = _header(data)
        offset = _add_entries(data, offset, np.zeros(len(vector), dtype=np.int64), 1)
        payload_len, offset = decode_varint(data, offset)
        sender_bytes = sender.encode("utf-8")
        self.counters.full_rebuilds += 1
        return b"".join((
            _MAGIC,
            struct.pack("<BBBBH", _VERSION, _FLAG_VARINT, _SCHEME_ID, epoch, len(sender_bytes)),
            sender_bytes,
            struct.pack(f"<QH{len(sender_keys)}II", seq, len(sender_keys), *sender_keys, len(vector)),
            _encode_varints(np.asarray(vector, dtype=np.int64).tolist()),
            struct.pack("<I", payload_len),
            data[offset : offset + payload_len],
        ))


def _header(data: bytes) -> Tuple[int, str, int, int]:
    """A message body's ``(flags, sender, seq, offset past them)``, with
    every check that needs no codec: magic, version (a v3 or v4 full form
    is a v5 one, their deltas are not), the entry flag, a UTF-8 sender
    and seq >= 1 (a delta's >= 2: it names seq - 1).  A full form's
    offset is that of its key count (its scheme and epoch are bytes 4
    and 5); a delta's, that of its entries."""
    if len(data) < 4 or data[:2] != _MAGIC:
        raise CodecError("bad magic")
    version, flags = data[2], data[3]
    if version != _VERSION and (version not in (3, 4) or flags & _FLAG_DELTA):
        raise CodecError(f"unsupported version {version}")
    if not flags & _FLAG_VARINT:
        # The bit stays on the wire but names the only entry form there
        # is; without it the datagram is not one of ours.
        raise CodecError("message without varint-coded entries")
    delta = flags & _FLAG_DELTA
    try:
        if not delta:
            start = _HEADER_SIZE + 2
            end = start + struct.unpack_from("<H", data, _HEADER_SIZE)[0]
        elif len(data) > 4 and data[4] < 0x80:
            # A sender id under 128 bytes has a one-byte length: no call.
            start, end = 5, 5 + data[4]
        else:
            length, start = decode_varint(data, 4)
            end = start + length
        if len(data) < end:
            raise CodecError("truncated sender")
        sender = data[start:end].decode("utf-8")
        if delta:
            seq, offset = decode_varint(data, end)
            if seq < 2:
                raise CodecError(f"delta of seq {seq}: it names seq - 1, so seq starts at 2")
            return flags, sender, seq, offset
        (seq,) = struct.unpack_from("<Q", data, end)
    except struct.error as exc:
        raise CodecError(f"truncated message: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise CodecError(f"sender id is not UTF-8: {exc}") from exc
    if seq < 1:
        raise CodecError("message seq 0: sequence numbers start at 1")
    return flags, sender, seq, end + 8


def _add_entries(data: bytes, offset: int, vector: np.ndarray, sign: int) -> int:
    """Add ``sign`` times the delta entries at ``offset`` into ``vector``,
    in the layout the flags byte names; returns the offset past them."""
    r = len(vector)
    if data[3] & _FLAG_BITMAP:
        changed, offset = _bitmap(data, offset, r)
        others, offset = _bitmap(data, offset, len(changed))
        increments = np.ones(len(changed), dtype=np.int64)
        if len(others):
            extra, offset = _decode_varints(data, offset, len(others))
            if extra.max() > _MAX_EXTRA:
                raise CodecError("delta increment beyond the int64 range of the clock")
            increments[others] += extra + 1
        vector[changed] += sign * increments
        return offset
    count, offset = decode_varint(data, offset)
    index = floor = value = shift = extra = 0  # floor: the least index the next entry may take
    for offset, byte in enumerate(data[offset:] if count else b"", offset + 1):
        value, shift = value | (byte & 0x7F) << shift, shift + 7
        if byte > 0x7F:
            if shift > 63:
                raise CodecError("varint too long")
            continue
        if extra:  # the increment - 2 of the entry at index
            if value > _MAX_EXTRA:
                raise CodecError("delta increment beyond the int64 range of the clock")
            vector[index] += sign * (value + 2)
        else:  # an entry code: index gap << 1 | increment != 1; the first gap is the index
            index = floor + (value >> 1) - (floor > 0)
            if index < floor or index >= r:
                raise CodecError("zero index gap in delta entries" if index < floor else (
                    f"delta entry index {index} outside the {r}-entry reference vector"))
            floor = index + 1
            if not value & 1:
                vector[index] += sign
        extra, value, shift = not extra and value & 1, 0, 0
        count -= not extra
        if not count:
            return offset
    if count:
        raise CodecError("truncated varint")
    return offset


def _bitmap(data: bytes, offset: int, bits: int) -> Tuple[np.ndarray, int]:
    """The set positions of the ``bits``-bit little-endian bitmap at
    ``offset``, and the offset past its ``⌈bits/8⌉`` bytes."""
    end = offset + ((bits + 7) >> 3)
    if len(data) < end:
        raise CodecError("truncated delta bitmap")
    positions = np.flatnonzero(
        np.unpackbits(np.frombuffer(data, np.uint8, end - offset, offset), bitorder="little")
    )
    if len(positions) and positions[-1] >= bits:
        raise CodecError(f"delta bitmap bit {positions[-1]} at or above its {bits} entries")
    return positions, end


# ----------------------------------------------------------------------
# Reliability frames (ReliableSession wire format)
# ----------------------------------------------------------------------

_FRAME_MAGIC = b"PF"
# v2 added the epoch field to VIEW and JOIN_ACK; v3 made every seq, count
# and length of the session and RELAY frames a LEB128 varint; v4 sends
# the magic and version once per datagram, lets a DATA payload and a
# RELAY body run to the end of their frame, drops the RELAY envelope's
# copy of its body's (origin, seq), and packs IPv4 addresses in binary.
_FRAME_VERSION = 4
_FRAME_HEADER = _FRAME_MAGIC + bytes((_FRAME_VERSION,))
_TYPE_DATA = 1
_TYPE_ACK = 2
_TYPE_NACK = 3
_TYPE_DIGEST = 4
_TYPE_HEARTBEAT = 5
_TYPE_BATCH = 6
_TYPE_VIEW = 7
_TYPE_JOIN = 8
_TYPE_JOIN_ACK = 9
_TYPE_LEAVE = 10
_TYPE_RELAY = 11
_TYPE_TREE = 12
_DATA_HEADER = _FRAME_HEADER + bytes((_TYPE_DATA,))
_ADDRESS_JSON = 0
_ADDRESS_IPV4 = 1

_MAX_SACK = 64
_MAX_NACK = 64
_MAX_HOPS = 255
_MAX_RELAY_SAMPLE = 255
_BATCH_HAS_ACK = 0x01
_JOIN_ACK_ACCEPTED = 0x01


@dataclass(frozen=True, slots=True)
class DataFrame:
    """A payload under a per-link sequence number (1-based, per peer)."""

    seq: int
    payload: bytes


@dataclass(frozen=True, slots=True)
class AckFrame:
    """Cumulative + selective acknowledgement.

    Attributes:
        cumulative: every link seq ``<= cumulative`` has been received.
        sacks: ascending tuple of seqs ``> cumulative`` received out of
            order (capped at 64 on the wire).
    """

    cumulative: int
    sacks: Tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class NackFrame:
    """Explicit request to retransmit the listed link seqs (ascending)."""

    missing: Tuple[int, ...]


@dataclass(frozen=True, slots=True)
class DigestFrame:
    """Anti-entropy digest: per-sender ``(sender, seq)`` frontiers.

    ``frontiers`` maps a sender id to ``(contiguous, extras)``: every seq
    ``<= contiguous`` of that sender is known, plus the ascending
    ``extras`` beyond it.  A peer receiving the digest re-sends whatever
    it holds that the digest does not cover.
    """

    frontiers: Dict[str, Tuple[int, Tuple[int, ...]]] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class HeartbeatFrame:
    """Liveness beacon: proof the sender is up even when it has no data.

    ``count`` is a per-sender monotone counter; the failure detector only
    cares that *something* arrived, but the counter makes heartbeat loss
    observable in packet captures.  Heartbeats are fire-and-forget: never
    acked, never retransmitted.
    """

    count: int


@dataclass(frozen=True, slots=True)
class BatchFrame:
    """A container datagram: several coalesced frames, one syscall.

    Attributes:
        frames: the *encoded* inner frames (each a complete ``PF`` frame;
            nesting a BATCH inside a BATCH is rejected on both ends).
            Kept as opaque bytes so a batch round-trips byte-identically
            and the flush path never re-encodes.  On the wire an element
            is its type byte and body, behind a varint length: the
            datagram's own magic and version stand for every element's,
            and decoding puts them back.
        ack: optional piggybacked cumulative+selective acknowledgement —
            the session folds its held ack into an outgoing batch so
            bidirectional steady-state traffic needs no standalone ACK
            datagrams.
    """

    frames: Tuple[bytes, ...]
    ack: Optional[AckFrame] = None


@dataclass(frozen=True, slots=True)
class MemberRecord:
    """One group member as carried inside VIEW and JOIN_ACK frames.

    ``address`` is whatever the transport uses to reach the member —
    typically a ``(host, port)`` tuple.  One whose host is a canonical
    IPv4 dotted quad travels in 4 + 2 bytes; anything else (a bus name,
    an IPv6 tuple) round-trips through JSON, with lists normalised back
    to tuples on decode.
    """

    node_id: str
    address: Any
    keys: Tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class ViewFrame:
    """A versioned group-view announcement from the acting coordinator.

    ``view_id`` is strictly monotonic: receivers install a view only when
    its id exceeds the one they hold, which makes re-announcements (the
    loss-healing mechanism — VIEW is fire-and-forget) idempotent.

    ``epoch`` is the clock-sizing generation the view's key assignment
    belongs to (see PROTOCOL.md §11): it only moves when the group
    renegotiates its (R, K) geometry, so most view changes carry the
    epoch unchanged while every epoch bump rides a view bump.
    """

    view_id: int
    members: Tuple[MemberRecord, ...]
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class JoinFrame:
    """A join request sent to a seed peer / the acting coordinator.

    ``keys`` is normally empty; a rejoining node may send its previous
    key set so the coordinator can re-adopt it instead of assigning a
    fresh one (keeps the journal identity of a restarted node valid).
    """

    node_id: str
    address: Any
    keys: Tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class JoinAckFrame:
    """The coordinator's reply to a JOIN.

    When ``accepted``, carries everything the joiner needs before it may
    enter the view: the clock geometry ``(r, k)``, its granted ``keys``,
    the current membership, and a consistent state-transfer pair — the
    coordinator's clock ``vector`` together with its *delivered*
    per-sender ``frontiers`` (the two must be read atomically; see
    PROTOCOL.md §9).  When rejected, ``members`` still carries the
    current view so the joiner can re-target the acting coordinator.
    """

    accepted: bool
    view_id: int
    r: int
    k: int
    keys: Tuple[int, ...]
    members: Tuple[MemberRecord, ...]
    frontiers: Dict[str, Tuple[int, Tuple[int, ...]]] = field(default_factory=dict)
    vector: Tuple[int, ...] = ()
    reason: str = ""
    epoch: int = 0


@dataclass(frozen=True, slots=True)
class LeaveFrame:
    """A graceful goodbye; fire-and-forget (eviction is the backstop)."""

    node_id: str


@dataclass(frozen=True, slots=True)
class RelayFrame:
    """A gossip dissemination envelope (overlay mode, PROTOCOL.md §10).

    Wraps one complete message encoding (the ``PC`` bytes, full or
    delta) so relayers forward it verbatim — encode once at the origin,
    fan out everywhere.

    Attributes:
        hops: relay depth; 0 at the origin, +1 per forward, capped at
            255 on the wire (the overlay enforces a far smaller bound).
        payload: the encoded message; on the wire it runs to the end of
            the frame.
        sample: piggybacked partial-view sample — the lpbcast-style
            membership gossip receivers probabilistically merge.
        origin, seq: the message's id, read from the payload's own
            header at construction (a header that does not parse is a
            :class:`CodecError`), so receivers dedup against the
            SeenFilter watermark without decoding the rest.
    """

    hops: int
    payload: bytes
    sample: Tuple[MemberRecord, ...] = ()
    origin: str = field(init=False)
    seq: int = field(init=False)

    def __post_init__(self) -> None:
        _, origin, seq, _ = _header(self.payload)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "seq", seq)


@dataclass(frozen=True, slots=True)
class TreeFrame:
    """PRUNE (stop pushing me ``origin``'s messages) or, with ``graft``,
    GRAFT (push them to me again, as I will to you) — for every origin
    when ``origin`` is empty.  Fire-and-forget, like the RELAYs it steers
    (overlay mode, PROTOCOL.md §10)."""

    origin: str = ""
    graft: bool = False


Frame = Union[
    DataFrame,
    AckFrame,
    NackFrame,
    DigestFrame,
    HeartbeatFrame,
    BatchFrame,
    ViewFrame,
    JoinFrame,
    JoinAckFrame,
    LeaveFrame,
    RelayFrame,
    TreeFrame,
]


def _encode_ascending(values: Tuple[int, ...], base: int) -> bytes:
    """Delta-encode an ascending sequence as varints (a varint count, then
    each value's distance from the previous one, the first from base)."""
    parts = [encode_varint(len(values))]
    previous = base
    for value in values:
        if value <= previous:
            raise CodecError(f"sequence not strictly ascending above {base}: {values}")
        parts.append(encode_varint(value - previous))
        previous = value
    return b"".join(parts)


def _decode_ascending(data: bytes, offset: int, base: int) -> Tuple[Tuple[int, ...], int]:
    # Counts and gaps under 128 take one byte: read those without a call.
    end = len(data)
    if offset < end and data[offset] < 0x80:
        count = data[offset]
        offset += 1
    else:
        count, offset = decode_varint(data, offset)
    values = []
    previous = base
    for _ in range(count):
        if offset < end and data[offset] < 0x80:
            delta = data[offset]
            offset += 1
        else:
            delta, offset = decode_varint(data, offset)
        if delta == 0:
            raise CodecError("zero delta in ascending sequence")
        previous += delta
        values.append(previous)
    return tuple(values), offset


def _encode_short_bytes(raw: bytes) -> bytes:
    return encode_varint(len(raw)) + raw


def _decode_short_bytes(data: bytes, offset: int) -> Tuple[bytes, int]:
    # An id or address under 128 bytes has a one-byte length: no call.
    if offset < len(data) and data[offset] < 0x80:
        length = data[offset]
        offset += 1
    else:
        length, offset = decode_varint(data, offset)
    end = offset + length
    if len(data) < end:
        raise CodecError("truncated length-prefixed field")
    return data[offset:end], end


@functools.lru_cache(maxsize=1024)
def _packed_ipv4(host: str) -> Optional[bytes]:
    """``host``'s four bytes when it is an IPv4 dotted quad that
    round-trips through :mod:`ipaddress`, else None."""
    try:
        address = ipaddress.IPv4Address(host)
    except ValueError:
        return None
    return address.packed if str(address) == host else None


def _encode_address(address: Any) -> bytes:
    """A tag byte, then 4 + 2 bytes for an IPv4 ``(host, port)`` tuple,
    or a varint length and JSON for anything else."""
    if (
        type(address) is tuple and len(address) == 2 and type(address[0]) is str
        and type(address[1]) is int and 0 <= address[1] <= 0xFFFF
    ):
        packed = _packed_ipv4(address[0])
        if packed is not None:
            return struct.pack("<B4sH", _ADDRESS_IPV4, packed, address[1])
    try:
        raw = json.dumps(address, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise CodecError(f"unencodable address {address!r}: {exc}") from exc
    return bytes((_ADDRESS_JSON,)) + _encode_short_bytes(raw)


def _decode_address(data: bytes, offset: int) -> Tuple[Any, int]:
    (tag,) = struct.unpack_from("<B", data, offset)
    if tag == _ADDRESS_IPV4:
        *quad, port = struct.unpack_from("<4BH", data, offset + 1)
        return ("%d.%d.%d.%d" % tuple(quad), port), offset + 7
    if tag != _ADDRESS_JSON:
        raise CodecError(f"unknown address tag {tag}")
    raw, offset = _decode_short_bytes(data, offset + 1)
    try:
        return _tuplify(json.loads(raw.decode("utf-8"))), offset
    except (ValueError, UnicodeDecodeError) as exc:
        raise CodecError(f"malformed address field: {exc}") from exc


def _encode_member(member: MemberRecord) -> bytes:
    return b"".join(
        [
            _encode_short_bytes(member.node_id.encode("utf-8")),
            _encode_address(member.address),
            _encode_ascending(tuple(member.keys), -1),
        ]
    )


def _decode_member(data: bytes, offset: int) -> Tuple[MemberRecord, int]:
    node_raw, offset = _decode_short_bytes(data, offset)
    address, offset = _decode_address(data, offset)
    keys, offset = _decode_ascending(data, offset, -1)
    return MemberRecord(node_id=node_raw.decode("utf-8"), address=address, keys=keys), offset


def _encode_members(members: Tuple[MemberRecord, ...]) -> bytes:
    parts = [encode_varint(len(members))]
    for member in members:
        parts.append(_encode_member(member))
    return b"".join(parts)


def _decode_members(data: bytes, offset: int) -> Tuple[Tuple[MemberRecord, ...], int]:
    if offset < len(data) and data[offset] < 0x80:
        count = data[offset]
        offset += 1
    else:
        count, offset = decode_varint(data, offset)
    members = []
    for _ in range(count):
        member, offset = _decode_member(data, offset)
        members.append(member)
    return tuple(members), offset


def _encode_frontiers(frontiers: Dict[str, Tuple[int, Tuple[int, ...]]]) -> bytes:
    """A DIGEST's (and a JOIN_ACK's) per-sender frontiers: a varint
    sender count, then per sender its id, a varint ``contiguous`` and the
    ascending extras above it."""
    parts = [encode_varint(len(frontiers))]
    for sender in sorted(frontiers):
        contiguous, extras = frontiers[sender]
        parts.append(_encode_short_bytes(str(sender).encode("utf-8")))
        parts.append(encode_varint(contiguous))
        parts.append(_encode_ascending(tuple(extras), contiguous))
    return b"".join(parts)


def _decode_frontiers(
    data: bytes, offset: int
) -> Tuple[Dict[str, Tuple[int, Tuple[int, ...]]], int]:
    count, offset = decode_varint(data, offset)
    frontiers: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
    for _ in range(count):
        sender_raw, offset = _decode_short_bytes(data, offset)
        contiguous, offset = decode_varint(data, offset)
        extras, offset = _decode_ascending(data, offset, contiguous)
        frontiers[sender_raw.decode("utf-8")] = (contiguous, extras)
    return frontiers, offset


def _encode_ack(ack: AckFrame) -> bytes:
    """An ACK body, standalone or in a BATCH header: varint cumulative,
    then the (at most 64) selective acks above it."""
    return encode_varint(ack.cumulative) + _encode_ascending(
        tuple(ack.sacks)[:_MAX_SACK], ack.cumulative
    )


def _decode_ack(data: bytes, offset: int) -> Tuple[AckFrame, int]:
    cumulative, offset = decode_varint(data, offset)
    sacks, offset = _decode_ascending(data, offset, cumulative)
    return AckFrame(cumulative=cumulative, sacks=sacks), offset


class FrameCodec:
    """Encodes/decodes the session frames (DATA/ACK/NACK/DIGEST/HEARTBEAT),
    the BATCH container and the membership and overlay frames.

    Symmetric; an encoded frame is a whole datagram: ``b"PF"`` + version
    + type byte + body, which keeps it distinguishable from message
    datagrams (``b"PC"``) at the first two bytes — see
    :func:`FrameCodec.is_frame`.  Inside a BATCH the elements go without
    the magic and version (see :class:`BatchFrame`).  The only
    per-instance state is :attr:`counters`, the decode tallies.
    """

    def __init__(self) -> None:
        self.counters = CodecCounters()

    @staticmethod
    def is_frame(data: bytes) -> bool:
        """True when ``data`` looks like a session frame (magic check)."""
        return len(data) >= 4 and data[:2] == _FRAME_MAGIC

    @staticmethod
    def encode_data_body(payload: bytes) -> bytes:
        """The seq-independent tail of a DATA frame: the payload itself,
        which runs to the end of its frame (a datagram, or a BATCH
        element behind its length).

        A fan-out sends the *same* payload to every peer; only the
        per-link seq in the header differs.  Callers take this body once
        and stamp per-peer headers with :meth:`encode_data_with_body`.
        """
        return payload

    @staticmethod
    def encode_data_with_body(seq: int, body: bytes) -> bytes:
        """Complete a DATA frame from a shared :meth:`encode_data_body`."""
        if seq < 0:
            raise CodecError(f"negative link seq {seq}")
        return b"".join([_DATA_HEADER, encode_varint(seq), body])

    def encode(self, frame: Frame) -> bytes:
        header = _FRAME_HEADER
        if isinstance(frame, DataFrame):
            return self.encode_data_with_body(
                frame.seq, self.encode_data_body(frame.payload)
            )
        if isinstance(frame, AckFrame):
            return b"".join([header, struct.pack("<B", _TYPE_ACK), _encode_ack(frame)])
        if isinstance(frame, NackFrame):
            missing = tuple(frame.missing)[:_MAX_NACK]
            if not missing:
                raise CodecError("a NACK must list at least one seq")
            return b"".join(
                [
                    header,
                    struct.pack("<B", _TYPE_NACK),
                    encode_varint(missing[0]),
                    _encode_ascending(missing[1:], missing[0]),
                ]
            )
        if isinstance(frame, DigestFrame):
            return b"".join(
                [header, struct.pack("<B", _TYPE_DIGEST), _encode_frontiers(frame.frontiers)]
            )
        if isinstance(frame, HeartbeatFrame):
            if frame.count < 0:
                raise CodecError(f"negative heartbeat count {frame.count}")
            return b"".join(
                [header, struct.pack("<B", _TYPE_HEARTBEAT), encode_varint(frame.count)]
            )
        if isinstance(frame, BatchFrame):
            if not frame.frames:
                raise CodecError("a BATCH must carry at least one frame")
            flags = _BATCH_HAS_ACK if frame.ack is not None else 0
            parts = [header, struct.pack("<BB", _TYPE_BATCH, flags)]
            if frame.ack is not None:
                parts.append(_encode_ack(frame.ack))
            for inner in frame.frames:
                if inner[:3] != _FRAME_HEADER or len(inner) < 4 or inner[3] == _TYPE_BATCH:
                    raise CodecError(
                        "BATCH inner elements must be encoded non-BATCH frames"
                    )
                parts.append(encode_varint(len(inner) - 3))
                parts.append(inner[3:])
            return b"".join(parts)
        if isinstance(frame, ViewFrame):
            if frame.view_id < 0:
                raise CodecError(f"negative view id {frame.view_id}")
            if frame.epoch < 0:
                raise CodecError(f"negative epoch {frame.epoch}")
            return b"".join(
                [
                    header,
                    struct.pack("<B", _TYPE_VIEW),
                    struct.pack("<QI", frame.view_id, frame.epoch),
                    _encode_members(frame.members),
                ]
            )
        if isinstance(frame, JoinFrame):
            return b"".join(
                [
                    header,
                    struct.pack("<B", _TYPE_JOIN),
                    _encode_short_bytes(frame.node_id.encode("utf-8")),
                    _encode_address(frame.address),
                    _encode_ascending(tuple(frame.keys), -1),
                ]
            )
        if isinstance(frame, JoinAckFrame):
            flags = _JOIN_ACK_ACCEPTED if frame.accepted else 0
            if frame.epoch < 0:
                raise CodecError(f"negative epoch {frame.epoch}")
            return b"".join(
                [
                    header,
                    struct.pack("<BB", _TYPE_JOIN_ACK, flags),
                    struct.pack("<QI", frame.view_id, frame.epoch),
                    struct.pack("<IH", frame.r, frame.k),
                    _encode_ascending(tuple(frame.keys), -1),
                    _encode_members(frame.members),
                    _encode_frontiers(frame.frontiers),
                    struct.pack("<I", len(frame.vector)),
                    b"".join(encode_varint(entry) for entry in frame.vector),
                    _encode_short_bytes(frame.reason.encode("utf-8")),
                ]
            )
        if isinstance(frame, LeaveFrame):
            return b"".join(
                [
                    header,
                    struct.pack("<B", _TYPE_LEAVE),
                    _encode_short_bytes(frame.node_id.encode("utf-8")),
                ]
            )
        if isinstance(frame, RelayFrame):
            if not 0 <= frame.hops <= _MAX_HOPS:
                raise CodecError(f"relay hop count {frame.hops} out of range")
            if len(frame.sample) > _MAX_RELAY_SAMPLE:
                raise CodecError("relay view sample larger than 255 entries")
            return b"".join(
                [
                    header,
                    struct.pack("<BB", _TYPE_RELAY, frame.hops),
                    _encode_members(tuple(frame.sample)),
                    frame.payload,
                ]
            )
        if isinstance(frame, TreeFrame):
            return b"".join(
                [
                    header,
                    struct.pack("<BB", _TYPE_TREE, int(frame.graft)),
                    _encode_short_bytes(frame.origin.encode("utf-8")),
                ]
            )
        raise CodecError(f"not a frame: {type(frame).__name__}")

    def decode(self, data: bytes) -> Frame:
        if not self.is_frame(data):
            raise CodecError("bad frame magic")
        version, frame_type = struct.unpack_from("<BB", data, 2)
        if version != _FRAME_VERSION:
            raise CodecError(f"unsupported frame version {version}")
        offset = 4
        self.counters.frames_decoded += 1
        try:
            if frame_type == _TYPE_DATA:
                seq, offset = decode_varint(data, offset)
                return DataFrame(seq=seq, payload=data[offset:])
            if frame_type == _TYPE_ACK:
                return _decode_ack(data, offset)[0]
            if frame_type == _TYPE_NACK:
                first, offset = decode_varint(data, offset)
                rest, offset = _decode_ascending(data, offset, first)
                return NackFrame(missing=(first,) + rest)
            if frame_type == _TYPE_DIGEST:
                return DigestFrame(frontiers=_decode_frontiers(data, offset)[0])
            if frame_type == _TYPE_HEARTBEAT:
                return HeartbeatFrame(count=decode_varint(data, offset)[0])
            if frame_type == _TYPE_BATCH:
                (flags,) = struct.unpack_from("<B", data, offset)
                offset += 1
                ack = None
                if flags & _BATCH_HAS_ACK:
                    ack, offset = _decode_ack(data, offset)
                frames = []
                while offset < len(data):
                    length, offset = decode_varint(data, offset)
                    end = offset + length
                    if not length or len(data) < end:
                        raise CodecError("truncated BATCH inner frame")
                    if data[offset] == _TYPE_BATCH:
                        raise CodecError("BATCH nested in a BATCH")
                    frames.append(_FRAME_HEADER + data[offset:end])
                    offset = end
                if not frames:
                    raise CodecError("a BATCH must carry at least one frame")
                return BatchFrame(frames=tuple(frames), ack=ack)
            if frame_type == _TYPE_VIEW:
                view_id, epoch = struct.unpack_from("<QI", data, offset)
                offset += 12
                members, offset = _decode_members(data, offset)
                return ViewFrame(view_id=view_id, members=members, epoch=epoch)
            if frame_type == _TYPE_JOIN:
                node_raw, offset = _decode_short_bytes(data, offset)
                address, offset = _decode_address(data, offset)
                keys, offset = _decode_ascending(data, offset, -1)
                return JoinFrame(
                    node_id=node_raw.decode("utf-8"), address=address, keys=keys
                )
            if frame_type == _TYPE_JOIN_ACK:
                (flags,) = struct.unpack_from("<B", data, offset)
                offset += 1
                view_id, epoch = struct.unpack_from("<QI", data, offset)
                offset += 12
                r, k = struct.unpack_from("<IH", data, offset)
                offset += 6
                keys, offset = _decode_ascending(data, offset, -1)
                members, offset = _decode_members(data, offset)
                frontiers, offset = _decode_frontiers(data, offset)
                (vector_len,) = struct.unpack_from("<I", data, offset)
                offset += 4
                vector = []
                for _ in range(vector_len):
                    entry, offset = decode_varint(data, offset)
                    vector.append(entry)
                reason_raw, offset = _decode_short_bytes(data, offset)
                return JoinAckFrame(
                    accepted=bool(flags & _JOIN_ACK_ACCEPTED),
                    view_id=view_id,
                    r=r,
                    k=k,
                    keys=keys,
                    members=members,
                    frontiers=frontiers,
                    vector=tuple(vector),
                    reason=reason_raw.decode("utf-8"),
                    epoch=epoch,
                )
            if frame_type == _TYPE_LEAVE:
                node_raw, offset = _decode_short_bytes(data, offset)
                return LeaveFrame(node_id=node_raw.decode("utf-8"))
            if frame_type == _TYPE_RELAY:
                (hops,) = struct.unpack_from("<B", data, offset)
                sample, offset = _decode_members(data, offset + 1)
                return RelayFrame(hops=hops, sample=sample, payload=data[offset:])
            if frame_type == _TYPE_TREE:
                (graft,) = struct.unpack_from("<B", data, offset)
                if graft > 1:
                    raise CodecError(f"unknown TREE flag bits {graft:#x}")
                origin_raw, offset = _decode_short_bytes(data, offset + 1)
                return TreeFrame(origin=origin_raw.decode("utf-8"), graft=bool(graft))
        except struct.error as exc:
            raise CodecError(f"truncated frame: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise CodecError(f"frame id field is not UTF-8: {exc}") from exc
        raise CodecError(f"unknown frame type {frame_type}")
