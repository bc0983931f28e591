"""Wire bytes per delivery, split by what each byte carries.

The four twins of ``tests/test_wire_counts.py`` — the virtual-time
stand-ins of the end-to-end benchmark's workloads — pin their paced
phase's bytes exactly.  This script parses every datagram a session
sends in that phase and charges each byte to one component:

* ``datagram header`` — what opens a datagram: the ``PF`` magic and
  frame version, and for a BATCH its type, flags and (v3) frame count;
* ``ack`` — acknowledgement bodies, standalone or in a BATCH header;
* ``frame headers`` — per frame: its type byte, in a BATCH its length
  (and in v3 its own magic and version), a DATA frame's link seq (and in
  v3 its payload length);
* ``envelope`` — a RELAY's fields around its sample and body (v3:
  origin, seq, hops, ``sent_at``, sample count, body length; v4: hops,
  sample count);
* ``sample`` — the view sample's member records;
* ``body header`` — a message's magic .. seq (a full form's keys and R
  too, a v4 delta's reference gap);
* ``entries + payload`` — the vector or changed entries, the payload
  length and the payload;
* ``digests`` — DIGEST bodies;
* ``control`` — every other frame's body (NACK, HEARTBEAT, membership,
  PRUNE/GRAFT).

It reads frame versions 3 and 4 and message versions 4 and 5, so the
same script splits a tree before and after the v4 frame layout and the
v5 delta header.

Usage::

    PYTHONPATH=src python benchmarks/wire_bytes.py [--out FILE]

``--out`` also writes the table to ``FILE``, as committed under
``benchmarks/results/`` (``wire_bytes_v3.txt`` before frame v4,
``wire_bytes_v4.txt`` before message v5, ``wire_bytes.txt`` now).  ``tests/test_wire_counts.py`` checks on every twin that the
components sum to the pinned bytes.
"""

from __future__ import annotations

import argparse
import pathlib
import struct
import sys
from collections import Counter
from typing import Tuple

from repro.net.session import ReliableSession
from repro.sim.vtime import run_virtual

ROOT = pathlib.Path(__file__).resolve().parent.parent
COMPONENTS = (
    "datagram header", "ack", "frame headers", "envelope", "sample", "body header",
    "entries + payload", "digests", "control",
)
_DATA, _ACK, _DIGEST, _BATCH, _RELAY = 1, 2, 4, 6, 11


def _varint(data: bytes, offset: int) -> Tuple[int, int]:
    value = shift = 0
    while True:
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        shift += 7
        if byte < 0x80:
            return value, offset


def _short(data: bytes, offset: int, version: int) -> int:
    """The offset past a length-prefixed id (u16 length in v3, varint in v4)."""
    if version == 3:
        return offset + 2 + struct.unpack_from("<H", data, offset)[0]
    length, offset = _varint(data, offset)
    return offset + length


def _ascending(data: bytes, offset: int) -> int:
    count, offset = _varint(data, offset)
    for _ in range(count):
        _, offset = _varint(data, offset)
    return offset


def _members(data: bytes, offset: int, version: int) -> Tuple[int, int]:
    """``(offset past the member count, offset past the records)``."""
    if version == 3:
        count, offset = struct.unpack_from("<H", data, offset)[0], offset + 2
    else:
        count, offset = _varint(data, offset)
    start = offset
    for _ in range(count):
        offset = _short(data, offset, version)  # the node id
        if version == 3:
            offset = _short(data, offset, 3)  # the JSON address
        elif data[offset] == 1:
            offset += 7  # tag, IPv4 quad, port
        else:
            offset = _short(data, offset + 1, 4)
        offset = _ascending(data, offset)  # the keys
    return start, offset


def _body(data: bytes, parts: Counter) -> None:
    """A message encoding: its header, then its entries and payload."""
    sender_end = 8 + struct.unpack_from("<H", data, 6)[0]
    if data[3] & 0x02 and data[2] >= 5:  # a v5 delta: varint sender length, seq
        length, offset = _varint(data, 4)
        _, header = _varint(data, offset + length)
    elif data[3] & 0x02:  # a v4 delta: seq and reference gap varints
        _, offset = _varint(data, sender_end)
        _, header = _varint(data, offset)
    else:  # a full form: u64 seq, the keys, u32 R
        key_count = struct.unpack_from("<H", data, sender_end + 8)[0]
        header = sender_end + 8 + 2 + 4 * key_count + 4
    parts["body header"] += header
    parts["entries + payload"] += len(data) - header


def _frame(data: bytes, offset: int, end: int, version: int, parts: Counter) -> None:
    """One frame at ``offset`` (its type byte) running to ``end``."""
    frame_type = data[offset]
    parts["frame headers"] += 1
    offset += 1
    if frame_type == _DATA:
        _, start = _varint(data, offset)
        if version == 3:
            _, start = _varint(data, start)
        parts["frame headers"] += start - offset
        _body(data[start:end], parts)
    elif frame_type == _RELAY:
        start = offset
        if version == 3:
            offset = _short(data, offset, 3)  # origin
            _, offset = _varint(data, offset)  # seq
            offset += 9  # hops, sent_at
        else:
            offset += 1  # hops
        count_end, sample_end = _members(data, offset, version)
        body_start = _varint(data, sample_end)[1] if version == 3 else sample_end
        parts["envelope"] += (count_end - start) + (body_start - sample_end)
        parts["sample"] += sample_end - count_end
        _body(data[body_start:end], parts)
    elif frame_type == _ACK:
        parts["ack"] += end - offset
    elif frame_type == _DIGEST:
        parts["digests"] += end - offset
    else:
        parts["control"] += end - offset


def split(datagram: bytes, parts: Counter) -> None:
    """Charge every byte of one session datagram to a component."""
    version = datagram[2]
    if datagram[3] != _BATCH:
        parts["datagram header"] += 3
        _frame(datagram, 3, len(datagram), version, parts)
        return
    offset = 5  # magic, version, type, flags
    if datagram[4] & 0x01:
        ack_end = _ascending(datagram, _varint(datagram, offset)[1])
        parts["ack"] += ack_end - offset
        offset = ack_end
    header = 5
    if version == 3:  # the frame count
        count_start = offset
        _, offset = _varint(datagram, offset)
        header += offset - count_start
    parts["datagram header"] += header
    while offset < len(datagram):
        length, start = _varint(datagram, offset)
        end = start + length
        inner = start + 3 if version == 3 else start  # v3 elements repeat magic and version
        parts["frame headers"] += inner - offset
        _frame(datagram, inner, end, version, parts)
        offset = end


class Capture:
    """While open, splits every datagram any :class:`ReliableSession`
    of this process sends (``parts``, a Counter of bytes by component)."""

    def __init__(self) -> None:
        self.parts: Counter = Counter()

    def __enter__(self) -> "Capture":
        parts, original = self.parts, ReliableSession._send_datagram
        self._original = original

        def send_datagram(session, addr, state, data, frames):
            split(data, parts)
            return original(session, addr, state, data, frames)

        ReliableSession._send_datagram = send_datagram
        return self

    def __exit__(self, *exc_info) -> None:
        ReliableSession._send_datagram = self._original


def table() -> str:
    if str(ROOT) not in sys.path:
        sys.path.insert(0, str(ROOT))  # the twins live in tests/
    from tests.test_wire_counts import LOSSY, busy_mesh, paced_mesh, paced_overlay

    twins = (
        ("paced_mesh (mesh4_paced)", lambda: paced_mesh(seed=1, split=True)),
        ("busy_mesh (mesh4_saturate)", lambda: busy_mesh(seed=1, split=True)),
        ("lossy busy_mesh (mesh4_lossy)", lambda: busy_mesh(seed=1, faults=LOSSY, split=True)),
        ("paced_overlay (overlay16_paced)", lambda: paced_overlay(seed=1, split=True)),
    )
    lines = []
    for name, scenario in twins:
        paced = run_virtual(scenario())
        parts, deliveries = paced["parts"], paced["deliveries"]
        lines.append(
            f"{name}: {paced['bytes']:,} B for {deliveries:,} deliveries, "
            f"{paced['bytes'] / deliveries:.1f} per delivery"
        )
        for component in COMPONENTS:
            lines.append(f"  {component:<18} {parts[component] / deliveries:7.2f}")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=pathlib.Path, help="also write the table here")
    args = parser.parse_args()
    text = table()
    print(text)
    if args.out is not None:
        args.out.write_text(text + "\n")


if __name__ == "__main__":
    main()
