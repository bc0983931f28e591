"""Wire overhead — what the timestamps actually cost on the network.

The paper's core economic argument is "few integer timestamps" against
the vector clock's N counters.  The static table (§2) counts abstract
entries; this benchmark measures *encoded bytes* with the real wire
codec, in realistic clock states (counters grown by traffic), across the
clock family and across R:

* varint (LEB128) entries — the only form the codec speaks — shrink
  young vectors dramatically against the uint32 slots they replace (the
  "fixed" column, computed) and keep a 2-3x advantage even after
  millions of increments (counters grow logarithmically in bytes);
* the (R, K) timestamp's size is independent of both N and the traffic
  history's *origin* — only total volume matters;
* the vector clock's encoded size crosses the (R=100) timestamp as soon
  as N > ~R, exactly the regime the paper targets.
"""

import pytest

from repro.analysis.tables import render_table
from repro.core.clocks import EntryVectorClock, VectorCausalClock
from repro.core.codec import MessageCodec, encode_varint
from repro.core.protocol import CausalBroadcastEndpoint
from repro.util.rng import RandomSource

from _common import report

TRAFFIC_STEPS = [0, 1_000, 100_000]  # messages the system has seen
SYSTEM_SIZES = [50, 100, 1_000, 10_000]
R = 100
K = 4


def grown_clock(clock_factory, traffic, rng):
    """A clock whose entries reflect ``traffic`` prior messages."""
    clock = clock_factory()
    if traffic:
        # Simulate history: spread `traffic` increments over the entries
        # via the bootstrap path (cheaper than delivering one by one).
        r = clock.r
        base = traffic * clock.k // r
        vector = [max(0, base + rng.integer(-base // 2 - 1, base // 2 + 1)) for _ in range(r)]
        clock.initialize_from(vector)
    return clock


def encoded_sizes():
    rng = RandomSource(seed=77).spawn("wire")
    codec = MessageCodec()
    rows = []

    for traffic in TRAFFIC_STEPS:
        # (R, K) clock — size independent of N by construction.
        rk_clock = grown_clock(lambda: EntryVectorClock(R, (3, 17, 42, 88)), traffic, rng)
        endpoint = CausalBroadcastEndpoint("rk", rk_clock)
        message = endpoint.broadcast(None)
        rk_varint = len(codec.encode(message))
        # What the same message would weigh with the R entries in
        # uint32 slots: swap the varint block for 4 bytes per entry.
        varint_block = sum(
            len(encode_varint(int(entry))) for entry in message.timestamp.vector
        )
        rk_fixed = rk_varint - varint_block + 4 * R

        vector_sizes = {}
        for n in SYSTEM_SIZES:
            vc = grown_clock(lambda n=n: VectorCausalClock(n, 0), traffic, rng)
            vc_endpoint = CausalBroadcastEndpoint("vc", vc)
            vc_message = vc_endpoint.broadcast(None)
            vector_sizes[n] = len(codec.encode(vc_message))

        rows.append(
            [
                traffic,
                rk_varint,
                rk_fixed,
                vector_sizes[50],
                vector_sizes[100],
                vector_sizes[1_000],
                vector_sizes[10_000],
            ]
        )
    return rows


def test_wire_overhead(benchmark):
    rows = benchmark.pedantic(encoded_sizes, rounds=1, iterations=1)

    table = render_table(
        [
            "prior msgs",
            f"(R={R},K={K}) varint B",
            f"(R={R},K={K}) fixed B",
            "VC n=50 B",
            "VC n=100 B",
            "VC n=1000 B",
            "VC n=10000 B",
        ],
        rows,
        title="encoded message size (empty payload), real wire codec",
    )
    report("wire_overhead", table)

    young, mid, old = rows
    # Varint beats fixed encoding at every age; hugely when young.
    assert young[1] < young[2] / 2
    assert old[1] < old[2]
    # The (R, K) timestamp is independent of N; the vector clock is not:
    # at n = 1000 (the paper's population) it already dwarfs (R, K).
    for row in rows:
        assert row[5] > 3 * row[1]
        assert row[6] > 30 * row[1]
    # Below R the vector clock is naturally smaller — the paper's scheme
    # is a large-system play.
    assert young[3] <= young[1]
    # Growth with traffic is logarithmic-ish: 100x more messages must not
    # double the varint size more than a few times over.
    assert old[1] < young[1] * 8
