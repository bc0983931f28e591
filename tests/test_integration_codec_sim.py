"""Integration: the wire codec inside a full simulated system.

Every message crossing the simulated network is encoded to bytes and
decoded again before reaching the receiver, exactly as a deployment
would do.  The run must behave byte-for-byte like the object-passing
run: same deliveries, same orderings, same payload fidelity — proving
the codec is lossless with respect to everything the protocol reads.
"""

import dataclasses

from repro.core.codec import MessageCodec
from repro.sim import (
    GaussianDelayModel,
    PoissonWorkload,
    SimulationConfig,
    run_simulation,
)
from repro.sim.runner import _Run

CONFIG = SimulationConfig(
    n_nodes=15,
    r=24,
    k=3,
    key_assigner="random-colliding",
    duration_ms=10_000.0,
    seed=13,
    workload=PoissonWorkload(600.0),
    delay_model=GaussianDelayModel(),
)


def wire(monkeypatch):
    """Round-trip every copy through the codec where the runner hands it
    to its receiver; returns the tally of copies and bytes."""
    codec = MessageCodec()
    tally = {"copies": 0, "bytes": 0}
    receive = _Run._handle_receive

    def handle_receive(run, event):
        node, message = event
        data = codec.encode(message)
        tally["copies"] += 1
        tally["bytes"] += len(data)
        decoded = codec.decode(data)
        # Node ids are ints in the runner; the wire carries them as text.
        decoded = dataclasses.replace(decoded, sender=type(message.sender)(decoded.sender))
        receive(run, (node, decoded))

    monkeypatch.setattr(_Run, "_handle_receive", handle_receive)
    return tally


class TestCodecInTheLoop:
    def test_run_through_bytes_matches_object_run(self, monkeypatch):
        plain = run_simulation(CONFIG)
        tally = wire(monkeypatch)
        encoded = run_simulation(CONFIG)

        assert tally["copies"] > 0
        assert encoded.sent == plain.sent
        assert encoded.delivered_remote == plain.delivered_remote
        assert encoded.counters.violations == plain.counters.violations
        assert encoded.counters.ambiguous == plain.counters.ambiguous
        assert encoded.stuck_pending == 0
        assert encoded.latency["mean"] == plain.latency["mean"]

    def test_wire_volume_accounts_for_every_copy(self, monkeypatch):
        tally = wire(monkeypatch)
        result = run_simulation(CONFIG)
        assert tally["copies"] == result.sent * (result.config.n_nodes - 1)
        # Mean bytes/message is within the codec's plausible range for
        # R=24 (header + 24 varint entries + 3 keys).
        mean_bytes = tally["bytes"] / tally["copies"]
        assert 30 <= mean_bytes <= 120
