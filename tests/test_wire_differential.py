"""Scripted exchanges on the shipped wire: what the application observes.

The coalescing / held-ack / delta-timestamp wire (the `NodeConfig`
defaults — there is no other) must leave nothing for the application to
notice.  Each test runs a scripted scenario on a judged `Group` under
virtual time — 20 % loss, 10 % duplication, jittered delays that
reorder, and in one a journaled crash/restart mid-stream — and checks
everything the application can observe:

* full convergence — every node delivers the complete message set;
* zero oracle violations (disjoint key sets make the delivery condition
  exact, so this is a sound zero): no message out of causal order, none
  twice, and so per-sender FIFO at every node;
* for a single sender, the *total* delivery order — which is fully
  determined (seq order), datagram schedule notwithstanding.

The wire stats double-check that the run is honest: it must actually
have batched, piggybacked acks and delta-encoded.
"""

import asyncio
import dataclasses

import pytest

from repro.api import NodeConfig, RetransmitPolicy
from repro.net.session import TransportStats
from repro.sim.group import Group, disjoint_keys
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual

SHIPPED = NodeConfig(
    r=64, k=3, retransmit=RetransmitPolicy(initial_timeout=0.02), anti_entropy_interval=0.1
)
LOSS, DUPLICATES, DELAYS = 0.20, 0.10, GaussianDelayModel(5.0, 2.0, 2.0)


async def lossy_group(size, seed, config=SHIPPED, root=None) -> Group:
    keyed = disjoint_keys(config)
    return await Group.start(
        size,
        keyed if root is None else lambda name: keyed(name).replace(data_dir=str(root / name)),
        seed, LOSS, DELAYS, judged=True, duplicate_rate=DUPLICATES,
    )


async def rounds(group, count, pause, names=None):
    for _ in range(count):
        for node in list(group.nodes):
            if names is None or node.node_id in names:
                await node.broadcast(group.sent)
        await asyncio.sleep(pause)


async def settled(group) -> None:
    """Every node delivered every broadcast exactly once, in causal order."""
    await group.settle(timeout=30.0)
    assert group.counts()["violations"] == 0, group.oracle.totals
    for name, order in group.order.items():
        assert len(set(order)) == len(order) == group.sent, name


def assert_wire_shape(stats):
    """The run really exercised the batched, delta-encoding wire."""
    assert stats.batches_sent > 0, "run never coalesced"
    assert stats.acks_piggybacked > 0, "run never piggybacked an ack"
    assert stats.delta_sent > 0, "run never sent a delta"


class TestObservationalEquivalence:
    def test_lossy_multiparty_exchange(self):
        async def scenario():
            async with await lossy_group(3, seed=31) as group:
                await rounds(group, 8, 0.03)
                await settled(group)
                return group.wire()

        assert_wire_shape(run_virtual(scenario()))

    def test_crash_restart(self, tmp_path):
        """A journaled crash/restart mid-stream: the group converges to
        the full delivered sets; the restarted node's delta references
        survive through the journal, and where one did not anti-entropy
        re-ships the message full — the application cannot tell."""

        async def scenario():
            async with await lossy_group(3, seed=47, root=tmp_path) as group:
                await rounds(group, 8, 0.03)
                await group.crash("n1")
                await rounds(group, 3, 0.05)
                assert (await group.restart("n1")).recovered is not None
                await rounds(group, 1, 0.0)
                await settled(group)
                return group.wire()

        assert_wire_shape(run_virtual(scenario()))

    def test_single_sender_total_order_is_identical(self):
        """With one sender the delivery order is fully determined (seq
        order), so every receiver must observe exactly that sequence,
        whatever the datagram schedule did."""

        async def scenario():
            async with await lossy_group(3, seed=59) as group:
                await rounds(group, 20, 0.0, names=("n0",))
                await settled(group)
                return group.order

        order = run_virtual(scenario())
        assert order["n1"] == order["n2"] == [("n0", seq) for seq in range(1, 21)]


class TestRegistryDifferential:
    def test_registry_wire_counters_match_transport_stats(self):
        """The observability acceptance test: the registry-backed wire
        series must be value-identical to the TransportStats counters,
        with faults active.  Both reads happen with no await in between,
        so the event loop cannot interleave wire activity."""

        RTT_FIELDS = ("rtt", "rtt_min", "rtt_max")

        async def scenario():
            async with await lossy_group(3, seed=71) as group:
                await rounds(group, 6, 0.03)
                await settled(group)
                for node in group.nodes:
                    stats = node.transport_stats()
                    snapshot = node.metrics.snapshot()
                    for field in dataclasses.fields(TransportStats):
                        if field.name in RTT_FIELDS:
                            continue
                        key = f"repro_wire_{field.name}_total"
                        assert snapshot["counters"][key] == getattr(stats, field.name), (
                            node.node_id, key
                        )
                    if stats.rtt is not None:
                        assert snapshot["gauges"]["repro_wire_rtt_mean_seconds"] == (
                            pytest.approx(stats.rtt)
                        )

        run_virtual(scenario())
