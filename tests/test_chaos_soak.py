"""The chaos harness: crash/restart + partition + 25% loss, oracle-checked.

The ISSUE acceptance scenario: four real UDP nodes under 25% drop, 10%
duplication, and 10% reordering, with one scheduled partition window and
two crash/restarts mid-stream, must deliver 100% of messages in causal
order — verified against the simulator's ground-truth
:class:`~repro.sim.oracle.CausalityOracle` — and each journal-recovered
node must resume with exactly its pre-crash vector clock and sequence
numbers.

Marked ``soak``: excluded from tier-1 (see pyproject addopts), run in
CI's dedicated soak job.
"""

import asyncio

import pytest

from repro.api import LivenessPolicy, NodeConfig, RetransmitPolicy, create_node
from repro.net import FaultWindow, FaultyTransport, UdpTransport
from repro.net.session import TransportStats
from repro.sim.oracle import CausalityOracle, DeliveryVerdict
from repro.util.rng import RandomSource

pytestmark = pytest.mark.soak

NAMES = ("a", "b", "c", "d")
DROP, DUP, REORDER = 0.25, 0.10, 0.10


async def wait_for(predicate, timeout=30.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


class Harness:
    """Four chaos-wrapped nodes, an oracle, and crash/restart plumbing."""

    def __init__(self, tmp_path):
        self.tmp = tmp_path
        self.oracle = CausalityOracle(capacity=len(NAMES))
        self.nodes = {}
        self.addresses = {}
        self.sent = 0
        # Deliveries performed by a node's *previous* incarnations: a
        # restarted node never re-delivers what it already delivered
        # (that is the journal working), so its fresh deliveries list
        # only ever grows by what it missed.
        self.delivered_before_crash = {name: 0 for name in NAMES}
        self.config = NodeConfig(
            r=64, k=3,
            retransmit=RetransmitPolicy(initial_timeout=0.02),
            anti_entropy_interval=0.1,
            liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=0.6),
            journal_snapshot_interval=16,
        )
        # Explicitly disjoint key sets: with shared entries the (R, K)
        # scheme's violations are *probabilistic by design* (the hash
        # assignment at this R gives b and c two common entries, and the
        # simulator suite is what measures those rates), so a zero-
        # violation assertion would flake on timing.  Disjoint keys make
        # the delivery condition exact, so the oracle soundly verifies
        # the thing this soak is about: the runtime's reliability and
        # recovery machinery.
        self.keys = {
            name: tuple(range(3 * i, 3 * i + 3)) for i, name in enumerate(NAMES)
        }
        for name in NAMES:
            self.oracle.register_node(name)

    def _wrap(self, transport, name, windows=()):
        return FaultyTransport(
            transport,
            drop_rate=DROP, duplicate_rate=DUP, reorder_rate=REORDER,
            rng=RandomSource(seed=7).spawn(f"chaos-{name}"),
            windows=windows,
        )

    def _on_delivery(self, name):
        def callback(record):
            if record.local:
                return
            result = self.oracle.classify_delivery(
                name,
                record.message.message_id,
                now=asyncio.get_running_loop().time(),
            )
            assert result.verdict is not DeliveryVerdict.VIOLATION, (
                f"{name} delivered {record.message.message_id} out of "
                f"causal order"
            )
        return callback

    async def boot(self, name, port=0, windows=()):
        udp = await UdpTransport.create(port=port)
        transport = self._wrap(udp, name, windows=windows)
        node = await create_node(
            name,
            self.config.replace(
                data_dir=str(self.tmp / name), keys=self.keys[name],
                metrics_path=str(self.tmp / f"{name}.metrics.jsonl"),
                metrics_interval=0.2,
            ),
            transport=transport,
            on_delivery=self._on_delivery(name),
            start=False,
        )
        self.nodes[name] = node
        self.addresses[name] = udp.local_address
        return node

    async def start_all(self):
        for name, node in self.nodes.items():
            await node.start()
            node.transport.arm()
            for other, address in self.addresses.items():
                if other != name:
                    node.add_peer(address)

    async def broadcast(self, name):
        node = self.nodes[name]
        # Register with the oracle *before* the wire send: a fast peer
        # could deliver (and classify) the message before broadcast()
        # returns.  The message id is deterministic: (name, next seq).
        message_id = (name, node.endpoint.clock.send_count + 1)
        self.oracle.on_send(
            name,
            message_id,
            now=asyncio.get_running_loop().time(),
            fanout=len(NAMES) - 1,
        )
        message = await node.broadcast((name, self.sent))
        assert message.message_id == message_id
        self.sent += 1

    async def crash(self, name):
        node = self.nodes.pop(name)
        state = (node.endpoint.clock.snapshot(), node.endpoint.clock.send_count)
        self.delivered_before_crash[name] += len(node.deliveries)
        await node.close()
        return state

    async def restart(self, name, pre_crash_state):
        port = self.addresses[name][1]
        node = await self.boot(name, port=port)
        # The acceptance bar: the journal reconstructed *exactly* the
        # pre-crash clock — vector and send counter.  Checked against
        # the recovery record (what the constructor restored) rather
        # than the live clock, which in-flight retransmits may already
        # be advancing.
        assert node.recovered is not None, f"{name} recovered nothing"
        assert tuple(node.recovered.vector) == pre_crash_state[0], (
            f"{name}'s recovered vector differs from its pre-crash vector"
        )
        assert node.recovered.send_seq == pre_crash_state[1], (
            f"{name}'s recovered send count differs"
        )
        await node.start()
        node.transport.arm()
        for other, address in self.addresses.items():
            if other != name:
                node.add_peer(address)
        return node

    def converged(self):
        return all(
            self.delivered_before_crash[name] + len(node.deliveries) == self.sent
            for name, node in self.nodes.items()
        )


def test_chaos_soak(tmp_path):
    """Two crash/restarts and a partition under 25% loss: 100% causal
    delivery, exact journal recovery, zero oracle violations."""

    async def scenario():
        harness = Harness(tmp_path)
        # Partition {a, b} | {c, d} during [1.0, 1.6) of transport time.
        # Each side's windows drop datagrams to the other side only;
        # heartbeats die with the rest, so quarantine may fire — which
        # is part of what the scenario must survive.
        for name in NAMES:
            await harness.boot(name)
        sides = {
            "a": ("c", "d"), "b": ("c", "d"),
            "c": ("a", "b"), "d": ("a", "b"),
        }
        for name, others in sides.items():
            node = harness.nodes[name]
            window = FaultWindow(
                start=1.0, end=1.6, drop=True,
                peers=frozenset(harness.addresses[o] for o in others),
            )
            node.transport.set_windows((window,))
        await harness.start_all()

        # Phase 1 — all four broadcast across the partition window.
        for i in range(10):
            for name in NAMES:
                await harness.broadcast(name)
            await asyncio.sleep(0.18)

        # Phase 2 — crash b, keep the others talking, restart b.
        b_state = await harness.crash("b")
        for i in range(4):
            for name in ("a", "c", "d"):
                await harness.broadcast(name)
            await asyncio.sleep(0.25)  # > quarantine_after in total
        assert await wait_for(
            lambda: any(
                harness.nodes[n].liveness.is_quarantined(
                    harness.addresses["b"]
                )
                for n in ("a", "c", "d")
            ),
            timeout=10.0,
        ), "nobody quarantined the crashed node"
        await harness.restart("b", b_state)
        for name in NAMES:
            await harness.broadcast(name)

        # Phase 3 — crash c the same way, restart, final burst.
        c_state = await harness.crash("c")
        await asyncio.sleep(0.8)
        for name in ("a", "b", "d"):
            await harness.broadcast(name)
        await harness.restart("c", c_state)
        for name in NAMES:
            await harness.broadcast(name)

        # Convergence: every node delivers every message.
        assert await wait_for(harness.converged, timeout=60.0), (
            f"no convergence: sent={harness.sent}, delivered="
            f"{ {n: harness.delivered_before_crash[n] + len(node.deliveries) for n, node in harness.nodes.items()} }"
        )

        # Oracle verdicts: all deliveries accounted, zero violations,
        # zero ambiguous (nothing was force-merged).
        totals = harness.oracle.totals
        assert totals.deliveries == harness.sent * (len(NAMES) - 1)
        assert totals.violations == 0, f"{totals.violations} causal violations"
        assert totals.ambiguous == 0, f"{totals.ambiguous} ambiguous deliveries"

        # Per-sender FIFO at every node (causal order implies it).  A
        # restarted node's list starts mid-stream (pre-crash deliveries
        # belong to its previous incarnation), so only consecutiveness
        # *within* the list is asserted, from whatever seq it starts at.
        for name, node in harness.nodes.items():
            last = {}
            for record in node.deliveries:
                sender, seq = record.message.message_id
                if sender in last:
                    assert seq == last[sender] + 1, (
                        f"{name} broke {sender}'s FIFO order at seq {seq}"
                    )
                last[sender] = seq

        # The chaos genuinely fired, and the liveness layer reacted.
        total_window_drops = sum(
            node.transport.window_dropped for node in harness.nodes.values()
        )
        total_drops = sum(
            node.transport.dropped for node in harness.nodes.values()
        )
        assert total_drops > 0, "probabilistic loss never fired"
        assert total_window_drops > 0, "the partition window never fired"
        quarantines = sum(
            node.liveness.quarantines for node in harness.nodes.values()
        )
        resumes = sum(
            node.liveness.resumes for node in harness.nodes.values()
        )
        assert quarantines >= 1, "no peer was ever quarantined"
        assert resumes >= 1, "no quarantined peer ever resumed"

        # The batched wire path (the NodeConfig defaults) was live
        # through the whole ordeal: frames coalesced into batches and
        # O(K) delta timestamps flowed despite the partition, the loss,
        # and two crash/restarts.
        def merged_wire():
            merged = TransportStats()
            for node in harness.nodes.values():
                merged = merged.merge(node.transport_stats())
            return merged

        wire = merged_wire()
        assert wire.batches_sent > 0, "nothing ever coalesced"
        assert wire.delta_sent > 0, "no delta timestamp ever flowed"

        # And the crash/restarts did not leave any link in permanent
        # full-encoding fallback: references resync via the journal's
        # persisted delta state or a digest exchange after a reference
        # miss, so a fresh post-convergence round still travels (at
        # least partly) as deltas.
        deltas_before = wire.delta_sent
        for name in NAMES:
            await harness.broadcast(name)
        assert await wait_for(harness.converged, timeout=30.0), (
            "no convergence on the post-restart delta-resync round"
        )
        assert merged_wire().delta_sent > deltas_before, (
            "every link fell back to full encodings for good after the "
            "restarts — delta references never resynced"
        )

        for node in harness.nodes.values():
            await node.close()

        # Observability acceptance: the soak exported metrics JSONL for
        # every node, and the fleet-wide merge shows the pipeline was
        # alive end to end — detector checks ran, wire counters moved,
        # the pending-depth gauge and the delivery-latency histogram
        # were exported.
        from repro.obs import Histogram, last_snapshot, merge_snapshots

        snapshots = []
        for name in NAMES:
            snapshot = last_snapshot(tmp_path / f"{name}.metrics.jsonl")
            assert snapshot is not None, f"{name} exported no metrics"
            snapshots.append(snapshot)
        fleet = merge_snapshots(snapshots)
        counters = fleet["counters"]
        assert counters["repro_detector_checks_total"] > 0
        assert counters["repro_endpoint_delivered_total"] > 0
        assert counters["repro_wire_datagrams_sent_total"] > 0
        assert counters["repro_wire_retransmits_total"] > 0
        assert "repro_pending_depth" in fleet["gauges"]
        waits = Histogram.from_dict(
            fleet["histograms"]["repro_delivery_wait_seconds"]
        )
        assert waits.count > 0, "delivery-latency histogram is empty"

    asyncio.run(scenario())
