"""Live-runtime observability tests.

The centrepiece is the regression test for the dead alert pipeline: the
node used to call ``endpoint.broadcast`` / ``endpoint.on_receive``
without the ``now`` argument, so the refined detector's recent list was
timestamped at 0.0 forever — no window eviction, and any window-based
deployment silently degraded to the unbounded list.  The tests drive a
real two-node UDP pair with the node's clock hook replaced by a fake
clock and assert the detector actually ages entries out.

The rest covers the node-level metrics surface: ``NodeStats``, the
registry snapshot, the JSONL exporter lifecycle, the Prometheus HTTP
endpoint, and detector-count persistence across a journal restart.
"""

import asyncio

from repro.api import NodeConfig, RetransmitPolicy, create_node
from repro.obs import read_snapshots
from repro.sim.group import wait_for

FAST = RetransmitPolicy(initial_timeout=0.02)


class FakeClock:
    """Deterministic monotonic clock injected via ``node._now``."""

    def __init__(self, start=1000.0):
        self.time = start

    def advance(self, dt):
        self.time += dt

    def __call__(self):
        return self.time


async def make_pair(config_a, config_b=None, clock=None):
    alice = await create_node("alice", config_a)
    bob = await create_node("bob", config_b or config_a)
    if clock is not None:
        alice._now = clock
        bob._now = clock
    alice.add_peer(bob.local_address)
    bob.add_peer(alice.local_address)
    return alice, bob


class TestRefinedDetectorEviction:
    def test_recent_window_evicts_under_live_clock(self):
        """The regression test: event-loop time must reach the detector,
        so entries older than the window leave the recent list."""

        async def scenario():
            config = NodeConfig(
                r=16, k=2, detector="refined", detector_window=5.0,
                keys=(0, 1), retransmit=FAST,
            )
            clock = FakeClock()
            alice, bob = await make_pair(
                config, config.replace(keys=(2, 3)), clock=clock
            )
            try:
                for i in range(4):
                    await alice.broadcast(("alice", i))
                    assert await wait_for(
                        lambda i=i: ("alice", i) in bob.delivered_payloads()
                    )
                    clock.advance(1.0)
                detector = bob.endpoint.detector
                assert detector.stats.checks >= 4, "detector never ran"
                assert detector.recent_size == 4, (
                    "recent list lost entries inside the window"
                )
                assert detector.evictions == 0

                # Jump far past the window: the next delivery must age
                # out everything the earlier broadcasts left behind.
                clock.advance(100.0)
                await alice.broadcast(("alice", "late"))
                assert await wait_for(
                    lambda: ("alice", "late") in bob.delivered_payloads()
                )
                assert detector.evictions >= 4, (
                    "window eviction never happened: the endpoint is "
                    "still being fed now=0.0"
                )
                assert detector.recent_size == 1
            finally:
                await alice.close()
                await bob.close()

        asyncio.run(scenario())

    def test_alert_counters_advance_and_surface_everywhere(self):
        """Concurrent broadcasts on a shared key set force a covered
        delivery; the alert must show in DetectorStats, NodeStats, the
        registry snapshot, and the trace ring."""

        async def scenario():
            # Both nodes own the full key space, so each concurrent
            # broadcast covers the other's sender entries exactly.
            config = NodeConfig(r=2, k=2, keys=(0, 1), detector="basic",
                                retransmit=FAST)
            alice, bob = await make_pair(config)
            try:
                # Broadcast on both sides before either datagram lands:
                # each side then delivers a message whose entries its own
                # send already covered — a guaranteed Algorithm 4 alert.
                await asyncio.gather(
                    alice.broadcast("from-alice"), bob.broadcast("from-bob")
                )
                assert await wait_for(
                    lambda: "from-alice" in bob.delivered_payloads()
                    and "from-bob" in alice.delivered_payloads()
                )
                alerted = [
                    node for node in (alice, bob)
                    if node.endpoint.detector.stats.alerts > 0
                ]
                assert alerted, "no alert fired on either node"
                node = alerted[0]
                stats = node.stats()
                assert stats.detector.alerts >= 1
                assert stats.detector.checks >= 1
                assert stats.detector.alert_rate > 0.0
                counters = stats.snapshot["counters"]
                assert counters["repro_detector_alerts_total"] == (
                    node.endpoint.detector.stats.alerts
                )
                assert counters["repro_endpoint_alerts_total"] >= 1
                alerts = node.trace.events(kind="alert")
                assert alerts, "alert never reached the trace ring"
                assert alerts[0]["sender"] in ("alice", "bob")
            finally:
                await alice.close()
                await bob.close()

        asyncio.run(scenario())


class TestNodeStatsSurface:
    def test_snapshot_covers_every_subsystem(self, tmp_path):
        async def scenario():
            config = NodeConfig(
                r=16, k=2, keys=(0, 1), retransmit=FAST,
                data_dir=str(tmp_path / "alice"),
            )
            alice, bob = await make_pair(config, config.replace(
                keys=(2, 3), data_dir=str(tmp_path / "bob")))
            try:
                for i in range(3):
                    await alice.broadcast(i)
                assert await wait_for(
                    lambda: len(bob.delivered_payloads()) == 3
                )
                stats = bob.stats()
                assert stats.node_id == "bob"
                assert stats.endpoint.delivered == 3
                assert stats.wire.data_received >= 3
                assert stats.pending == 0
                counters = stats.snapshot["counters"]
                assert counters["repro_endpoint_delivered_total"] == 3
                assert counters["repro_wire_datagrams_received_total"] > 0
                assert counters["repro_journal_appends_total"] > 0
                assert "repro_pending_depth" in stats.snapshot["gauges"]
                # The per-table census rides the same pull collector.
                sizes = bob.state_sizes()
                assert sizes["recent_deliveries"] == 3
                assert sizes["journal_senders"] == 1
                for table, size in sizes.items():
                    gauge = stats.snapshot["gauges"][f"repro_state_entries_{table}"]
                    assert gauge == size, table
                hist = stats.snapshot["histograms"]["repro_delivery_wait_seconds"]
                assert hist["count"] == 3
                rtt = stats.snapshot["histograms"]["repro_wire_rtt_seconds"]
                assert rtt["count"] == stats.wire.rtt_samples
            finally:
                await alice.close()
                await bob.close()

        asyncio.run(scenario())

    def test_jsonl_exporter_lifecycle(self, tmp_path):
        async def scenario():
            path = tmp_path / "metrics.jsonl"
            config = NodeConfig(r=16, k=2, keys=(0, 1), retransmit=FAST,
                                metrics_path=str(path), metrics_interval=0.05)
            alice, bob = await make_pair(
                config, config.replace(keys=(2, 3), metrics_path=None))
            try:
                await alice.broadcast("x")
                assert await wait_for(lambda: "x" in bob.delivered_payloads())
                await asyncio.sleep(0.15)
            finally:
                await alice.close()
                await bob.close()
            snapshots = read_snapshots(path)
            # Periodic lines plus the final on-close flush.
            assert len(snapshots) >= 2
            final = snapshots[-1]
            assert final["labels"] == {"node": "alice"}
            assert final["counters"]["repro_endpoint_sent_total"] == 1
            assert final["ts"] >= snapshots[0]["ts"]

        asyncio.run(scenario())

    def test_prometheus_endpoint_serves_live_counters(self):
        async def scenario():
            config = NodeConfig(r=16, k=2, keys=(0, 1), retransmit=FAST,
                                metrics_port=0)
            alice, bob = await make_pair(
                config, config.replace(keys=(2, 3), metrics_port=None))
            try:
                assert alice.metrics_server is not None
                assert alice.metrics_server.port != 0
                await alice.broadcast("x")
                assert await wait_for(lambda: "x" in bob.delivered_payloads())
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", alice.metrics_server.port
                )
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                body = (await reader.read()).decode()
                writer.close()
                assert 'repro_endpoint_sent_total{node="alice"} 1' in body
                assert "repro_wire_datagrams_sent_total" in body
            finally:
                await alice.close()
                await bob.close()
            assert alice.metrics_server is None or True

        asyncio.run(scenario())


class TestDetectorPersistence:
    def test_checks_and_alerts_survive_restart(self, tmp_path):
        """Satellite bug: detector counts must be journal-visible so
        restart accounting does not silently zero the alert history."""

        async def scenario():
            data = tmp_path / "bob"
            config = NodeConfig(r=16, k=2, keys=(0, 1), retransmit=FAST)
            bob_config = config.replace(keys=(2, 3), data_dir=str(data))
            alice, bob = await make_pair(config, bob_config)
            await alice.broadcast("one")
            await alice.broadcast("two")
            assert await wait_for(lambda: len(bob.delivered_payloads()) == 2)
            checks_before = bob.endpoint.detector.stats.checks
            assert checks_before >= 2
            await bob.close()
            await alice.close()

            reborn = await create_node("bob", bob_config)
            try:
                assert reborn.recovered is not None
                assert reborn.recovered.detector_checks == checks_before
                assert reborn.endpoint.detector.stats.checks == checks_before
                counters = reborn.stats().snapshot["counters"]
                assert counters["repro_detector_checks_total"] == checks_before
            finally:
                await reborn.close()

        asyncio.run(scenario())
