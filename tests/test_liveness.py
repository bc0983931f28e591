"""Failure-detector tests: monitor verdicts, quarantine, heal-on-return.

The integration tests run real UDP nodes with aggressive heartbeat
timings so a "death" is detected within a few hundred milliseconds.
"""

import asyncio

import pytest

from repro.api import LivenessPolicy, NodeConfig, RetransmitPolicy, create_node
from repro.core.errors import ConfigurationError
from repro.net import session as session_module
from repro.net.liveness import PeerLivenessMonitor
from repro.sim.group import wait_for


class TestPolicy:
    def test_defaults_valid(self):
        policy = LivenessPolicy()
        assert policy.quarantine_after >= policy.heartbeat_interval

    def test_zero_heartbeat_rejected(self):
        with pytest.raises(ConfigurationError):
            LivenessPolicy(heartbeat_interval=0.0)

    def test_quarantine_faster_than_heartbeat_rejected(self):
        with pytest.raises(ConfigurationError):
            LivenessPolicy(heartbeat_interval=1.0, quarantine_after=0.5)

    def test_config_validates_pair(self):
        """The config holds a policy object, valid by construction; the
        flat pair a switched-off detector could carry invalid is gone."""
        with pytest.raises(TypeError):
            NodeConfig(heartbeat_interval=1.0, quarantine_after=0.1)
        with pytest.raises(ConfigurationError, match="LivenessPolicy"):
            NodeConfig(liveness=1.0)
        assert NodeConfig().liveness is None


class TestMonitor:
    def make(self):
        return PeerLivenessMonitor(
            LivenessPolicy(heartbeat_interval=0.1, quarantine_after=1.0)
        )

    def test_silent_peer_quarantined_once(self):
        monitor = self.make()
        monitor.track("a", now=0.0)
        assert monitor.sweep(now=0.5) == []
        assert monitor.sweep(now=1.5) == ["a"]
        assert monitor.is_quarantined("a")
        assert monitor.sweep(now=2.5) == []  # already quarantined
        assert monitor.quarantines == 1

    def test_touch_revives_and_reports(self):
        monitor = self.make()
        monitor.track("a", now=0.0)
        monitor.sweep(now=2.0)
        assert monitor.touch("a", now=2.1) is True   # revival: caller heals
        assert monitor.touch("a", now=2.2) is False  # plain activity
        assert not monitor.is_quarantined("a")
        assert monitor.resumes == 1

    def test_touch_auto_tracks_unknown_peer(self):
        monitor = self.make()
        assert monitor.touch("new", now=5.0) is False
        assert monitor.sweep(now=7.0) == ["new"]

    def test_track_is_idempotent_and_keeps_first_deadline(self):
        monitor = self.make()
        monitor.track("a", now=0.0)
        monitor.track("a", now=10.0)  # must not refresh the grace period
        assert monitor.sweep(now=2.0) == ["a"]

    def test_forget_removes_all_state(self):
        monitor = self.make()
        monitor.track("a", now=0.0)
        monitor.sweep(now=2.0)
        monitor.forget("a")
        assert not monitor.is_quarantined("a")
        assert monitor.sweep(now=9.0) == []
        assert monitor.quarantined_peers() == ()


class TestQuarantineIntegration:
    def test_dead_peer_quarantined_and_backpressure_released(self, monkeypatch):
        """A crashed peer is quarantined within the timeout; its unacked
        backlog is released so the sender's bounded buffer stops blocking
        broadcasts to healthy peers."""
        monkeypatch.setattr(session_module, "_SEND_BUFFER", 4)
        monkeypatch.setattr(session_module, "_MAX_RETRIES", 100)

        async def scenario():
            config = NodeConfig(
                r=32, k=2, anti_entropy_interval=0.0,
                retransmit=RetransmitPolicy(initial_timeout=0.02),
                liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=0.25),
            )
            alice = await create_node("alice", config)
            bob = await create_node("bob", config)
            alice.add_peer(bob.local_address)
            bob.add_peer(alice.local_address)
            await alice.broadcast("warmup")
            assert await wait_for(lambda: len(bob.deliveries) == 1)

            bob_address = bob.local_address
            await bob.close()  # bob dies silently

            assert await wait_for(
                lambda: alice.liveness.is_quarantined(bob_address), timeout=5.0
            ), "silent peer never quarantined"
            stats = alice.transport_stats(bob_address)
            assert stats.heartbeats_sent > 0

            # The send buffer is tiny (4); with bob quarantined these
            # broadcasts must skip him entirely instead of blocking on
            # his backpressure budget.
            for i in range(10):
                await asyncio.wait_for(alice.broadcast(i), timeout=1.0)
            assert alice.session.unacked_count(bob_address) == 0
            assert alice.transport_stats(bob_address).quarantine_drops >= 0
            await alice.close()

        asyncio.run(scenario())

    def test_restarted_peer_resumes_and_heals(self):
        """A journaled bob restarting on the same port is resumed on his
        first datagram, and anti-entropy closes the gap that accumulated
        while he was down."""

        async def scenario(tmp):
            config = NodeConfig(
                r=32, k=2, anti_entropy_interval=0.1,
                retransmit=RetransmitPolicy(initial_timeout=0.02),
                liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=0.25),
            )
            bob_config = config.replace(data_dir=str(tmp / "bob"))
            alice = await create_node("alice", config)
            bob = await create_node("bob", bob_config)
            alice.add_peer(bob.local_address)
            bob.add_peer(alice.local_address)
            await alice.broadcast("before")
            assert await wait_for(lambda: len(bob.deliveries) == 1)

            bob_address = bob.local_address
            await bob.close()
            assert await wait_for(
                lambda: alice.liveness.is_quarantined(bob_address), timeout=5.0
            )
            # Broadcast while bob is down: skips him (quarantined).
            await alice.broadcast("during")

            bob2 = await create_node(
                "bob", bob_config.replace(port=bob_address[1])
            )
            bob2.add_peer(alice.local_address)
            assert await wait_for(
                lambda: not alice.liveness.is_quarantined(bob_address),
                timeout=5.0,
            ), "returning peer never resumed"
            assert alice.liveness.resumes >= 1
            # The heal: bob catches up on what he missed, exactly once.
            assert await wait_for(
                lambda: "during" in bob2.delivered_payloads(), timeout=10.0
            ), "anti-entropy never healed the quarantine gap"
            assert bob2.endpoint.stats.duplicates == 0
            await alice.close()
            await bob2.close()

        import tempfile
        from pathlib import Path
        with tempfile.TemporaryDirectory() as tmp:
            asyncio.run(scenario(Path(tmp)))


class TestQuarantineAging:
    """The eviction feeder: quarantine timestamps and the overdue query."""

    def make(self):
        return PeerLivenessMonitor(
            LivenessPolicy(heartbeat_interval=0.1, quarantine_after=1.0)
        )

    def test_quarantined_since_records_start_time(self):
        monitor = self.make()
        monitor.track("a", now=0.0)
        assert monitor.quarantined_since("a") is None
        monitor.sweep(now=2.0)
        assert monitor.quarantined_since("a") == 2.0

    def test_touch_clears_the_timestamp(self):
        monitor = self.make()
        monitor.track("a", now=0.0)
        monitor.sweep(now=2.0)
        monitor.touch("a", now=2.5)
        assert monitor.quarantined_since("a") is None

    def test_overdue_after_age(self):
        monitor = self.make()
        monitor.track("a", now=0.0)
        monitor.track("b", now=0.0)
        monitor.sweep(now=2.0)       # both quarantined at t=2
        monitor.touch("b", now=3.0)  # b revives
        assert monitor.overdue(now=4.0, age=5.0) == []
        assert monitor.overdue(now=8.0, age=5.0) == ["a"]

    def test_overdue_is_a_pure_query(self):
        monitor = self.make()
        monitor.track("a", now=0.0)
        monitor.sweep(now=2.0)
        assert monitor.overdue(now=10.0, age=1.0) == ["a"]
        # Asking again still reports it: the caller evicts and forgets.
        assert monitor.overdue(now=10.0, age=1.0) == ["a"]
        monitor.forget("a")
        assert monitor.overdue(now=10.0, age=1.0) == []
