"""Failure-detector tests: the session's verdicts, quarantine, heal-on-return.

The bookkeeping tests drive one :class:`ReliableSession` directly (a
datagram is fed in at a virtual time); the integration tests run real
UDP nodes with aggressive heartbeat timings so a "death" is detected
within a few hundred milliseconds.
"""

import asyncio

import pytest

from repro.api import (
    LivenessPolicy,
    MembershipConfig,
    NodeConfig,
    RetransmitPolicy,
    create_node,
)
from repro.core.codec import FrameCodec, HeartbeatFrame
from repro.core.errors import ConfigurationError
from repro.net import session as session_module
from repro.net.peer import Transport
from repro.net.session import ReliableSession
from repro.sim.group import Group, wait_for
from repro.sim.network import ConstantDelayModel
from repro.sim.vtime import run_virtual
from tests.recording import Deliveries

HEARTBEAT = FrameCodec().encode(HeartbeatFrame(count=1))


class SilentTransport(Transport):
    """Swallows every datagram; nothing arrives but what a test feeds."""

    async def send(self, destination, data):
        pass

    def set_receiver(self, callback):
        pass


def watching(events=None, quarantine=True):
    """A session quarantining after 1 s of silence; ``events`` records
    its ``on_liveness`` upcalls, whose silent verdict is ``quarantine``."""

    def on_liveness(address, alive):
        if events is not None:
            events.append((address, alive))
        return quarantine

    return ReliableSession(
        SilentTransport(),
        on_message=lambda data, addr: None,
        liveness=LivenessPolicy(heartbeat_interval=0.1, quarantine_after=1.0),
        on_liveness=on_liveness,
    )


async def heard(session, address, moment):
    """Feed ``session`` one heartbeat from ``address`` at virtual time
    ``moment``."""
    await asyncio.sleep(moment - asyncio.get_running_loop().time())
    session._handle_datagram(HEARTBEAT, address)


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
    """The session's verdicts; a datagram fed in is a touch."""

    def test_silent_peer_quarantined_once(self):
        events = []
        session = watching(events)
        session.track("a", now=0.0)
        session.sweep(now=0.5)
        assert not session.is_quarantined("a")
        session.sweep(now=1.5)
        assert session.is_quarantined("a")
        session.sweep(now=2.5)  # already quarantined
        assert session.quarantines == 1
        assert events == [("a", False)]

    def test_touch_revives_and_reports(self):
        async def scenario():
            events = []
            session = watching(events)
            session.track("a", now=0.0)
            session.sweep(now=2.0)
            await heard(session, "a", 2.1)  # revival: the owner heals
            await heard(session, "a", 2.2)  # plain activity
            return events, session.is_quarantined("a"), session.resumes

        events, quarantined, resumes = run_virtual(scenario())
        assert events == [("a", False), ("a", True)]
        assert not quarantined
        assert resumes == 1

    def test_touch_auto_tracks_unknown_peer(self):
        async def scenario():
            session = watching()
            await heard(session, "new", 5.0)
            session.sweep(now=5.5)
            before = session.is_quarantined("new")
            session.sweep(now=7.0)
            return before, session.is_quarantined("new")

        assert run_virtual(scenario()) == (False, True)

    def test_track_is_idempotent_and_keeps_first_deadline(self):
        session = watching()
        session.track("a", now=0.0)
        session.track("a", now=10.0)  # must not refresh the grace period
        session.sweep(now=2.0)
        assert session.is_quarantined("a")

    def test_forget_removes_all_state(self):
        session = watching()
        session.track("a", now=0.0)
        session.sweep(now=2.0)
        session.forget("a")
        assert not session.is_quarantined("a")
        session.sweep(now=9.0)
        assert not session.is_quarantined("a")
        assert session.overdue(now=9.0, age=0.0) == []

    def test_a_silent_address_the_owner_declines_is_unwatched(self):
        """A silent gossip-learned view entry is unlinked by the node, not
        quarantined: the session stops watching it until the next beacon
        or datagram grants it a fresh grace."""
        events = []
        session = watching(events, quarantine=False)
        session.track("view-entry", now=0.0)
        session.sweep(now=2.0)
        session.sweep(now=3.0)
        assert not session.is_quarantined("view-entry")
        assert events == [("view-entry", False)]
        session.track("view-entry", now=3.0)
        session.sweep(now=4.5)
        assert events == [("view-entry", False)] * 2
        assert session.quarantines == 0

    def test_liveness_off_watches_nobody(self):
        session = ReliableSession(SilentTransport(), on_message=lambda data, addr: None)
        session.track("a", now=0.0)
        assert session.state_sizes()["peers"] == 0

    def test_heartbeats_keep_flowing_to_a_quarantined_peer(self):
        """The loop beacons every target each interval — a quarantined
        one too, which is what resolves a mutual quarantine — and skips
        a link that sent anything within the interval."""

        async def scenario():
            session = watching()
            session.start_heartbeats(lambda: ["a"])
            await asyncio.sleep(1.55)
            quarantined = session.is_quarantined("a")
            beats = session.stats_for("a").heartbeats_sent
            await asyncio.sleep(0.5)
            after = session.stats_for("a").heartbeats_sent
            suppressed = session.heartbeats_suppressed
            await session.send("a", b"traffic")
            session.flush("a")
            await asyncio.sleep(0.06)  # the 2.1 beat was due; it meets the traffic
            skipped = (
                session.stats_for("a").heartbeats_sent - after,
                session.heartbeats_suppressed - suppressed,
            )
            await session.close()
            return quarantined, beats, after, skipped

        quarantined, beats, after, skipped = run_virtual(scenario())
        assert quarantined and beats > 0
        assert after > beats
        assert skipped == (0, 1)


    def test_a_silent_link_is_beaconed_every_interval(self):
        """A beacon's own datagram is not traffic: one silent address
        gets a beacon at every 0.1 s tick, not at every second one (the
        beacon's flush 1 ms after its tick used to suppress the next)."""

        async def scenario():
            session = watching()
            session.start_heartbeats(lambda: ["a"])
            await asyncio.sleep(1.05)
            beats = session.stats_for("a").heartbeats_sent
            await session.close()
            return beats, session.heartbeats_suppressed

        assert run_virtual(scenario()) == (10, 0)

    def test_a_busy_link_suppresses_every_beacon(self):
        async def scenario():
            session = watching()
            session.start_heartbeats(lambda: ["a"])
            for _ in range(105):
                await session.send("a", b"traffic")
                session.flush("a")
                await asyncio.sleep(0.01)
            beats = session.stats_for("a").heartbeats_sent
            await session.close()
            return beats, session.heartbeats_suppressed

        assert run_virtual(scenario()) == (0, 10)


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
            assert await wait_for(lambda: bob.endpoint.stats.delivered == 1)

            bob_address = bob.local_address
            await bob.close()  # bob dies silently

            assert await wait_for(
                lambda: alice.session.is_quarantined(bob_address), timeout=5.0
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
            assert await wait_for(lambda: bob.endpoint.stats.delivered == 1)

            bob_address = bob.local_address
            await bob.close()
            assert await wait_for(
                lambda: alice.session.is_quarantined(bob_address), timeout=5.0
            )
            # Broadcast while bob is down: skips him (quarantined).
            await alice.broadcast("during")

            log = Deliveries()
            bob2 = await create_node(
                "bob", bob_config.replace(port=bob_address[1]), on_delivery=log.append
            )
            bob2.add_peer(alice.local_address)
            assert await wait_for(
                lambda: not alice.session.is_quarantined(bob_address),
                timeout=5.0,
            ), "returning peer never resumed"
            assert alice.session.resumes >= 1
            # The heal: bob catches up on what he missed, exactly once.
            assert await wait_for(
                lambda: "during" in log.payloads(), timeout=10.0
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

    def test_quarantined_since_records_start_time(self):
        session = watching()
        session.track("a", now=0.0)
        assert session.quarantined_since("a") is None
        session.sweep(now=2.0)
        assert session.quarantined_since("a") == 2.0

    def test_touch_clears_the_timestamp(self):
        async def scenario():
            session = watching()
            session.track("a", now=0.0)
            session.sweep(now=2.0)
            await heard(session, "a", 2.5)
            return session.quarantined_since("a")

        assert run_virtual(scenario()) is None

    def test_overdue_after_age(self):
        async def scenario():
            session = watching()
            session.track("a", now=0.0)
            session.track("b", now=0.0)
            session.sweep(now=2.0)  # both quarantined at t=2
            await heard(session, "b", 3.0)  # b revives
            return session.overdue(now=4.0, age=5.0), session.overdue(now=8.0, age=5.0)

        assert run_virtual(scenario()) == ([], ["a"])

    def test_overdue_is_a_pure_query(self):
        session = watching()
        session.track("a", now=0.0)
        session.sweep(now=2.0)
        assert session.overdue(now=10.0, age=1.0) == ["a"]
        # Asking again still reports it: the caller evicts and forgets.
        assert session.overdue(now=10.0, age=1.0) == ["a"]
        session.forget("a")
        assert session.overdue(now=10.0, age=1.0) == []


def test_one_quarantine_is_seen_by_every_reader():
    """The session's quarantine is the one record: the node's live
    filter, its broadcast targets, the digest rotation and the
    coordinator rule all read it, and a resume restores all four."""
    base = NodeConfig(
        r=32, k=2, anti_entropy_interval=0.1,
        retransmit=RetransmitPolicy(initial_timeout=0.02),
        liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=30.0),
    )

    def config(name):
        seeds = () if name == "n0" else ("n0",)
        return base.replace(membership=MembershipConfig(seed_peers=seeds))

    async def scenario():
        group = await Group.start(3, config, 1, 0.0, ConstantDelayModel(1.0))
        async with group:
            node = group.node("n1")
            assert await wait_for(lambda: len(node.membership.view.members) == 3)

            def readers():
                return (
                    node._live("n0"),
                    "n0" in node._live_targets(),
                    "n0" in {node.repair.next_partner() for _ in range(2)},
                    node.membership.acting_coordinator(),
                )

            before = readers()
            node.session.quarantine("n0")
            during = readers()
            node.session.resume("n0")
            return before, during, readers()

    before, during, after = run_virtual(scenario())
    assert before == after == (True, True, True, "n0")
    assert during == (False, False, False, "n1")
