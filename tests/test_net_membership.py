"""Dynamic membership: view handshake, eviction, recycling, persistence.

Unit tests cover the config, the view value object, and the coordinator
rule; the integration tests run real UDP nodes through the full JOIN /
LEAVE / eviction lifecycle (aggressive timers, loopback only).  The
churn *soak* — bigger group, 25% loss, metrics artifacts — lives in
``test_churn_soak.py``.
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
from repro.core.codec import MemberRecord
from repro.core.errors import ConfigurationError, MembershipError
from repro.core.keyspace import PerfectKeyAssigner
from repro.net.membership import GroupMembership, GroupView


async def wait_for(predicate, timeout=20.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


def quick_config(seed_peers=(), join_timeout=0.5, join_retries=4, **overrides):
    base = dict(
        r=32, k=2,
        retransmit=RetransmitPolicy(initial_timeout=0.02),
        anti_entropy_interval=0.1,
        liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=0.3),
        membership=MembershipConfig(
            seed_peers=seed_peers,
            join_timeout=join_timeout,
            join_retries=join_retries,
            evict_after=0.5,
            announce_interval=0.1,
        ),
    )
    base.update(overrides)
    return NodeConfig(**base)


class TestMembershipConfig:
    def test_defaults_valid(self):
        config = MembershipConfig()
        assert config.join_retries >= 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("join_timeout", 0.0),
            ("join_retries", -1),
            ("join_backoff", 0.5),
            ("evict_after", -1.0),
            ("announce_interval", 0.0),
        ],
    )
    def test_bad_knobs_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            MembershipConfig(**{field: value})

    def test_node_config_seed_peers_require_membership(self):
        """Seeds live inside the membership policy: there is no way to
        spell them for a node that runs without the layer."""
        with pytest.raises(TypeError):
            NodeConfig(seed_peers=(("127.0.0.1", 1),))
        config = NodeConfig(membership=MembershipConfig(seed_peers=(("h", 1),)))
        assert config.membership.seed_peers == (("h", 1),)

    def test_node_config_validates_membership_knobs(self):
        """The layer is switched on by a policy object, which cannot
        exist invalid — a flag plus loose knobs is refused."""
        with pytest.raises(ConfigurationError, match="MembershipConfig"):
            NodeConfig(membership=True)
        with pytest.raises(TypeError):
            NodeConfig(membership=MembershipConfig(), join_timeout=-1.0)


class TestGroupView:
    def make(self):
        return GroupView(
            7,
            (
                MemberRecord("b", ("h", 2), (2, 3)),
                MemberRecord("a", ("h", 1), (0, 1)),
            ),
        )

    def test_get_by_id(self):
        view = self.make()
        assert view.get("a").address == ("h", 1)
        assert view.get("zz") is None

    def test_by_address(self):
        view = self.make()
        assert view.by_address(("h", 2)).node_id == "b"
        assert view.by_address(("h", 9)) is None

    def test_member_ids(self):
        assert sorted(self.make().member_ids()) == ["a", "b"]


class TestLifecycle:
    def test_bootstrap_makes_view_one(self):
        async def scenario():
            node = await create_node("solo", quick_config())
            membership = node.membership
            assert membership.joined
            assert membership.view.view_id == 1
            me = membership.view.get("solo")
            assert me.address == node.local_address
            assert me.keys == tuple(node.endpoint.clock.own_keys)
            # The ledger mirrors the view.
            assert membership.assigner.lookup("solo").keys == me.keys
            assert membership.is_coordinator()
            await node.close()

        asyncio.run(scenario())

    def test_join_installs_view_and_delivers_post_join_traffic(self):
        async def scenario():
            a = await create_node("a", quick_config())
            for i in range(3):
                await a.broadcast(f"pre-{i}")
            b = await create_node(
                "b", quick_config(seed_peers=(a.local_address,))
            )
            assert b.membership.joined
            assert b.membership.view.view_id == 2
            assert sorted(b.membership.view.member_ids()) == ["a", "b"]
            assert await wait_for(lambda: a.membership.view.view_id == 2)
            # The frontier transfer: a's pre-join messages are covered,
            # not replayed (b starts from a's delivered state).
            assert len(b.deliveries) == 0
            await a.broadcast("post")
            assert await wait_for(
                lambda: "post" in b.delivered_payloads()
            ), "joiner never delivered post-join traffic"
            assert b.endpoint.stats.duplicates == 0
            # And the transferred vector keeps causality intact the
            # other way: the joiner's broadcasts deliver at the founder.
            await b.broadcast("from-joiner")
            assert await wait_for(
                lambda: "from-joiner" in a.delivered_payloads()
            )
            await b.close()
            await a.close()

        asyncio.run(scenario())

    def test_join_redirected_to_coordinator(self):
        async def scenario():
            a = await create_node("a", quick_config())
            b = await create_node(
                "b", quick_config(seed_peers=(a.local_address,))
            )
            # c only knows b; b is not the coordinator ('a' < 'b'), so
            # its rejection ack must redirect c to a.
            c = await create_node(
                "c", quick_config(seed_peers=(b.local_address,))
            )
            assert c.membership.joined
            assert sorted(c.membership.view.member_ids()) == ["a", "b", "c"]
            for node in (c, b, a):
                await node.close()

        asyncio.run(scenario())

    def test_join_exhausts_retries_without_seeds(self):
        async def scenario():
            config = quick_config(
                seed_peers=(("127.0.0.1", 1),),  # nobody listens there
                join_timeout=0.05, join_retries=1,
            )
            with pytest.raises(MembershipError):
                await create_node("lost", config)

        asyncio.run(scenario())

    def test_graceful_leave_shrinks_the_view(self):
        async def scenario():
            a = await create_node("a", quick_config())
            b = await create_node(
                "b", quick_config(seed_peers=(a.local_address,))
            )
            b_address = b.local_address
            await b.membership.leave()
            await b.close()
            assert await wait_for(
                lambda: a.membership.view.member_ids() == ("a",)
            ), "leaver never removed from the view"
            assert a.membership.leaves == 1
            assert "b" not in a.membership.assigner
            assert b_address not in a.peers
            await a.close()

        asyncio.run(scenario())

    def test_quarantine_ages_into_eviction_and_purges_state(self):
        async def scenario():
            a = await create_node("a", quick_config())
            b = await create_node(
                "b", quick_config(seed_peers=(a.local_address,))
            )
            await b.broadcast("doomed")
            assert await wait_for(lambda: "doomed" in a.delivered_payloads())
            assert len(a.store) > 0
            b_address = b.local_address
            await b.close()  # dies silently: no LEAVE
            assert await wait_for(
                lambda: a.membership.view.member_ids() == ("a",), timeout=10.0
            ), "silent peer never evicted"
            assert a.membership.evictions == 1
            # Eviction purged the departed sender's runtime state.
            assert "b" not in a.membership.assigner
            assert b_address not in a.peers
            assert "b" not in a.store.frontiers()
            await a.close()

        asyncio.run(scenario())

    def test_stale_frames_from_evicted_peer_dropped(self):
        async def scenario():
            a = await create_node("a", quick_config())
            b = await create_node(
                "b", quick_config(seed_peers=(a.local_address,))
            )
            b_address = b.local_address
            # Evict b at a directly (the scenario a partitioned
            # coordinator resolves through quarantine aging).
            a.membership._remove_member("b")
            assert a.membership.view.member_ids() == ("a",)
            before = a.stale_frames
            await b.broadcast("too-late")
            assert await wait_for(lambda: a.stale_frames > before)
            assert "too-late" not in a.delivered_payloads()
            # Warn-once: the mark survives, the log does not repeat.
            assert b_address in a._stale_warned
            await b.close()
            await a.close()

        asyncio.run(scenario())


class TestKeyRecycling:
    def test_leavers_keys_recycled_to_next_joiner(self):
        async def scenario():
            # A perfect assigner recycles slots LIFO, which makes the
            # recycling observable as exact key reuse.
            a = await create_node(
                "a", quick_config(), assigner=PerfectKeyAssigner(32, 2)
            )
            b = await create_node(
                "b", quick_config(seed_peers=(a.local_address,))
            )
            b_keys = tuple(b.endpoint.clock.own_keys)
            await b.membership.leave()
            await b.close()
            assert await wait_for(
                lambda: a.membership.view.member_ids() == ("a",)
            )
            c = await create_node(
                "c", quick_config(seed_peers=(a.local_address,))
            )
            assert tuple(c.endpoint.clock.own_keys) == b_keys, (
                "released keys were not recycled to the next joiner"
            )
            await c.close()
            await a.close()

        asyncio.run(scenario())


class TestPersistence:
    def test_bootstrap_view_survives_restart(self, tmp_path):
        async def scenario():
            config = quick_config(data_dir=str(tmp_path / "solo"))
            node = await create_node("solo", config)
            await node.broadcast("one")
            port = node.local_address[1]
            view_id = node.membership.view.view_id
            keys = tuple(node.endpoint.clock.own_keys)
            await node.close()

            node2 = await create_node("solo", config.replace(port=port))
            assert node2.recovered is not None
            assert node2.recovered.view is not None
            assert node2.membership.view.view_id == view_id
            assert node2.membership.joined
            assert tuple(node2.endpoint.clock.own_keys) == keys
            await node2.close()

        asyncio.run(scenario())

    def test_joiner_rejoins_consistently_after_restart(self, tmp_path):
        async def scenario():
            a = await create_node("a", quick_config())
            b_config = quick_config(
                seed_peers=(a.local_address,),
                data_dir=str(tmp_path / "b"),
            )
            b = await create_node("b", b_config)
            granted = tuple(b.endpoint.clock.own_keys)
            await b.broadcast("alive")
            assert await wait_for(lambda: "alive" in a.delivered_payloads())
            port = b.local_address[1]
            await b.close()  # crash: no LEAVE

            # Restart before eviction heals silently; the JOIN handshake
            # is idempotent, so b keeps its identity and keys.
            b2 = await create_node("b", b_config.replace(port=port))
            assert b2.recovered is not None
            assert b2.membership.joined
            assert tuple(b2.endpoint.clock.own_keys) == granted
            assert sorted(b2.membership.view.member_ids()) == ["a", "b"]
            await b2.broadcast("again")
            assert await wait_for(lambda: "again" in a.delivered_payloads())
            await b2.close()
            await a.close()

        asyncio.run(scenario())


class TestMetrics:
    def test_view_gauges_exported(self):
        async def scenario():
            a = await create_node("a", quick_config())
            b = await create_node(
                "b", quick_config(seed_peers=(a.local_address,))
            )
            snapshot = a.metrics.snapshot()
            gauges = snapshot["gauges"]
            counters = snapshot["counters"]
            assert gauges["repro_membership_view_id"] == 2
            assert gauges["repro_membership_view_size"] == 2
            assert counters["repro_membership_joins_admitted_total"] == 1
            assert counters["repro_membership_view_changes_total"] >= 2
            joiner = b.metrics.snapshot()
            assert joiner["counters"]["repro_membership_join_attempts_total"] >= 1
            await b.close()
            await a.close()

        asyncio.run(scenario())

    def test_double_attach_rejected(self):
        async def scenario():
            node = await create_node("solo", quick_config())
            with pytest.raises(ConfigurationError):
                GroupMembership(node, MembershipConfig())
            await node.close()

        asyncio.run(scenario())
