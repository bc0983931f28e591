"""Dynamic membership: view handshake, eviction, recycling, persistence.

Unit tests cover the config, the view value object, and the coordinator
rule; the integration tests run real UDP nodes through the full JOIN /
LEAVE / eviction lifecycle (aggressive timers, loopback only).  The
churn scenario — 4 → 7 → 3 nodes and an epoch bump at 25 % loss — runs
on :class:`~repro.sim.group.Group` under virtual time, 20 seeds.
"""

import asyncio

import pytest

import repro.net.membership as membership_module
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
from repro.obs import last_snapshot, merge_snapshots
from repro.sim.group import Group, wait_for
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual


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
        ),
    )
    base.update(overrides)
    return NodeConfig(**base)


@pytest.fixture(autouse=True)
def fast_views(monkeypatch):
    """VIEW re-announced (and evictions swept) every 0.1 s, so groups
    converge in test time."""
    monkeypatch.setattr(membership_module, "_ANNOUNCE_INTERVAL", 0.1)


class TestMembershipConfig:
    def test_defaults_valid(self):
        config = MembershipConfig()
        assert config.join_retries >= 0

    @pytest.mark.parametrize(
        "field, value",
        [
            ("join_timeout", 0.0),
            ("join_retries", -1),
            ("join_backoff", 0.5),  # a module constant now: a TypeError
            ("evict_after", -1.0),
            ("announce_interval", 0.0),  # likewise
        ],
    )
    def test_bad_knobs_rejected(self, field, value):
        constant = field in ("join_backoff", "announce_interval")
        with pytest.raises(TypeError if constant else ConfigurationError):
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


# ----------------------------------------------------------------------
# churn: 4 -> 7 -> 3 nodes and an epoch bump at 25 % loss, per seed
# ----------------------------------------------------------------------


def churn_config(root):
    """``n0`` founds the group on keys (0, 1, 2) of a perfect assigner, so
    every granted key set is disjoint and the delivery condition exact:
    an oracle violation is a bug, not the scheme's error rate.  ``n2``
    only knows ``n1``, so its JOIN is redirected to the coordinator."""
    base = NodeConfig(
        r=64, k=3,
        retransmit=RetransmitPolicy(initial_timeout=0.02),
        anti_entropy_interval=0.1,
        liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=0.6),
        metrics_interval=0.2,
    )

    def config(name):
        seeds = () if name == "n0" else ("n1",) if name == "n2" else ("n0",)
        return base.replace(
            membership=MembershipConfig(
                seed_peers=seeds, join_timeout=0.3, join_retries=10, evict_after=1.0,
            ),
            keys=(0, 1, 2) if name == "n0" else None,
            data_dir=str(root / name),
            metrics_path=str(root / f"{name}.metrics.jsonl"),
        )

    return config


async def rounds(group, count, pause=0.1):
    for _ in range(count):
        for node in list(group.nodes):
            await node.broadcast([node.node_id, group.sent])
        await asyncio.sleep(pause)


async def churn(seed, root):
    """Traffic quiesces before each membership change (``settle``), so a
    joiner's state transfer covers every broadcast so far and the
    oracle's seeding from it is exact; the JOIN / LEAVE / eviction
    machinery itself runs mid-traffic.  Departures are two graceful
    leaves and two silent crashes that quarantine ages into eviction."""
    group = await Group.start(
        0, churn_config(root), seed, 0.25, GaussianDelayModel(5.0, 2.0, 2.0),
        judged=True, duplicate_rate=0.10, capacity=8,
    )
    async with group:
        # The base group of four.
        founder = await group.join("n0", assigner=PerfectKeyAssigner(64, 3))
        view = founder.membership
        for name in ("n1", "n2", "n3"):
            await group.join(name)
        assert await wait_for(lambda: view.view.view_id == 4)
        await rounds(group, 6)
        await group.settle(timeout=60.0)

        # Growth to seven, traffic between every join; a joiner starts
        # from the transferred frontier, not from a replay of history.
        for name in ("n4", "n5", "n6"):
            await group.join(name)
            assert group.order[name] == []
            await rounds(group, 2)
            await group.settle(timeout=60.0)
        assert (view.view.view_id, len(view.view.members)) == (7, 7)

        # Two graceful leaves.
        released = {}
        for name in ("n3", "n4"):
            released[name] = tuple(group.node(name).endpoint.clock.own_keys)
            await group.leave(name)
            await rounds(group, 2)
            await group.settle(timeout=60.0)
        assert await wait_for(
            lambda: view.view.member_ids() == ("n0", "n1", "n2", "n5", "n6")
        ), "graceful leaves never shrank the view"

        # Two silent crashes, aged through quarantine into eviction while
        # the survivors keep broadcasting.
        for victim in ("n5", "n6"):
            released[victim] = tuple(group.node(victim).endpoint.clock.own_keys)
            await group.crash(victim)
            for _ in range(100):
                if victim not in view.view.member_ids():
                    break
                await rounds(group, 1)
            else:
                raise AssertionError(f"{victim} never evicted")
            await group.settle(timeout=60.0)
        # A lost LEAVE burst degrades a leave into an eviction (the
        # documented backstop): the split may shift, never the sum.
        assert view.evictions >= 2
        assert view.evictions + view.leaves == 4
        assert view.view.member_ids() == ("n0", "n1", "n2")
        for departed in released:
            assert departed not in view.assigner
            assert departed not in founder.store.frontiers()

        # A late joiner inherits an evictee's exact key set (the perfect
        # assigner recycles LIFO) and converges on post-join traffic.
        late = await group.join("n7")
        assert tuple(late.endpoint.clock.own_keys) in (released["n5"], released["n6"])
        await rounds(group, 4)
        await group.settle(timeout=60.0)
        assert group.order["n7"]
        assert view.view.view_id == 12

        # An epoch bump at a quiesced barrier: K 3 -> 2, re-tiled
        # disjoint, so the exact delivery condition survives.
        assert view.epoch == 0
        bumped = view.propose_epoch(2)
        assert (bumped.epoch, bumped.view_id) == (1, 13)
        assert await wait_for(
            lambda: all(node.membership.epoch == 1 for node in group.nodes)
        ), "epoch bump never reached every member"
        for node in group.nodes:
            assert (node.endpoint.clock.k, node.epoch) == (2, 1)
        claimed = [key for member in view.view.members for key in member.keys]
        assert len(claimed) == len(set(claimed)) == 8, claimed
        await rounds(group, 4)
        await group.settle(timeout=60.0)

        # A crash/restart on the bumped geometry: the journal and the
        # re-admission grant agree with the live epoch-1 view.
        keys = tuple(late.endpoint.clock.own_keys)
        await group.crash("n7")
        revived = await group.restart("n7")
        assert (revived.membership.epoch, revived.endpoint.clock.k, revived.epoch) == (1, 2, 1)
        assert tuple(revived.endpoint.clock.own_keys) == keys
        await rounds(group, 3)
        await group.settle(timeout=60.0)
        assert view.view.k() == 2

        totals = group.oracle.totals
        assert totals.deliveries > 0
        assert (totals.violations, totals.ambiguous) == (0, 0), totals
        assert group.bus.dropped > 0
        assert sum(node.liveness.quarantines for node in group.nodes) >= 2


@pytest.mark.parametrize("seed", range(20))
def test_churn_under_loss_stays_causal(seed, tmp_path, monkeypatch):
    monkeypatch.setattr(membership_module, "_JOIN_BACKOFF", 1.5)
    monkeypatch.setattr(membership_module, "_ANNOUNCE_INTERVAL", 0.15)
    run_virtual(churn(seed, tmp_path))
    snapshots = {
        f"n{index}": last_snapshot(tmp_path / f"n{index}.metrics.jsonl") for index in range(8)
    }
    assert None not in snapshots.values(), "a node exported no metrics"
    coordinator = snapshots["n0"]
    # 12 views of churn and the epoch bump; n7's quick restart is an
    # idempotent re-admission (no view change).
    assert coordinator["gauges"]["repro_membership_view_id"] == 13
    assert coordinator["gauges"]["repro_membership_view_size"] == 4
    assert coordinator["gauges"]["repro_membership_epoch"] == 1
    counters = coordinator["counters"]
    assert counters["repro_membership_epoch_bumps_total"] == 1
    assert counters["repro_membership_joins_admitted_total"] == 7
    assert counters["repro_membership_evictions_total"] >= 2
    assert (
        counters["repro_membership_evictions_total"]
        + counters["repro_membership_leaves_total"]
    ) == 4
    assert counters["repro_membership_view_changes_total"] >= 13
    fleet = merge_snapshots(list(snapshots.values()))
    assert fleet["counters"]["repro_membership_join_attempts_total"] >= 7
    assert fleet["counters"]["repro_endpoint_delivered_total"] > 0
