"""Membership churn soak: 4 → 7 → 3 nodes under 25% loss, oracle-checked.

The dynamic-membership acceptance scenario: a bootstrapped group grows to
seven real UDP nodes through the JOIN handshake, then shrinks to three
through two graceful LEAVEs and two forced evictions (silent crashes aged
through quarantine), all over a transport dropping 25% of datagrams and
duplicating/reordering 10% — and every delivery stays causally ordered
against the simulator's ground-truth oracle.  A final joiner then proves
the evicted key sets were recycled, the coordinator renegotiates the
clock geometry with a mid-soak epoch bump (K: 3 → 2, re-tiled disjoint),
and a crash/restart rejoins journal-consistently on the new geometry.

Design notes that keep the oracle's zero-violation bar *sound*:

* Every node runs its own :class:`PerfectKeyAssigner` mirror and the
  founder holds explicit keys ``(0, 1, 2)`` (the perfect assigner's
  slot-0 tile), so every granted key set is disjoint and the (R, K)
  delivery condition is exact — violations would be real bugs, not the
  scheme's by-design error rate.
* Traffic quiesces to a convergence barrier before each membership
  change.  The JOIN/LEAVE/eviction machinery itself then runs *mid
  traffic* (view propagation, quarantine aging, and the lossy JOIN
  retries all overlap the resumed broadcast rounds), but no data frame
  is in flight at the instant of a handshake, so the joiner's
  state-transfer frontier equals the global send vector and the
  oracle's ``initial_knowledge`` seeding is exact.
* The session's pre-join data gate keeps this sound even when a lost
  JOIN_ACK stretches the handshake: anti-entropy rounds racing the
  retry cannot push history into the half-joined node.

Marked ``soak``: excluded from tier-1 (see pyproject addopts), run in
CI's dedicated churn-soak job, which uploads the per-node metrics JSONL
written to ``CHURN_SOAK_METRICS_DIR`` (default: the test tmpdir).
"""

import asyncio
import dataclasses
import os
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    LivenessPolicy,
    MembershipConfig,
    NodeConfig,
    RetransmitPolicy,
    create_node,
)
from repro.core.keyspace import PerfectKeyAssigner
from repro.net import FaultyTransport, UdpTransport
from repro.sim.oracle import CausalityOracle, DeliveryVerdict
from repro.util.rng import RandomSource

pytestmark = pytest.mark.soak

DROP, DUP, REORDER = 0.25, 0.10, 0.10
ALL_NAMES = ("a", "b", "c", "d", "e", "f", "g", "h")
CAPACITY = len(ALL_NAMES)


async def wait_for(predicate, timeout=30.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


class Harness:
    """Chaos-wrapped membership cluster with exact delivery accounting."""

    def __init__(self, data_dir, metrics_dir):
        self.data_dir = data_dir
        self.metrics_dir = metrics_dir
        self.oracle = CausalityOracle(capacity=CAPACITY)
        self.nodes = {}
        # Per-node count of messages sent to it while it was a member;
        # a live node has converged when len(deliveries) matches.
        self.expected = {}
        self.sends = {name: 0 for name in ALL_NAMES}
        # Sends a name made before its latest incarnation: a restarted
        # node's fresh ``deliveries`` list only sees later traffic.
        self.restart_base = {name: 0 for name in ALL_NAMES}
        self.released = {}  # name -> key set it held when it left/died
        self.config = NodeConfig(
            r=64, k=3,
            retransmit=RetransmitPolicy(initial_timeout=0.02),
            anti_entropy_interval=0.1,
            liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=0.6),
            membership=MembershipConfig(
                join_timeout=0.3,
                join_retries=10,
                join_backoff=1.5,
                evict_after=1.0,
                announce_interval=0.15,
            ),
        )

    def _wrap(self, udp, name):
        return FaultyTransport(
            udp,
            drop_rate=DROP, duplicate_rate=DUP, reorder_rate=REORDER,
            rng=RandomSource(seed=23).spawn(f"churn-{name}"),
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

    def _register(self, name):
        # A joiner's state transfer covers everything sent so far (the
        # barrier guarantees frontiers == send counts), so its oracle
        # clock starts at the global send vector.
        knowledge = np.zeros(CAPACITY, dtype=np.int64)
        for other, count in self.sends.items():
            if count:
                knowledge[self.oracle.slot_of(other)] = count
        self.oracle.register_node(name, initial_knowledge=knowledge)

    async def spawn(self, name, seeds=(), assigner=None, keys=None):
        udp = await UdpTransport.create(port=0)
        config = self.config.replace(
            membership=dataclasses.replace(
                self.config.membership, seed_peers=tuple(seeds)
            ),
            keys=keys,
            data_dir=str(Path(self.data_dir) / name),
            metrics_path=str(Path(self.metrics_dir) / f"{name}.metrics.jsonl"),
            metrics_interval=0.2,
        )
        # Register before the node can classify anything; create_node
        # runs the (lossy, retried) JOIN handshake before returning.
        self._register(name)
        node = await create_node(
            name, config,
            transport=self._wrap(udp, name),
            on_delivery=self._on_delivery(name),
            assigner=assigner,
        )
        self.nodes[name] = node
        self.expected[name] = 0
        return node

    async def restart(self, name, seeds=()):
        """Revive a killed node from its journal (same data dir, fresh
        port): the rejoin must come back on the group's *current*
        geometry, not the founding one.  No oracle registration — the
        incarnation keeps its identity and its recovered knowledge."""
        udp = await UdpTransport.create(port=0)
        config = self.config.replace(
            membership=dataclasses.replace(
                self.config.membership, seed_peers=tuple(seeds)
            ),
            data_dir=str(Path(self.data_dir) / name),
            metrics_path=str(Path(self.metrics_dir) / f"{name}.metrics.jsonl"),
            metrics_interval=0.2,
        )
        node = await create_node(
            name, config,
            transport=self._wrap(udp, name),
            on_delivery=self._on_delivery(name),
        )
        self.nodes[name] = node
        self.expected[name] = 0
        self.restart_base[name] = self.sends[name]
        return node

    async def broadcast(self, name):
        node = self.nodes[name]
        # Register with the oracle *before* the wire send: a fast peer
        # can deliver before broadcast() returns.
        message_id = (name, node.endpoint.clock.send_count + 1)
        self.oracle.on_send(
            name, message_id,
            now=asyncio.get_running_loop().time(),
            fanout=len(self.nodes) - 1,
        )
        for other in self.nodes:
            if other != name:
                self.expected[other] += 1
        self.sends[name] += 1
        message = await node.broadcast((name, self.sends[name]))
        assert message.message_id == message_id

    async def rounds(self, count, pause=0.1):
        for _ in range(count):
            for name in tuple(self.nodes):
                await self.broadcast(name)
            await asyncio.sleep(pause)

    def converged(self):
        # ``node.deliveries`` includes the node's own (local) sends —
        # minus whatever an earlier incarnation sent before a restart.
        return all(
            len(node.deliveries)
            == self.expected[name] + self.sends[name] - self.restart_base[name]
            for name, node in self.nodes.items()
        )

    async def barrier(self, label):
        assert await wait_for(self.converged, timeout=60.0), (
            f"no convergence at '{label}': expected={self.expected}, "
            f"delivered="
            f"{ {n: len(node.deliveries) for n, node in self.nodes.items()} }"
        )

    async def leave(self, name):
        node = self.nodes.pop(name)
        self.released[name] = tuple(node.endpoint.clock.own_keys)
        await node.membership.leave()
        await node.close()

    async def kill(self, name):
        node = self.nodes.pop(name)
        self.released[name] = tuple(node.endpoint.clock.own_keys)
        await node.close()  # silent: no LEAVE, quarantine must age it out


def test_churn_soak(tmp_path):
    metrics_dir = Path(os.environ.get("CHURN_SOAK_METRICS_DIR", tmp_path))
    metrics_dir.mkdir(parents=True, exist_ok=True)

    async def scenario():
        harness = Harness(tmp_path / "journals", metrics_dir)

        # Phase 1 — form the base group of four and soak it.
        founder = await harness.spawn(
            "a", keys=(0, 1, 2), assigner=PerfectKeyAssigner(64, 3)
        )
        seed = (founder.local_address,)
        await harness.spawn("b", seeds=seed)
        # c only knows b: the JOIN must redirect to the coordinator,
        # through the lossy transport.
        await harness.spawn("c", seeds=(harness.nodes["b"].local_address,))
        await harness.spawn("d", seeds=seed)
        assert await wait_for(
            lambda: founder.membership.view.view_id == 4, timeout=30.0
        )
        await harness.rounds(6)
        await harness.barrier("base group")

        # Phase 2 — flash growth to seven, traffic between every join.
        for joiner in ("e", "f", "g"):
            await harness.spawn(joiner, seeds=seed)
            # The joiner starts from the transferred frontier, not from
            # a replay of history.
            assert len(harness.nodes[joiner].deliveries) == 0
            await harness.rounds(2)
            await harness.barrier(f"after {joiner} joined")
        assert founder.membership.view.view_id == 7
        assert len(founder.membership.view.members) == 7

        # Phase 3 — shrink: two graceful leaves, view churn mid-traffic.
        await harness.leave("d")
        await harness.rounds(2)
        await harness.barrier("after d left")
        await harness.leave("e")
        await harness.rounds(2)
        await harness.barrier("after e left")
        assert await wait_for(
            lambda: sorted(founder.membership.view.member_ids())
            == ["a", "b", "c", "f", "g"],
            timeout=30.0,
        ), "graceful leaves never shrank the view"

        # Phase 4 — two forced evictions: silent crashes that quarantine
        # ages out while the survivors keep broadcasting.
        for victim in ("f", "g"):
            await harness.kill(victim)
            # Traffic keeps flowing while the victim's silence ages
            # through quarantine into coordinator eviction.
            deadline_rounds = 0
            while victim in founder.membership.view.member_ids():
                await harness.rounds(1)
                deadline_rounds += 1
                assert deadline_rounds < 100, f"{victim} never evicted"
            await harness.barrier(f"after {victim} evicted")
        # f and g are always evicted; d or e can degrade from a graceful
        # leave into an eviction if the whole LEAVE burst is lost (the
        # documented backstop), so the split may shift but never the sum.
        assert founder.membership.evictions >= 2
        assert founder.membership.evictions + founder.membership.leaves == 4
        assert sorted(founder.membership.view.member_ids()) == ["a", "b", "c"]
        for departed in ("d", "e", "f", "g"):
            assert departed not in founder.membership.assigner
            assert departed not in founder.store.frontiers()

        # Phase 5 — a late joiner inherits recycled keys (the perfect
        # assigner recycles released slots LIFO, so h gets an evictee's
        # exact key set) and converges on post-join traffic.
        await harness.spawn("h", seeds=seed)
        h_keys = tuple(harness.nodes["h"].endpoint.clock.own_keys)
        assert h_keys in (harness.released["f"], harness.released["g"]), (
            f"joiner got {h_keys}, not a recycled evictee key set "
            f"(released: {harness.released})"
        )
        await harness.rounds(4)
        await harness.barrier("final group")
        assert harness.expected["h"] > 0
        assert founder.membership.view.view_id == 12

        # Phase 6 — mid-soak epoch bump: at a quiesced barrier the
        # coordinator renegotiates the group's K.  The perfect assigner
        # re-tiles disjoint slots at the new K, so the exact delivery
        # condition — and with it the oracle's zero-violation bar —
        # survives the new geometry.
        assert founder.membership.epoch == 0
        bumped = founder.membership.propose_epoch(2)
        assert bumped.epoch == 1 and bumped.view_id == 13
        assert await wait_for(
            lambda: all(
                n.membership.epoch == 1 for n in harness.nodes.values()
            ),
            timeout=30.0,
        ), "epoch bump never reached every member"
        for node in harness.nodes.values():
            assert node.endpoint.clock.k == 2
            assert node.epoch == 1  # outgoing frames stamp the new epoch
        claimed = [
            key for m in founder.membership.view.members for key in m.keys
        ]
        assert len(claimed) == len(set(claimed)) == 8, (
            f"re-tiled keys are not disjoint: {claimed}"
        )
        await harness.rounds(4)
        await harness.barrier("after the epoch bump")

        # Phase 7 — crash/restart on the bumped geometry: h dies
        # silently (journal kept) and rejoins; recovery plus the
        # re-admission grant must agree with the live epoch-1 view.
        h_keys_bumped = tuple(harness.nodes["h"].endpoint.clock.own_keys)
        await harness.kill("h")
        revived = await harness.restart("h", seeds=seed)
        assert revived.membership.epoch == 1
        assert revived.endpoint.clock.k == 2
        assert revived.epoch == 1
        assert tuple(revived.endpoint.clock.own_keys) == h_keys_bumped, (
            "the rejoin re-granted different keys than the journal "
            "recovered"
        )
        await harness.rounds(3)
        await harness.barrier("after h rejoined on the new geometry")
        assert founder.membership.view.k() == 2

        # Oracle verdicts: violations are asserted per delivery in the
        # callback; the totals prove the classification actually ran and
        # nothing was ever force-merged (ambiguity only arises after a
        # violation or a bad state-transfer seed).
        totals = harness.oracle.totals
        assert totals.deliveries > 0
        assert totals.violations == 0, f"{totals.violations} causal violations"
        assert totals.ambiguous == 0, f"{totals.ambiguous} ambiguous deliveries"

        # The loss genuinely fired, and liveness saw the crashed nodes.
        assert sum(n.transport.dropped for n in harness.nodes.values()) > 0
        assert sum(n.liveness.quarantines for n in harness.nodes.values()) >= 2

        for node in harness.nodes.values():
            await node.close()

        # Observability: every incarnation exported metrics JSONL (the
        # CI job uploads these), and the membership pipeline's counters
        # moved where they should have.
        from repro.obs import last_snapshot, merge_snapshots

        snapshots = {}
        for name in ALL_NAMES:
            snapshot = last_snapshot(metrics_dir / f"{name}.metrics.jsonl")
            assert snapshot is not None, f"{name} exported no metrics"
            snapshots[name] = snapshot
        coordinator = snapshots["a"]
        # 12 views of churn + the epoch bump.  h's quick restart is an
        # idempotent re-admission (no view change, no new admission) —
        # unless its crash aged into an eviction first, which adds an
        # eviction view and a genuine re-join.
        assert coordinator["gauges"]["repro_membership_view_id"] >= 13
        assert coordinator["gauges"]["repro_membership_view_size"] == 4
        assert coordinator["gauges"]["repro_membership_epoch"] == 1
        counters = coordinator["counters"]
        assert counters["repro_membership_epoch_bumps_total"] == 1
        assert counters["repro_membership_joins_admitted_total"] >= 7
        assert counters["repro_membership_evictions_total"] >= 2
        assert (
            counters["repro_membership_evictions_total"]
            + counters["repro_membership_leaves_total"]
        ) in (4, 5)
        assert counters["repro_membership_view_changes_total"] >= 13
        fleet = merge_snapshots(list(snapshots.values()))
        assert fleet["counters"]["repro_membership_join_attempts_total"] >= 7
        assert fleet["counters"]["repro_endpoint_delivered_total"] > 0

    asyncio.run(scenario())
