"""Self-tuning (R, K): the X̂ read off the alert rate, the decision
rule, the controller, epoch bumps.

Unit tests drive the pure pieces (the inverse of P_err, :func:`decide`)
and the controller's windowing on a stand-in node whose detector
counters they set; the live test runs the real controller in every
member of a ``Group`` under virtual time and needs it to re-tile; the
integration tests run real UDP nodes through a coordinator-proposed
epoch bump and check the re-tiled geometry lands everywhere (clock,
view, codec stamp, journal).  The crash/restart side of epochs lives in
the churn scenario of ``test_net_membership.py``.
"""

import asyncio
import math
from types import SimpleNamespace

import pytest

import repro.net.adaptive as adaptive_module
import repro.net.membership as membership_module
from benchmarks._common import poisson_sender
from repro.api import (
    LivenessPolicy,
    MembershipConfig,
    NodeConfig,
    RetransmitPolicy,
    create_node,
)
from repro.core.detector import DetectorStats
from repro.core.errors import ConfigurationError, MembershipError
from repro.core.theory import concurrency_at_error, optimal_k_int, p_error
from repro.net.adaptive import AdaptiveClockController, AdaptivePolicy, decide
from repro.obs import MetricsRegistry, TraceRing
from repro.sim.group import Group, wait_for
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual


@pytest.fixture(autouse=True)
def fast_views(monkeypatch):
    """VIEW re-announced every 0.1 s, so groups converge in test time."""
    monkeypatch.setattr(membership_module, "_ANNOUNCE_INTERVAL", 0.1)


def stand_in(r=128, k=12):
    """What the controller reads of a node, with no traffic behind it:
    set ``node.endpoint.detector.stats`` to make a window."""
    return SimpleNamespace(
        endpoint=SimpleNamespace(
            detector=SimpleNamespace(stats=DetectorStats()),
            clock=SimpleNamespace(r=r, k=k),
        ),
        metrics=MetricsRegistry(),
        trace=TraceRing(),
        membership=None,
    )


def rate_at(x, r=128, k=12):
    """The alert rate an (r, k) geometry reads at concurrency ``x``."""
    return p_error(r, k, x)


class TestAdaptivePolicy:
    def test_defaults_valid(self):
        policy = AdaptivePolicy()
        assert policy.band[0] <= policy.band[1]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("interval", 0.0),
            ("band", (0.5, 0.1)),
            ("band", (-0.1, 0.5)),
            ("band", (0.0, 1.5)),
            ("k_max", 0),
            # Module constants now: naming one is a TypeError.
            ("hysteresis", 0.0),
            ("x_floor", 0.1),
            ("cooldown", -1.0),
            ("min_window", 0),
        ],
    )
    def test_bad_knobs_rejected(self, field, value):
        constant = field in ("hysteresis", "x_floor")
        with pytest.raises(TypeError if constant else ConfigurationError):
            AdaptivePolicy(**{field: value})

    def test_node_config_adaptive_requires_membership(self):
        with pytest.raises(ConfigurationError, match="needs membership"):
            NodeConfig(adaptive=AdaptivePolicy())

    @pytest.mark.parametrize("detector", ["refined", "none"])
    def test_node_config_adaptive_needs_the_basic_detector(self, detector):
        """Only Algorithm 4 alerts on P_err's event."""
        with pytest.raises(ConfigurationError, match="detector='basic'"):
            NodeConfig(membership=MembershipConfig(), adaptive=AdaptivePolicy(),
                       detector=detector)

    def test_node_config_validates_adaptive_knobs(self):
        """The controller is switched on by a policy object, which
        cannot exist invalid — a flag plus loose knobs is refused."""
        with pytest.raises(ConfigurationError, match="AdaptivePolicy"):
            NodeConfig(membership=MembershipConfig(), adaptive=True)
        with pytest.raises(TypeError):
            NodeConfig(membership=MembershipConfig(), adaptive_interval=0.0)


class TestConcurrencyEstimator:
    """X̂ is the inverse of P_err at the window's alert rate."""

    @pytest.mark.parametrize("r, k", [(16, 8), (40, 4), (40, 12), (128, 3), (128, 1)])
    @pytest.mark.parametrize("x", [0.05, 0.5, 2.0, 7.0, 25.0])
    def test_inverse_round_trips_p_error(self, r, k, x):
        assert concurrency_at_error(r, k, p_error(r, k, x)) == pytest.approx(x, rel=1e-6)

    def test_edge_rates(self):
        assert concurrency_at_error(40, 4, 0.0) == 0.0
        assert concurrency_at_error(40, 4, 1.0) == math.inf
        assert concurrency_at_error(1, 1, 0.5) == math.inf
        for bad in (-0.1, 1.1):
            with pytest.raises(ConfigurationError):
                concurrency_at_error(40, 4, bad)

    def test_thin_window_not_trusted(self):
        """A window under ``min_window`` checks is not judged and keeps
        accumulating: two thin intervals make one window."""
        node = stand_in()
        controller = AdaptiveClockController(node, AdaptivePolicy(min_window=50))
        stats = node.endpoint.detector.stats
        stats.checks, stats.alerts = 30, 3
        assert controller.step(now=1.0) is None
        assert controller.decisions == 0
        stats.checks, stats.alerts = 60, 12
        controller.step(now=2.0)
        assert controller.decisions == 1
        assert controller.alert_rate == pytest.approx(12 / 60)
        assert controller.x_estimate == pytest.approx(concurrency_at_error(128, 12, 0.2))

    def test_restored_counts_are_not_a_window(self):
        """Counters a restarted node recovered from its journal predate
        the controller: its first window starts at them."""
        node = stand_in()
        stats = node.endpoint.detector.stats
        stats.checks, stats.alerts = 1000, 900
        controller = AdaptiveClockController(node, AdaptivePolicy(min_window=10))
        stats.checks += 100
        controller.step(now=1.0)
        assert controller.alert_rate == 0.0

    def test_a_window_spanning_a_retile_is_dropped(self):
        """Alerts of two geometries do not make one P_err: a window in
        which K changed (a bump announced by the coordinator) is
        dropped, and the next one starts at the new K."""
        node = stand_in()
        controller = AdaptiveClockController(node, AdaptivePolicy(min_window=10))
        stats = node.endpoint.detector.stats
        stats.checks, stats.alerts = 100, 50
        node.endpoint.clock.k = 4
        assert controller.step(now=1.0) is None
        assert controller.decisions == 0
        stats.checks, stats.alerts = 200, 60
        controller.step(now=2.0)
        assert controller.decisions == 1
        assert controller.alert_rate == pytest.approx(0.1)
        assert controller.x_estimate == pytest.approx(concurrency_at_error(128, 4, 0.1))


class TestEpochPlanner:
    """The rule of :func:`decide`: alert rate in, K (or hold) out."""

    POLICY = AdaptivePolicy(band=(0.01, 0.05), cooldown=30.0, k_max=16)

    def test_holds_inside_the_band(self):
        assert decide(self.POLICY, 128, 12, 0.03) is None

    def test_holds_without_a_window(self):
        """No checks since the last decision: no verdict, no bump."""
        controller = AdaptiveClockController(stand_in(), self.POLICY)
        assert controller.step(now=1.0) is None
        assert controller.decisions == 0

    def test_holds_below_the_concurrency_floor(self, monkeypatch):
        monkeypatch.setattr(adaptive_module, "_X_FLOOR", 1.0)
        # Out of the band below it: X̂ = 0.5 reads an idle group.
        assert rate_at(0.5) < self.POLICY.band[0]
        assert decide(self.POLICY, 128, 12, rate_at(0.5)) is None

    def test_bumps_to_theory_optimum_outside_the_band(self):
        target = decide(self.POLICY, 128, 12, rate_at(25.0))
        assert target == optimal_k_int(128, 25.0, k_max=16)
        # The move had to clear the hysteresis bar.
        assert p_error(128, target, 25.0) < 0.8 * p_error(128, 12, 25.0)

    def test_k_max_caps_the_target(self):
        # Quiet traffic wants more entries than k_max allows.
        assert optimal_k_int(128, 2.0) > 16
        policy = AdaptivePolicy(band=(0.0, 0.005), k_max=16)
        assert decide(policy, 128, 1, rate_at(2.0, k=1)) == 16
        policy = AdaptivePolicy(band=(0.01, 0.05), k_max=2)
        assert decide(policy, 128, 12, rate_at(25.0)) == 2

    def test_holds_when_already_optimal(self):
        best = optimal_k_int(128, 25.0, k_max=16)
        assert decide(self.POLICY, 128, best, rate_at(25.0, k=best)) is None

    def test_hysteresis_vetoes_flat_moves(self, monkeypatch):
        best = optimal_k_int(128, 25.0, k_max=16)
        neighbour = best + 1
        ratio = p_error(128, best, 25.0) / p_error(128, neighbour, 25.0)
        assert ratio > 0.5  # P_err is nearly flat around the optimum
        rate = rate_at(25.0, k=neighbour)
        monkeypatch.setattr(adaptive_module, "_HYSTERESIS", 0.5)
        assert decide(self.POLICY, 128, neighbour, rate) is None
        # With the guard off, the same move is taken.
        monkeypatch.setattr(adaptive_module, "_HYSTERESIS", 1.0)
        assert decide(self.POLICY, 128, neighbour, rate) == best

    def test_cooldown_spaces_bumps(self):
        rate = rate_at(25.0)
        assert decide(self.POLICY, 128, 12, rate) is not None
        assert decide(self.POLICY, 128, 12, rate, since_bump=10.0) is None
        assert decide(self.POLICY, 128, 12, rate, since_bump=31.0) is not None


def test_a_live_group_outgrowing_its_geometry_retiles_to_a_smaller_k():
    """8 members at R = 16, K = 8 under X ≈ 6 of Poisson traffic on the
    §5.4 delays: theory wants K = 2-3, the alert rate sits far above the
    5 % band, and the coordinator's controller — reading nothing but
    its own detector — must re-tile the group to a smaller K."""
    n, r, k, x, seed = 8, 16, 8, 6.0, 1

    def config_of(name):
        return NodeConfig(
            r=r, k=k,
            membership=MembershipConfig(seed_peers=() if name == "n0" else ("n0",)),
            adaptive=AdaptivePolicy(interval=1.0, band=(0.0, 0.05), cooldown=0.0),
        )

    async def scenario():
        loop = asyncio.get_running_loop()
        group = await Group.start(n, config_of, seed, 0.0,
                                  GaussianDelayModel(100.0, 20.0, 20.0))
        async with group:
            rate = x / ((n - 1) * 0.1)  # per node: X = (n - 1) · rate · 100 ms
            until = loop.time() + 6.0
            await asyncio.gather(*(
                poisson_sender(group, node, rate, until, seed) for node in group.nodes
            ))
            return (group.nodes[0].trace.events("adaptive_bump"),
                    [node.endpoint.clock.k for node in group.nodes])

    bumps, ks = run_virtual(scenario())
    assert bumps, "the controller never re-tiled"
    first = bumps[0]
    assert first["k"] < k and first["alert_rate"] > 0.05
    # X̂ read off the alert rate lands near the offered X, not near 0.
    assert 2.0 < first["x"] < 12.0
    assert ks == [bumps[-1]["k"]] * n


def quick_config(seed_peers=(), **overrides):
    base = dict(
        r=64, k=8,
        retransmit=RetransmitPolicy(initial_timeout=0.02),
        anti_entropy_interval=0.1,
        liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=0.5),
        membership=MembershipConfig(
            seed_peers=seed_peers,
            join_timeout=0.5,
            join_retries=4,
        ),
    )
    base.update(overrides)
    return NodeConfig(**base)


class TestEpochBump:
    def test_coordinator_bump_retiles_the_group(self):
        async def scenario():
            a = await create_node("a", quick_config())
            b = await create_node(
                "b", quick_config(seed_peers=(a.local_address,))
            )
            assert a.membership.is_coordinator()
            assert a.membership.epoch == 0

            view = a.membership.propose_epoch(3)
            assert view.epoch == 1
            assert a.endpoint.clock.k == 3
            assert a.epoch == 1  # codec stamps the new epoch
            # The announcement re-tiles the joiner too.
            assert await wait_for(lambda: b.membership.epoch == 1)
            assert b.endpoint.clock.k == 3
            assert b.epoch == 1
            for member in a.membership.view.members:
                assert len(member.keys) == 3

            # Post-bump traffic flows on the new geometry, both ways
            # (the callback also sees each node's own local delivery).
            got_a, got_b = [], []
            a._on_delivery = lambda r: got_a.append(r.message.payload)
            b._on_delivery = lambda r: got_b.append(r.message.payload)
            await a.broadcast("from-a")
            await b.broadcast("from-b")
            assert await wait_for(lambda: "from-a" in got_b)
            assert await wait_for(lambda: "from-b" in got_a)

            await b.close()
            await a.close()

        asyncio.run(scenario())

    def test_same_k_proposal_is_a_noop(self):
        async def scenario():
            node = await create_node("solo", quick_config())
            assert node.membership.propose_epoch(8) is None
            assert node.membership.epoch == 0
            assert node.membership.epoch_bumps == 0
            await node.close()

        asyncio.run(scenario())

    def test_non_coordinator_proposal_rejected(self):
        async def scenario():
            a = await create_node("a", quick_config())
            b = await create_node(
                "b", quick_config(seed_peers=(a.local_address,))
            )
            follower = b if a.membership.is_coordinator() else a
            with pytest.raises(MembershipError):
                follower.membership.propose_epoch(3)
            await b.close()
            await a.close()

        asyncio.run(scenario())

    def test_epoch_persists_across_restart(self, tmp_path):
        async def scenario():
            config = quick_config(data_dir=str(tmp_path / "solo"))
            node = await create_node("solo", config)
            node.membership.propose_epoch(3)
            keys_after_bump = tuple(node.endpoint.clock.own_keys)
            assert node.membership.epoch == 1
            await node.close()

            revived = await create_node("solo", config)
            assert revived.membership.epoch == 1
            assert revived.membership.view.k() == 3
            assert tuple(revived.endpoint.clock.own_keys) == keys_after_bump
            assert revived.epoch == 1
            await revived.close()

        asyncio.run(scenario())


class TestController:
    def test_create_node_wires_and_starts_the_controller(self):
        async def scenario():
            node = await create_node(
                "solo",
                quick_config(adaptive=AdaptivePolicy(interval=30.0)),
            )
            assert isinstance(node.adaptive, AdaptiveClockController)
            assert node.adaptive._task is not None
            await node.close()
            assert node.adaptive._task is None

        asyncio.run(scenario())

    def test_step_bumps_epoch_through_membership(self):
        async def scenario():
            node = await create_node(
                "solo",
                quick_config(
                    adaptive=AdaptivePolicy(interval=30.0, band=(0.0, 0.05)),
                ),
            )
            controller = node.adaptive
            # Count an out-of-band window into the detector instead of
            # generating minutes of traffic: the actuator path (rule ->
            # membership -> epoch install -> codec stamp) is the thing
            # under test here.
            stats = node.endpoint.detector.stats
            stats.checks += 100
            stats.alerts += 60
            target = decide(controller.policy, 64, 8, 0.6)
            assert target is not None and target < 8
            proposed = controller.step(now=20.0)
            assert proposed == target
            assert node.membership.epoch == 1
            assert node.endpoint.clock.k == target
            assert node.epoch == 1
            snapshot = node.metrics.snapshot()
            assert snapshot["counters"]["repro_adaptive_bumps_total"] == 1
            assert snapshot["gauges"]["repro_adaptive_k_target"] == target
            await node.close()

        asyncio.run(scenario())

    def test_step_holds_without_telemetry(self):
        async def scenario():
            node = await create_node(
                "solo", quick_config(adaptive=AdaptivePolicy(interval=30.0))
            )
            # Two idle snapshots: no deliveries, no window, no bump.
            assert node.adaptive.step(now=1.0) is None
            assert node.adaptive.step(now=2.0) is None
            assert node.membership.epoch == 0
            await node.close()

        asyncio.run(scenario())

    def test_follower_never_proposes(self):
        async def scenario():
            a = await create_node("a", quick_config())
            b = await create_node(
                "b",
                quick_config(
                    seed_peers=(a.local_address,),
                    adaptive=AdaptivePolicy(interval=30.0),
                ),
            )
            follower = b if a.membership.is_coordinator() else a
            controller = (
                follower.adaptive
                if follower.adaptive is not None
                else AdaptiveClockController(follower)
            )
            stats = follower.endpoint.detector.stats
            stats.checks += 100
            stats.alerts += 60
            assert controller.step(now=10.0) is None
            assert controller.k_target < 8  # it judged, and held
            assert follower.membership.epoch == 0
            await b.close()
            await a.close()

        asyncio.run(scenario())
