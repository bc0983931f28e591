"""Self-tuning (R, K): estimator, planner, controller, epoch bumps.

Unit tests drive the pure decision core (Little's-law estimator +
band/hysteresis planner) on synthetic telemetry; the integration tests
run real UDP nodes through a coordinator-proposed epoch bump and check
the re-tiled geometry lands everywhere (clock, view, codec stamp,
journal).  The crash/restart side of epochs lives in the churn
scenario of ``test_net_membership.py``.
"""

import asyncio

import pytest

import repro.net.adaptive as adaptive_module
import repro.net.membership as membership_module
from repro.api import (
    LivenessPolicy,
    MembershipConfig,
    NodeConfig,
    RetransmitPolicy,
    create_node,
)
from repro.core.errors import ConfigurationError, MembershipError
from repro.core.theory import optimal_k_int, p_error
from repro.net.adaptive import (
    AdaptiveClockController,
    AdaptivePolicy,
    ConcurrencyEstimator,
    EpochPlanner,
    TelemetrySample,
    TelemetryWindow,
)
from repro.sim.group import wait_for


@pytest.fixture(autouse=True)
def fast_views(monkeypatch):
    """VIEW re-announced every 0.1 s, so groups converge in test time."""
    monkeypatch.setattr(membership_module, "_ANNOUNCE_INTERVAL", 0.1)


def sample(now, delivered, wait_sum=0.0, wait_count=0, pending=0.0,
           alerts=0.0, checks=0.0):
    return TelemetrySample(
        now=now, delivered_total=delivered, wait_sum=wait_sum,
        wait_count=wait_count, pending_depth=pending,
        alerts_total=alerts, checks_total=checks,
    )


def window(x_estimate, alert_rate, deliveries=1000.0):
    return TelemetryWindow(
        elapsed=10.0, deliveries=deliveries, delivery_rate=deliveries / 10.0,
        mean_wait=0.01, x_estimate=x_estimate, alert_rate=alert_rate,
    )


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

    def test_node_config_validates_adaptive_knobs(self):
        """The controller is switched on by a policy object, which
        cannot exist invalid — a flag plus loose knobs is refused."""
        with pytest.raises(ConfigurationError, match="AdaptivePolicy"):
            NodeConfig(membership=MembershipConfig(), adaptive=True)
        with pytest.raises(TypeError):
            NodeConfig(membership=MembershipConfig(), adaptive_interval=0.0)


class TestTelemetrySample:
    def test_from_snapshot_uses_live_series_names(self):
        snapshot = {
            "counters": {
                "repro_endpoint_delivered_total": 120.0,
                "repro_detector_alerts_total": 3.0,
                "repro_detector_checks_total": 120.0,
            },
            "gauges": {"repro_pending_depth": 4.0},
            "histograms": {
                "repro_delivery_wait_seconds": {
                    "bounds": [0.1], "counts": [100, 0], "sum": 5.5,
                    "count": 100,
                }
            },
        }
        reading = TelemetrySample.from_snapshot(snapshot, now=42.0)
        assert reading.now == 42.0
        assert reading.delivered_total == 120.0
        assert reading.wait_sum == 5.5
        assert reading.wait_count == 100
        assert reading.pending_depth == 4.0
        assert reading.alerts_total == 3.0
        assert reading.checks_total == 120.0

    def test_from_snapshot_tolerates_missing_series(self):
        reading = TelemetrySample.from_snapshot({}, now=1.0)
        assert reading.delivered_total == 0.0
        assert reading.wait_count == 0


class TestConcurrencyEstimator:
    def test_first_sample_only_warms_up(self):
        estimator = ConcurrencyEstimator(min_window=1)
        assert estimator.update(sample(0.0, 10)) is None

    def test_littles_law_window(self):
        estimator = ConcurrencyEstimator(min_window=1)
        estimator.update(sample(0.0, 0))
        w = estimator.update(
            sample(10.0, 100, wait_sum=50.0, wait_count=100, pending=2.0,
                   alerts=4.0, checks=100.0)
        )
        assert w.deliveries == 100
        assert w.delivery_rate == pytest.approx(10.0)
        assert w.mean_wait == pytest.approx(0.5)
        # X̂ = rate x mean wait = 10/s x 0.5 s
        assert w.x_estimate == pytest.approx(5.0)
        assert w.alert_rate == pytest.approx(0.04)

    def test_pending_depth_floors_the_estimate(self):
        estimator = ConcurrencyEstimator(min_window=1)
        estimator.update(sample(0.0, 0))
        w = estimator.update(sample(1.0, 5, pending=7.0))
        assert w.x_estimate == pytest.approx(7.0)

    def test_thin_window_not_trusted(self):
        estimator = ConcurrencyEstimator(min_window=50)
        estimator.update(sample(0.0, 0))
        assert estimator.update(sample(1.0, 10)) is None

    def test_counter_reset_discards_window(self):
        estimator = ConcurrencyEstimator(min_window=1)
        estimator.update(sample(0.0, 1000))
        assert estimator.update(sample(1.0, 50)) is None  # restarted node
        # ...but the stream recovers on the next reading.
        assert estimator.update(sample(2.0, 60)) is not None


class TestEpochPlanner:
    def make(self, **overrides):
        base = dict(band=(0.01, 0.05), cooldown=30.0, k_max=16)
        base.update(overrides)
        return EpochPlanner(128, AdaptivePolicy(**base))

    def test_holds_inside_the_band(self):
        planner = self.make()
        assert planner.decide(12, window(25.0, 0.03), now=0.0) is None

    def test_holds_without_a_window(self):
        assert self.make().decide(12, None, now=0.0) is None

    def test_holds_below_the_concurrency_floor(self, monkeypatch):
        monkeypatch.setattr(adaptive_module, "_X_FLOOR", 1.0)
        planner = self.make()
        assert planner.decide(12, window(0.5, 0.9), now=0.0) is None

    def test_bumps_to_theory_optimum_outside_the_band(self):
        planner = self.make()
        target = planner.decide(12, window(25.0, 0.2), now=0.0)
        assert target == optimal_k_int(128, 25.0, k_max=16)
        # The move had to clear the hysteresis bar.
        assert p_error(128, target, 25.0) < 0.8 * p_error(128, 12, 25.0)

    def test_k_max_caps_the_target(self):
        planner = self.make(k_max=2)
        target = planner.decide(12, window(25.0, 0.2), now=0.0)
        assert target is None or target <= 2

    def test_holds_when_already_optimal(self):
        planner = self.make()
        best = optimal_k_int(128, 25.0, k_max=16)
        assert planner.decide(best, window(25.0, 0.2), now=0.0) is None

    def test_hysteresis_vetoes_flat_moves(self, monkeypatch):
        best = optimal_k_int(128, 25.0, k_max=16)
        neighbour = best + 1
        ratio = p_error(128, best, 25.0) / p_error(128, neighbour, 25.0)
        assert ratio > 0.5  # P_err is nearly flat around the optimum
        planner = self.make()
        monkeypatch.setattr(adaptive_module, "_HYSTERESIS", 0.5)
        assert planner.decide(neighbour, window(25.0, 0.2), now=0.0) is None
        # With the guard off, the same move is taken.
        monkeypatch.setattr(adaptive_module, "_HYSTERESIS", 1.0)
        assert planner.decide(neighbour, window(25.0, 0.2), now=0.0) == best

    def test_cooldown_spaces_bumps(self):
        planner = self.make(cooldown=30.0)
        assert planner.decide(12, window(25.0, 0.2), now=0.0) is not None
        planner.record_bump(0.0)
        assert planner.decide(12, window(25.0, 0.2), now=10.0) is None
        assert planner.decide(12, window(25.0, 0.2), now=31.0) is not None


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
            # Synthesize an out-of-band window instead of generating
            # minutes of traffic: the actuator path (planner ->
            # membership -> epoch install -> codec stamp) is the thing
            # under test here.
            target = controller.planner.decide(
                node.endpoint.clock.k, window(25.0, 0.2), now=10.0
            )
            assert target is not None
            controller.estimator.update = lambda reading: window(25.0, 0.2)
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
            controller.estimator.update = lambda reading: window(25.0, 0.2)
            assert controller.step(now=10.0) is None
            assert follower.membership.epoch == 0
            await b.close()
            await a.close()

        asyncio.run(scenario())
