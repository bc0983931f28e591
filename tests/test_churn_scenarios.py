"""Targeted churn scenarios: mass leave and flash crowd, oracle-checked.

These drive :class:`~repro.sim.membership.ScriptedChurn` end-to-end
through the simulation runner: a coordinated mass departure and a flash
crowd of joiners, with the runner's causality oracle verifying delivery
order throughout.  Also pins the scripted-victim semantics — a
``ChurnEvent.node_id`` names *which* member leaves, it is not a hint.
"""

from repro.sim import (
    ChurnAction,
    ChurnEvent,
    PoissonWorkload,
    ScriptedChurn,
    SimulationConfig,
    run_simulation,
)
from repro.sim.runner import NodeApplication


class LeaveRecorder(NodeApplication):
    """Shared across nodes: records which ids actually left, and when."""

    def __init__(self, log):
        self._log = log

    def on_leave(self, node_id, now):
        self._log.append((node_id, now))


def churn_config(script, **overrides):
    base = dict(
        n_nodes=10,
        r=40,
        k=3,
        duration_ms=20_000.0,
        seed=11,
        workload=PoissonWorkload(800.0),
        churn=ScriptedChurn(script),
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestTargetedLeave:
    def test_scripted_victim_is_honoured(self):
        departures = []
        script = [
            ChurnEvent(time=5000.0, action=ChurnAction.LEAVE, node_id=3),
            ChurnEvent(time=7000.0, action=ChurnAction.LEAVE, node_id=7),
        ]
        result = run_simulation(
            churn_config(
                script,
                application_factory=lambda node_id: LeaveRecorder(departures),
            )
        )
        assert result.leaves == 2
        assert [node_id for node_id, _ in departures] == [3, 7]

    def test_departed_victim_not_retargeted(self):
        departures = []
        # The second event names a node that already left: it must be a
        # no-op, not a random re-sample.
        script = [
            ChurnEvent(time=4000.0, action=ChurnAction.LEAVE, node_id=2),
            ChurnEvent(time=6000.0, action=ChurnAction.LEAVE, node_id=2),
        ]
        result = run_simulation(
            churn_config(
                script,
                application_factory=lambda node_id: LeaveRecorder(departures),
            )
        )
        assert result.leaves == 1
        assert [node_id for node_id, _ in departures] == [2]

    def test_untargeted_leave_still_samples(self):
        departures = []
        script = [ChurnEvent(time=5000.0, action=ChurnAction.LEAVE)]
        result = run_simulation(
            churn_config(
                script,
                application_factory=lambda node_id: LeaveRecorder(departures),
            )
        )
        assert result.leaves == 1
        assert len(departures) == 1


class TestMassLeave:
    def test_half_the_group_leaves_at_once(self):
        """Five of ten nodes leave in the same millisecond; the survivors
        keep delivering everything in causal order and nothing wedges."""
        script = [
            ChurnEvent(time=8000.0, action=ChurnAction.LEAVE, node_id=i)
            for i in range(5)
        ]
        result = run_simulation(churn_config(script, duration_ms=25_000.0))
        assert result.leaves == 5
        assert result.stuck_pending == 0
        # Oracle-checked causal order with an exact clock: a mass leave
        # must not produce a single violation.
        exact = run_simulation(
            churn_config(
                script, clock="vector", n_nodes=10, duration_ms=25_000.0
            )
        )
        assert exact.counters.violations == 0
        assert exact.leaves == 5

    def test_crash_stops_leave_the_system_live(self):
        """Two untargeted abrupt leaves (a crash schedule is a script of
        LEAVE events): the victims' sends stay causal dependencies of
        everyone else's traffic and nothing waits on them forever."""
        script = [
            ChurnEvent(time=3_000.0, action=ChurnAction.LEAVE),
            ChurnEvent(time=6_000.0, action=ChurnAction.LEAVE),
        ]
        result = run_simulation(
            churn_config(
                script, n_nodes=12, r=24, k=2, duration_ms=12_000.0, seed=4,
                workload=PoissonWorkload(600.0),
            )
        )
        assert result.leaves == 2
        assert result.stuck_pending == 0

    def test_population_floor_respected(self):
        # Scripting more leaves than the floor allows must saturate at
        # the minimum population, not empty the group.
        script = [
            ChurnEvent(time=3000.0 + 500.0 * i, action=ChurnAction.LEAVE)
            for i in range(20)
        ]
        result = run_simulation(churn_config(script))
        # 10 nodes, floor of 2: exactly 8 of the 20 scripted leaves land.
        assert result.leaves == 8


class TestFlashCrowd:
    def test_crowd_joins_mid_run(self):
        """Eight joiners in two seconds against a four-node base: all of
        them participate and the oracle stays clean on the exact clock."""
        script = [
            ChurnEvent(time=5000.0 + 250.0 * i, action=ChurnAction.JOIN)
            for i in range(8)
        ]
        result = run_simulation(
            churn_config(script, n_nodes=4, duration_ms=25_000.0)
        )
        assert result.joins == 8
        assert result.stuck_pending == 0
        assert result.mean_membership > 4

        exact = run_simulation(
            churn_config(
                script, clock="vector", n_nodes=4, duration_ms=25_000.0
            )
        )
        assert exact.counters.violations == 0
        assert exact.joins == 8

    def test_flash_crowd_after_mass_leave(self):
        """The churn one-two punch: half the group leaves, then a crowd
        rejoins.  Sends from every era deliver without wedging."""
        script = (
            [
                ChurnEvent(time=6000.0, action=ChurnAction.LEAVE, node_id=i)
                for i in range(3)
            ]
            + [
                ChurnEvent(time=10_000.0 + 200.0 * i, action=ChurnAction.JOIN)
                for i in range(5)
            ]
        )
        result = run_simulation(
            churn_config(script, n_nodes=8, duration_ms=28_000.0)
        )
        assert result.leaves == 3
        assert result.joins == 5
        assert result.stuck_pending == 0
