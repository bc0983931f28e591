"""Integration tests: full simulated runs across configurations.

These are the end-to-end checks that the evaluation environment of §5.4
behaves: liveness (everything sent is delivered everywhere), determinism,
the zero-error baselines, and the existence of violations exactly where
the paper predicts them.
"""

import dataclasses

import pytest

from repro.core.errors import ConfigurationError
from repro.sim import (
    ConstantDelayModel,
    GaussianDelayModel,
    PoissonWorkload,
    SimulationConfig,
    run_simulation,
)
from repro.sim.runner import NodeApplication
from repro.sim.vtime import run_virtual
from repro.util.rng import RandomSource
from tests.test_churn_scenarios import churn


def quick_config(**overrides):
    base = dict(
        n_nodes=15,
        r=30,
        k=3,
        duration_ms=15_000.0,
        seed=42,
        workload=PoissonWorkload(1000.0),
    )
    base.update(overrides)
    return SimulationConfig(**base)


class TestLiveness:
    def test_everything_sent_is_delivered_everywhere(self):
        result = run_simulation(quick_config())
        assert result.sent > 0
        assert result.undelivered_messages == 0
        assert result.stuck_pending == 0
        assert result.delivered_remote == result.sent * (result.config.n_nodes - 1)

    def test_liveness_for_every_clock_mode(self):
        for clock in ("probabilistic", "plausible", "lamport", "vector"):
            result = run_simulation(quick_config(clock=clock, duration_ms=8000.0))
            assert result.undelivered_messages == 0, clock
            assert result.stuck_pending == 0, clock

    def test_counters_are_consistent(self):
        result = run_simulation(quick_config())
        counters = result.counters
        assert counters.deliveries == (
            counters.correct + counters.violations + counters.ambiguous
        )
        assert 0.0 <= counters.eps_min <= counters.eps_max <= 1.0


class TestDeterminism:
    def test_same_seed_same_results(self):
        first = run_simulation(quick_config())
        second = run_simulation(quick_config())
        assert first.sent == second.sent
        assert first.counters.deliveries == second.counters.deliveries
        assert first.counters.violations == second.counters.violations
        assert first.latency["mean"] == second.latency["mean"]

    def test_different_seed_different_run(self):
        first = run_simulation(quick_config(seed=1))
        second = run_simulation(quick_config(seed=2))
        assert first.sent != second.sent or first.latency["mean"] != second.latency["mean"]


class TestZeroErrorBaselines:
    def test_vector_clock_never_violates(self):
        result = run_simulation(
            quick_config(clock="vector", workload=PoissonWorkload(200.0))
        )
        assert result.counters.violations == 0
        assert result.counters.ambiguous == 0

    def test_constant_delay_never_violates(self):
        # No network reordering -> P_nc = 0 -> no errors even with tiny R.
        result = run_simulation(
            quick_config(
                r=8,
                k=2,
                delay_model=ConstantDelayModel(100.0),
                workload=PoissonWorkload(200.0),
            )
        )
        assert result.counters.violations == 0
        assert result.counters.ambiguous == 0

    def test_low_load_rarely_violates(self):
        # The paper's observation: when inter-send time >> transit time,
        # causal order comes (nearly) free.
        result = run_simulation(quick_config(workload=PoissonWorkload(10_000.0)))
        assert result.counters.eps_max <= 0.01


@pytest.fixture(scope="module")
def pressured():
    """Small R under high load, Algorithm 4 on: one run read by two tests."""
    config = SimulationConfig(
        n_nodes=30,
        r=12,
        k=2,
        duration_ms=60_000.0,
        seed=7,
        detector="basic",
        workload=PoissonWorkload(250.0),
    )
    return run_simulation(config)


class TestViolationsUnderPressure:
    def test_small_r_high_load_produces_violations(self, pressured):
        result = pressured
        assert result.counters.violations > 0
        assert result.counters.eps_min > 0

    def test_algorithm4_catches_every_bypassed_delivery(self, pressured):
        result = pressured
        assert result.alerts.late_caught > 0
        assert result.alerts.late_missed == 0
        assert result.alerts.recall_late == 1.0

    def test_vector_clock_beats_probabilistic_on_errors(self):
        shared = dict(
            n_nodes=25, duration_ms=40_000.0, seed=11, workload=PoissonWorkload(250.0)
        )
        probabilistic = run_simulation(SimulationConfig(r=12, k=2, **shared))
        exact = run_simulation(SimulationConfig(clock="vector", **shared))
        assert exact.counters.violations == 0
        assert probabilistic.counters.violations > exact.counters.violations


class TestReceptionOrder:
    """``track_reception_order``: the network's own reorder rate P_nc,
    the factor the paper's bound ``P <= P_nc * P_err`` multiplies by."""

    @staticmethod
    def measure(delay_model):
        return run_simulation(SimulationConfig(
            n_nodes=10, r=16, k=2, duration_ms=5_000.0, seed=3,
            workload=PoissonWorkload(100.0), delay_model=delay_model,
            track_reception_order=True,
        ))

    def test_constant_delay_reorders_nothing(self):
        result = self.measure(ConstantDelayModel(100.0))
        assert result.measured_p_nc == 0.0
        assert result.counters.violations == 0

    def test_jittered_delay_reorders(self):
        result = self.measure(GaussianDelayModel(50.0, 20.0, 20.0))
        assert result.measured_p_nc > 0.0


class TestDissemination:
    def test_latency_reflects_delay_model(self):
        result = run_simulation(
            quick_config(delay_model=ConstantDelayModel(250.0), duration_ms=8000.0)
        )
        assert result.latency["mean"] == pytest.approx(250.0, abs=5.0)


class TestChurn:
    """The simulator's membership is static; churn during traffic runs
    on the shipping stack (:func:`tests.test_churn_scenarios.churn`),
    which settles only when every live member delivered every broadcast
    its state transfer did not cover."""

    def test_scripted_joins_and_leaves(self):
        script = [(0.6, ["n6"], []), (1.2, ["n7"], []), (1.8, [], ["n1"])]
        totals, members, _ = run_virtual(churn(6, 1200, script))
        assert members == ("n0", "n2", "n3", "n4", "n5", "n6", "n7")
        assert (totals.violations, totals.ambiguous) == (0, 0), totals

    def test_poisson_churn_stays_live(self):
        """Joins and leaves at Poisson times, one every 400 ms on
        average each, against a six-member base.  Leavers are drawn
        from the base but the founder (the joiners' seed peer), so
        every joiner stays and must deliver.  Joins and leaves run one
        after another and take a few hundred ms each, so traffic lasts
        past the last of them."""
        rng = RandomSource(1201)
        events = []
        for kind in ("join", "leave"):
            stream = rng.spawn(kind)
            at = stream.exponential(0.4)
            while at < 2.5:
                events.append((at, kind))
                at += stream.exponential(0.4)
        victims, base, joiners, script = rng.spawn("victim"), [f"n{i}" for i in range(1, 6)], [], []
        for at, kind in sorted(events):
            if kind == "join":
                joiners.append(f"n{6 + len(joiners)}")
                script.append((at, [joiners[-1]], []))
            elif base:
                script.append((at, [], [base.pop(victims.integer(0, len(base)))]))
        assert joiners and len(script) > len(joiners)
        totals, members, _ = run_virtual(churn(6, 1201, script, horizon=5.0))
        assert members == ("n0", *base, *joiners)
        assert totals.deliveries > 0
        assert (totals.violations, totals.ambiguous) == (0, 0), totals

    def test_joined_node_participates(self):
        """A newcomer both delivers the others' broadcasts and has its
        own delivered by every other member."""
        _, members, order = run_virtual(churn(5, 1202, [(0.5, ["n5"], [])]))
        assert "n5" in members
        assert any(sender != "n5" for sender, _ in order["n5"])
        for name in members:
            if name != "n5":
                assert any(sender == "n5" for sender, _ in order[name]), name


class TestApplications:
    def test_application_sees_every_remote_delivery(self):
        deliveries = []

        class Probe(NodeApplication):
            def make_payload(self, node_id, now):
                return ("op", node_id)

            def on_deliver(self, node_id, record, verdict, now):
                deliveries.append((node_id, record.message.payload))

        result = run_simulation(
            quick_config(application_factory=lambda node_id: Probe())
        )
        assert len(deliveries) == result.delivered_remote
        assert all(payload[0] == "op" for _, payload in deliveries)


class TestValidation:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_simulation(SimulationConfig(n_nodes=0))
        with pytest.raises(ConfigurationError):
            run_simulation(SimulationConfig(n_nodes=5, clock="quantum"))
        with pytest.raises(ConfigurationError):
            run_simulation(SimulationConfig(n_nodes=5, k=200, r=100))
        with pytest.raises(ConfigurationError):
            run_simulation(SimulationConfig(n_nodes=5, duration_ms=0))
        with pytest.raises(ConfigurationError):
            run_simulation(SimulationConfig(n_nodes=5, detector="psychic"))
        with pytest.raises(ConfigurationError):
            run_simulation(SimulationConfig(n_nodes=5, key_assigner="florp"))

    def test_max_messages_caps_sending(self):
        result = run_simulation(quick_config(max_messages=10))
        assert result.sent <= 10

    def test_key_assigner_variants_run(self):
        for assigner in ("random", "random-colliding", "perfect", "sequential", "hash"):
            result = run_simulation(
                quick_config(key_assigner=assigner, duration_ms=5000.0)
            )
            assert result.undelivered_messages == 0, assigner

    def test_detector_variants_run(self):
        for detector in ("none", "basic", "refined"):
            result = run_simulation(quick_config(detector=detector, duration_ms=5000.0))
            assert result.counters.deliveries > 0, detector


class TestPinnedRuns:
    """The lean runner is the instrument behind Figures 3-6: a change to
    it must not move a seeded run.  Every random substream is keyed by
    name, so deleting the ``recovery`` / ``adaptive`` streams, and later
    the ``churn`` stream with push gossip and the loss knobs, left these
    values — each recorded on the tree before the deletion — untouched."""

    BASE = dict(
        n_nodes=20, r=16, k=2, duration_ms=8_000.0,
        workload=PoissonWorkload(400.0), delay_model=GaussianDelayModel(),
    )
    # (counters: deliveries, correct, violations, ambiguous), (alerts:
    # late_caught, late_missed, early_alerted, early_silent,
    # false_positives, true_negatives), sent, delivered_remote, events
    CASES = {
        "direct": (
            dict(seed=101),
            (7999, 7882, 58, 59), (59, 0, 0, 58, 1312, 6570), 421, 7999, 8420,
        ),
        "refined": (
            dict(seed=202, detector="refined"),
            (7410, 7274, 68, 68), (68, 0, 0, 68, 183, 7091), 390, 7410, 7800,
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_seeded_run_matches_the_recorded_values(self, name):
        overrides, counters, alerts, sent, delivered_remote, events = self.CASES[name]
        result = run_simulation(SimulationConfig(**self.BASE, **overrides))
        assert dataclasses.astuple(result.counters) == counters
        assert dataclasses.astuple(result.alerts) == alerts
        assert (result.sent, result.delivered_remote, result.events) == (
            sent, delivered_remote, events
        )


class TestParallelRuns:
    """The multiprocessing fan-out behind sweeps (run_simulations)."""

    def test_parallel_results_match_sequential(self):
        from repro.sim.runner import run_simulations

        configs = [quick_config(seed=seed) for seed in (1, 2, 3)]
        sequential = [run_simulation(config) for config in configs]
        parallel = run_simulations(configs, workers=2)
        assert len(parallel) == len(sequential)
        for seq, par in zip(sequential, parallel):
            assert par.config.seed == seq.config.seed
            assert par.sent == seq.sent
            assert par.delivered_remote == seq.delivered_remote
            assert par.counters.violations == seq.counters.violations

    def test_resolve_workers(self, monkeypatch):
        from repro.sim.runner import resolve_workers

        monkeypatch.delenv("REPRO_SIM_WORKERS", raising=False)
        assert resolve_workers(workers=4) == 4
        assert resolve_workers(workers=4, jobs=2) == 2
        assert resolve_workers(jobs=0) == 1
        monkeypatch.setenv("REPRO_SIM_WORKERS", "3")
        assert resolve_workers() == 3
        monkeypatch.setenv("REPRO_SIM_WORKERS", "florp")
        with pytest.raises(ConfigurationError):
            resolve_workers()
        with pytest.raises(ConfigurationError):
            resolve_workers(workers=0)
