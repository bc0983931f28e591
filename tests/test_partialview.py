"""Tests for lpbcast-style partial-view gossip."""

import pytest

from repro.core.errors import ConfigurationError
from repro.sim import (
    GaussianDelayModel,
    PartialViewGossip,
    PoissonWorkload,
    SimulationConfig,
    run_simulation,
)
from repro.sim.network import ConstantDelayModel
from tests.test_dissemination import RecordingContext, make_message


class TestViews:
    def test_view_initialised_from_membership_sample(self):
        context = RecordingContext(list(range(50)), seed=1)
        strategy = PartialViewGossip(ConstantDelayModel(10), fanout=4, view_size=8)
        strategy.disseminate(context, make_message(), 0)
        view = strategy.view_of(0)
        assert len(view) == 8
        assert 0 not in view
        assert all(peer in range(50) for peer in view)

    def test_small_system_view_capped_by_membership(self):
        context = RecordingContext(["a", "b", "c"], seed=2)
        strategy = PartialViewGossip(ConstantDelayModel(10), fanout=2, view_size=10)
        strategy.disseminate(context, make_message(), "a")
        assert len(strategy.view_of("a")) == 2

    def test_pushes_stay_inside_the_view(self):
        context = RecordingContext(list(range(50)), seed=3)
        strategy = PartialViewGossip(ConstantDelayModel(10), fanout=5, view_size=8)
        strategy.disseminate(context, make_message(), 0)
        view = set(strategy.view_of(0))
        targets = {node for node, _, _ in context.scheduled}
        assert targets <= view
        assert len(targets) == 5

    def test_merge_bounded_and_self_free(self):
        context = RecordingContext(list(range(30)), seed=4)
        strategy = PartialViewGossip(
            ConstantDelayModel(10), fanout=3, view_size=5, merge_probability=1.0
        )
        message = make_message()
        strategy.disseminate(context, message, 0)
        target = context.scheduled[0][0]
        strategy.on_first_reception(context, message, target)
        view = strategy.view_of(target)
        assert len(view) <= 5
        assert target not in view

    def test_forget_drops_view(self):
        context = RecordingContext(list(range(10)), seed=5)
        strategy = PartialViewGossip(ConstantDelayModel(10), fanout=2, view_size=4)
        strategy.disseminate(context, make_message(), 0)
        strategy.forget(0)
        assert strategy.view_of(0) == ()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            PartialViewGossip(ConstantDelayModel(10), fanout=0)
        with pytest.raises(ConfigurationError):
            PartialViewGossip(ConstantDelayModel(10), fanout=5, view_size=4)
        with pytest.raises(ConfigurationError):
            PartialViewGossip(ConstantDelayModel(10), piggyback_size=-1)
        with pytest.raises(ConfigurationError):
            PartialViewGossip(ConstantDelayModel(10), merge_probability=1.5)


class TestEndToEnd:
    def run_with(self, merge_probability, seed=8, duration=12_000.0):
        delay = GaussianDelayModel()
        config = SimulationConfig(
            n_nodes=60,
            r=40,
            k=3,
            key_assigner="random-colliding",
            duration_ms=duration,
            seed=seed,
            workload=PoissonWorkload(600.0),
            delay_model=delay,
            dissemination=PartialViewGossip(
                delay,
                fanout=8,
                view_size=15,
                piggyback_size=3,
                merge_probability=merge_probability,
            ),
            track_latency=False,
        )
        result = run_simulation(config)
        expected = result.sent * (config.n_nodes - 1)
        return result, result.delivered_remote / expected if expected else 0.0

    @pytest.fixture(scope="class")
    def throttled(self):
        """The seeded reference run, shared: both tests read it."""
        return self.run_with(merge_probability=0.02)

    def test_reasonable_coverage_without_membership_knowledge(self, throttled):
        result, coverage = throttled
        assert coverage > 0.7
        assert result.duplicates > 0  # gossip redundancy

    def test_unthrottled_view_merging_collapses_coverage(self, throttled):
        """The measured rich-get-richer effect: folding a membership
        sample into the view on *every* reception lets popular ids take
        over all views, shrinking the effective overlay."""
        _, unthrottled = self.run_with(merge_probability=1.0)
        assert unthrottled < throttled[1]
