"""Tests for the simulator's direct broadcast (§5.4).

Every broadcast goes straight to every other node, one copy each, after
a delay drawn from the run's delay model.
"""

from repro.sim import ConstantDelayModel, PoissonWorkload, SimulationConfig, run_simulation
from repro.sim.runner import NodeApplication


class TestDirectBroadcast:
    def test_reaches_all_other_members(self):
        sends, deliveries = [], []

        class Probe(NodeApplication):
            def make_payload(self, node_id, now):
                sends.append((node_id, now))
                return None

            def on_deliver(self, node_id, record, verdict, now):
                deliveries.append((node_id, record.message.message_id, now))

        result = run_simulation(
            SimulationConfig(
                n_nodes=4,
                r=12,
                k=2,
                duration_ms=5_000.0,
                seed=3,
                workload=PoissonWorkload(500.0),
                delay_model=ConstantDelayModel(100.0),
                max_messages=1,
                application_factory=lambda node_id: Probe(),
            )
        )
        assert result.sent == 1
        [(sender, sent_at)] = sends
        targets = [node_id for node_id, _, _ in deliveries]
        assert sorted(targets) == sorted(set(range(4)) - {sender})
        assert {message_id for _, message_id, _ in deliveries} == {(sender, 1)}
        assert all(now == sent_at + 100.0 for _, _, now in deliveries)
