"""Tests for the ground-truth causality oracle (Section 5.4.1)."""

import numpy as np
import pytest

from repro.core.errors import ConfigurationError, SimulationError, UnknownProcessError
from repro.sim.oracle import CausalityOracle, DeliveryVerdict


def fresh_oracle(n=3):
    oracle = CausalityOracle(capacity=n)
    for node in range(n):
        oracle.register_node(node)
    return oracle


class TestRegistration:
    def test_slots_dense(self):
        oracle = fresh_oracle(3)
        assert [oracle.slot_of(i) for i in range(3)] == [0, 1, 2]

    def test_duplicate_registration_rejected(self):
        oracle = fresh_oracle(2)
        with pytest.raises(SimulationError):
            oracle.register_node(0)

    def test_capacity_enforced(self):
        oracle = fresh_oracle(2)
        with pytest.raises(SimulationError):
            oracle.register_node("extra")

    def test_unknown_node_rejected(self):
        oracle = fresh_oracle(2)
        with pytest.raises(UnknownProcessError):
            oracle.slot_of("ghost")

    def test_initial_knowledge(self):
        oracle = CausalityOracle(capacity=3)
        oracle.register_node("old")
        oracle.on_send("old", ("old", 1), now=0.0, fanout=1)
        oracle.register_node("newcomer")
        oracle.adopt_knowledge("newcomer", np.array([1, 0, 0], dtype=np.int64))
        # The newcomer "knows" old's first message: a later message from
        # old that causally follows it is correct at the newcomer.
        oracle.on_send("old", ("old", 2), now=1.0, fanout=1)
        verdict = oracle.classify_delivery("newcomer", ("old", 2), now=2.0)
        assert verdict.verdict is DeliveryVerdict.CORRECT

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            CausalityOracle(capacity=0)


class TestClassification:
    def test_in_order_chain_is_correct(self):
        oracle = fresh_oracle(3)
        oracle.on_send(0, ("m", 1), now=0.0, fanout=2)
        assert oracle.classify_delivery(1, ("m", 1), 10.0).verdict is DeliveryVerdict.CORRECT
        assert oracle.classify_delivery(2, ("m", 1), 12.0).verdict is DeliveryVerdict.CORRECT
        counters = oracle.totals
        assert counters.correct == 2 and counters.violations == 0

    def test_fifo_violation_detected(self):
        oracle = fresh_oracle(2)
        oracle.on_send(0, ("m", 1), now=0.0, fanout=1)
        oracle.on_send(0, ("m", 2), now=1.0, fanout=1)
        # Node 1 delivers the second message first: proven violation.
        verdict = oracle.classify_delivery(1, ("m", 2), 5.0)
        assert verdict.verdict is DeliveryVerdict.VIOLATION

    def test_bypassed_message_is_ambiguous(self):
        oracle = fresh_oracle(2)
        oracle.on_send(0, ("m", 1), now=0.0, fanout=1)
        oracle.on_send(0, ("m", 2), now=1.0, fanout=1)
        oracle.classify_delivery(1, ("m", 2), 5.0)  # violation + merge
        late = oracle.classify_delivery(1, ("m", 1), 6.0)
        assert late.verdict is DeliveryVerdict.AMBIGUOUS

    def test_cross_sender_violation(self):
        oracle = fresh_oracle(3)
        # Node 0 broadcasts m1; node 1 delivers it then broadcasts m2.
        oracle.on_send(0, ("a", 1), now=0.0, fanout=2)
        oracle.classify_delivery(1, ("a", 1), 10.0)
        oracle.on_send(1, ("b", 1), now=11.0, fanout=2)
        # Node 2 delivers m2 before m1: violation (m1 -> m2).
        verdict = oracle.classify_delivery(2, ("b", 1), 15.0)
        assert verdict.verdict is DeliveryVerdict.VIOLATION
        # And m1 afterwards is ambiguous.
        assert oracle.classify_delivery(2, ("a", 1), 16.0).verdict is (
            DeliveryVerdict.AMBIGUOUS
        )

    def test_concurrent_messages_any_order_correct(self):
        oracle = fresh_oracle(3)
        oracle.on_send(0, ("a", 1), now=0.0, fanout=2)
        oracle.on_send(1, ("b", 1), now=0.0, fanout=2)
        assert oracle.classify_delivery(2, ("b", 1), 5.0).verdict is DeliveryVerdict.CORRECT
        assert oracle.classify_delivery(2, ("a", 1), 6.0).verdict is DeliveryVerdict.CORRECT

    def test_latency_reported(self):
        oracle = fresh_oracle(2)
        oracle.on_send(0, ("m", 1), now=100.0, fanout=1)
        assert oracle.classify_delivery(1, ("m", 1), 150.0).latency_ms == 50.0

    def test_eps_bounds(self):
        oracle = fresh_oracle(2)
        oracle.on_send(0, ("m", 1), now=0.0, fanout=1)
        oracle.on_send(0, ("m", 2), now=1.0, fanout=1)
        oracle.classify_delivery(1, ("m", 2), 5.0)
        oracle.classify_delivery(1, ("m", 1), 6.0)
        counters = oracle.totals
        assert counters.eps_min == pytest.approx(0.5)
        assert counters.eps_max == pytest.approx(1.0)

    def test_per_node_counters(self):
        oracle = fresh_oracle(3)
        oracle.on_send(0, ("m", 1), now=0.0, fanout=2)
        oracle.classify_delivery(1, ("m", 1), 5.0)
        assert oracle.per_node[1].deliveries == 1
        assert oracle.per_node[2].deliveries == 0


class TestBookkeeping:
    def test_records_freed_after_full_fanout(self):
        oracle = fresh_oracle(3)
        oracle.on_send(0, ("m", 1), now=0.0, fanout=2)
        assert oracle.outstanding_messages == 1
        oracle.classify_delivery(1, ("m", 1), 5.0)
        oracle.classify_delivery(2, ("m", 1), 6.0)
        assert oracle.outstanding_messages == 0

    def test_classify_after_free_raises(self):
        oracle = fresh_oracle(2)
        oracle.on_send(0, ("m", 1), now=0.0, fanout=1)
        oracle.classify_delivery(1, ("m", 1), 5.0)
        with pytest.raises(SimulationError):
            oracle.classify_delivery(1, ("m", 1), 6.0)

    def test_duplicate_send_rejected(self):
        oracle = fresh_oracle(2)
        oracle.on_send(0, ("m", 1), now=0.0, fanout=1)
        with pytest.raises(SimulationError):
            oracle.on_send(0, ("m", 1), now=1.0, fanout=1)

    def test_joiner_counted_into_live_budgets(self):
        # A joiner may deliver any message still live when it registers;
        # its state transfer then takes back what it covered.
        oracle = CausalityOracle(capacity=3)
        oracle.register_node(0)
        oracle.register_node(1)
        oracle.on_send(0, ("m", 1), now=0.0, fanout=1)
        oracle.on_send(0, ("m", 2), now=1.0, fanout=1)
        oracle.register_node("joiner")
        oracle.adopt_knowledge("joiner", np.array([1, 0, 0], dtype=np.int64))
        oracle.classify_delivery(1, ("m", 1), 5.0)
        assert oracle.outstanding_messages == 1  # ("m", 1) was covered
        oracle.classify_delivery(1, ("m", 2), 6.0)
        # ("m", 2) outlives the older member's delivery: the joiner's is due.
        assert oracle.classify_delivery("joiner", ("m", 2), 7.0).verdict is (
            DeliveryVerdict.CORRECT
        )
        assert oracle.outstanding_messages == 0

    def test_knowledge_shape_checked(self):
        oracle = fresh_oracle(2)
        with pytest.raises(ConfigurationError):
            oracle.adopt_knowledge(1, np.zeros(3, dtype=np.int64))

    def test_true_clock_inspection(self):
        # The sender's true clock ticks on send and the receiver's advances
        # on delivery; both show in the verdicts of later deliveries.
        oracle = fresh_oracle(2)
        oracle.on_send(0, ("m", 1), now=0.0, fanout=1)
        oracle.on_send(0, ("m", 2), now=1.0, fanout=1)
        assert oracle.classify_delivery(1, ("m", 1), 5.0).verdict is DeliveryVerdict.CORRECT
        assert oracle.classify_delivery(1, ("m", 2), 6.0).verdict is DeliveryVerdict.CORRECT
        oracle.on_send(1, ("n", 1), now=7.0, fanout=1)
        assert oracle.classify_delivery(0, ("n", 1), 9.0).verdict is DeliveryVerdict.CORRECT
