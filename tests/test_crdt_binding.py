"""Integration: CRDTs running over the causal broadcast protocol.

These tests connect the two halves of the library — the protocol machine
(core) and the data types (crdt) — without the simulator: endpoints
exchange messages directly, with controlled (re)ordering.
"""

import pytest

from repro.core.clocks import ProbabilisticCausalClock, VectorCausalClock
from repro.core.protocol import CausalBroadcastEndpoint
from repro.crdt import AntiEntropySession, CrdtBinding, ORSet, PNCounter, RGA, ROOT


def make_binding(name, crdt_factory, keys, r=8):
    crdt = crdt_factory(name)

    def factory(callback):
        return CausalBroadcastEndpoint(
            process_id=name,
            clock=ProbabilisticCausalClock(r, keys),
            deliver_callback=callback,
        )

    return CrdtBinding.attach(factory, crdt)


class TestBindingBasics:
    def test_local_update_broadcast_and_apply(self):
        alice = make_binding("alice", ORSet, (0, 1))
        bob = make_binding("bob", ORSet, (2, 3))
        op = alice.crdt.add("milk")
        message = alice.broadcast_update(op)
        bob.endpoint.on_receive(message)
        assert bob.crdt.value() == {"milk"}
        assert alice.crdt.value() == {"milk"}

    def test_log_records_both_local_and_remote(self):
        alice = make_binding("alice", PNCounter, (0, 1))
        bob = make_binding("bob", PNCounter, (2, 3))
        message = alice.broadcast_update(alice.crdt.increment(3))
        bob.endpoint.on_receive(message)
        assert len(alice.log) == 1  # local self-delivery
        assert len(bob.log) == 1

    def test_detached_binding_rejects_broadcast(self):
        binding = CrdtBinding(PNCounter("x"))
        with pytest.raises(RuntimeError):
            binding.broadcast_update(("incr", "x", 1))


class TestCausalProtection:
    def test_causal_delivery_prevents_rga_anomaly(self):
        """With the protocol in between, a causally dependent insert is
        queued (not applied) until its parent arrives: zero anomalies
        even under network reordering."""
        alice = make_binding("alice", RGA, (0, 1))
        bob = make_binding("bob", RGA, (2, 3))
        carol = make_binding("carol", RGA, (4, 5))

        op1 = alice.crdt.insert_after(ROOT, "H")
        m1 = alice.broadcast_update(op1)
        bob.endpoint.on_receive(m1)
        op2 = bob.crdt.insert_after(op1[2], "i")
        m2 = bob.broadcast_update(op2)

        # Carol receives m2 first: the protocol holds it back.
        carol.endpoint.on_receive(m2)
        assert carol.crdt.as_text() == ""
        assert carol.crdt.anomalies == 0
        carol.endpoint.on_receive(m1)
        assert carol.crdt.as_text() == "Hi"
        assert carol.crdt.anomalies == 0

    def test_raw_reordering_would_have_caused_an_anomaly(self):
        """Control: the same scenario without the protocol produces the
        anomaly the binding prevented."""
        alice = RGA("alice")
        op1 = alice.insert_after(ROOT, "H")
        op2 = alice.insert_after(op1[2], "i")
        raw = RGA("raw")
        raw.apply_remote(op2)
        assert raw.anomalies == 1


class TestAnomalyUnderCoveredEntries:
    def build_figure2_bindings(self):
        """The Figure-2 key layout, with an OR-Set on top: the covering
        messages let a causally dependent remove bypass its add."""
        keys = {
            "p_i": (0, 1),
            "p_j": (1, 2),
            "p_k": (2, 3),
            "p_1": (0, 3),
            "p_2": (1, 3),
        }
        return {
            name: make_binding(name, ORSet, key_set, r=4)
            for name, key_set in keys.items()
        }

    def test_violation_surfaces_as_crdt_anomaly(self):
        bindings = self.build_figure2_bindings()
        p_i, p_j, p_k = bindings["p_i"], bindings["p_j"], bindings["p_k"]
        p_1, p_2 = bindings["p_1"], bindings["p_2"]

        m = p_i.broadcast_update(p_i.crdt.add("item"))
        p_j.endpoint.on_receive(m)
        m_prime = p_j.broadcast_update(p_j.crdt.remove("item"))
        m_1 = p_1.broadcast_update(p_1.crdt.add("noise1"))
        m_2 = p_2.broadcast_update(p_2.crdt.add("noise2"))

        # p_k receives the two concurrent messages, then the remove —
        # which the weakened clock wrongly lets through.
        p_k.endpoint.on_receive(m_2)
        p_k.endpoint.on_receive(m_1)
        p_k.endpoint.on_receive(m_prime)
        assert p_k.crdt.anomalies == 1

        # The late add is cancelled by the pre-removed tombstone: state
        # still converges with a replica that saw the causal order.
        p_k.endpoint.on_receive(m)
        p_j.endpoint.on_receive(m_1)
        p_j.endpoint.on_receive(m_2)
        assert p_k.crdt.value() == p_j.crdt.value() == {"noise1", "noise2"}


class TestRecoveryIntegration:
    def test_anti_entropy_repairs_partitioned_replica(self):
        alice = make_binding("alice", ORSet, (0, 1))
        bob = make_binding("bob", ORSet, (2, 3))
        # Alice makes updates that never reach Bob (partition).
        for item in ("a", "b", "c"):
            alice.broadcast_update(alice.crdt.add(item))
        assert bob.crdt.value() == set()

        session = AntiEntropySession(
            apply_first=bob.repair_from, apply_second=alice.repair_from
        )
        repaired = session.reconcile(bob.log, alice.log)
        assert repaired == 3
        assert bob.crdt.value() == {"a", "b", "c"}
        assert bob.crdt.value() == alice.crdt.value()
