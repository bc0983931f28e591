"""Integration: CRDTs running over the causal broadcast protocol.

These tests connect the two halves of the library — the protocol machine
(core) and the data types (crdt) — without the simulator: each replica is
the delivery handler of a bare endpoint, and endpoints exchange messages
directly, with controlled (re)ordering.
"""

from typing import NamedTuple

from repro.core.clocks import ProbabilisticCausalClock
from repro.core.protocol import CausalBroadcastEndpoint
from repro.crdt import OpBasedCrdt, ORSet, RGA, ROOT


class Replica(NamedTuple):
    crdt: OpBasedCrdt
    endpoint: CausalBroadcastEndpoint


def make_replica(name, crdt_factory, keys, r=8):
    """A replica and the endpoint whose delivery handler it is."""
    crdt = crdt_factory(name)
    endpoint = CausalBroadcastEndpoint(
        process_id=name,
        clock=ProbabilisticCausalClock(r, keys),
        deliver_callback=crdt.on_delivery,
    )
    return Replica(crdt, endpoint)


class TestBindingBasics:
    def test_local_update_broadcast_and_apply(self):
        alice = make_replica("alice", ORSet, (0, 1))
        bob = make_replica("bob", ORSet, (2, 3))
        op = alice.crdt.add("milk")
        message = alice.endpoint.broadcast(op)
        bob.endpoint.on_receive(message)
        assert bob.crdt.value() == {"milk"}
        assert alice.crdt.value() == {"milk"}


class TestCausalProtection:
    def test_causal_delivery_prevents_rga_anomaly(self):
        """With the protocol in between, a causally dependent insert is
        queued (not applied) until its parent arrives: zero anomalies
        even under network reordering."""
        alice = make_replica("alice", RGA, (0, 1))
        bob = make_replica("bob", RGA, (2, 3))
        carol = make_replica("carol", RGA, (4, 5))

        op1 = alice.crdt.insert_after(ROOT, "H")
        m1 = alice.endpoint.broadcast(op1)
        bob.endpoint.on_receive(m1)
        op2 = bob.crdt.insert_after(op1[2], "i")
        m2 = bob.endpoint.broadcast(op2)

        # Carol receives m2 first: the protocol holds it back.
        carol.endpoint.on_receive(m2)
        assert carol.crdt.as_text() == ""
        assert carol.crdt.anomalies == 0
        carol.endpoint.on_receive(m1)
        assert carol.crdt.as_text() == "Hi"
        assert carol.crdt.anomalies == 0

    def test_raw_reordering_would_have_caused_an_anomaly(self):
        """Control: the same scenario without the protocol produces the
        anomaly the protocol prevented."""
        alice = RGA("alice")
        op1 = alice.insert_after(ROOT, "H")
        op2 = alice.insert_after(op1[2], "i")
        raw = RGA("raw")
        raw.apply_remote(op2)
        assert raw.anomalies == 1


class TestAnomalyUnderCoveredEntries:
    def build_figure2_replicas(self):
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
            name: make_replica(name, ORSet, key_set, r=4)
            for name, key_set in keys.items()
        }

    def test_violation_surfaces_as_crdt_anomaly(self):
        replicas = self.build_figure2_replicas()
        p_i, p_j, p_k = replicas["p_i"], replicas["p_j"], replicas["p_k"]
        p_1, p_2 = replicas["p_1"], replicas["p_2"]

        m = p_i.endpoint.broadcast(p_i.crdt.add("item"))
        p_j.endpoint.on_receive(m)
        m_prime = p_j.endpoint.broadcast(p_j.crdt.remove("item"))
        m_1 = p_1.endpoint.broadcast(p_1.crdt.add("noise1"))
        m_2 = p_2.endpoint.broadcast(p_2.crdt.add("noise2"))

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
