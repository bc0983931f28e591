"""Delivery-error alerts driving anti-entropy recovery (Section 4.2).

The paper's second contribution: Algorithms 4/5 raise an alert exactly
when a delivery *may* have violated causal order, so the application can
run its (costly) recovery procedure only when needed — "in case there is
no alert, we are sure there is no error".

This example replays the paper's Figure 2 error scenario with a real
replicated shopping list (an OR-Set) on top:

1. p_i adds "milk"; p_j sees it and removes it; two concurrent messages
   from p_1 and p_2 cover p_i's vector entries at p_k;
2. p_k wrongly delivers the removal before the addition — the OR-Set
   records an anomaly;
3. when the late addition arrives, Algorithm 4 raises its alert;
4. the alert triggers an anti-entropy session with a healthy peer, after
   which both replicas are provably identical.

Run:  python examples/alert_and_recovery.py
"""

from repro.core import (
    BasicAlertDetector,
    CausalBroadcastEndpoint,
    ProbabilisticCausalClock,
)
from repro.crdt import AntiEntropySession, CrdtBinding, ORSet

R = 4
KEYS = {
    "p_i": (0, 1),
    "p_j": (1, 2),
    "p_k": (2, 3),
    "p_1": (0, 3),
    "p_2": (1, 3),
}


def make_node(name):
    crdt = ORSet(name)

    def factory(callback):
        return CausalBroadcastEndpoint(
            process_id=name,
            clock=ProbabilisticCausalClock(R, KEYS[name]),
            detector=BasicAlertDetector(),
            deliver_callback=callback,
        )

    return CrdtBinding.attach(factory, crdt)


def main() -> None:
    print(__doc__)
    nodes = {name: make_node(name) for name in KEYS}
    p_i, p_j, p_k = nodes["p_i"], nodes["p_j"], nodes["p_k"]
    p_1, p_2 = nodes["p_1"], nodes["p_2"]

    # The causal chain: add at p_i, observed removal at p_j.
    m = p_i.broadcast_update(p_i.crdt.add("milk"))
    p_j.endpoint.on_receive(m)
    m_prime = p_j.broadcast_update(p_j.crdt.remove("milk"))
    # Two concurrent messages jointly covering f(p_i) = {0, 1}.
    m_1 = p_1.broadcast_update(p_1.crdt.add("bread"))
    m_2 = p_2.broadcast_update(p_2.crdt.add("eggs"))

    print("p_k receives: m_2, m_1, then the removal m' (the addition m is late)")
    p_k.endpoint.on_receive(m_2)
    p_k.endpoint.on_receive(m_1)
    records = p_k.endpoint.on_receive(m_prime)
    print(f"  -> m' delivered early: {[r.message.payload[0] for r in records]}")
    print(f"  -> OR-Set anomaly recorded: {p_k.crdt.anomalies} (remove before its add)")
    print(f"  -> shopping list at p_k: {sorted(p_k.crdt.value())}")

    print("\nthe late addition m finally arrives:")
    (late,) = p_k.endpoint.on_receive(m)
    print(f"  -> Algorithm 4 alert on its delivery: {late.alert}")
    assert late.alert, "the alert must fire on the bypassed message"

    print("\nalert -> run anti-entropy with a healthy peer (p_j):")
    # Bring p_j up to date with the concurrent messages first.
    p_j.endpoint.on_receive(m_1)
    p_j.endpoint.on_receive(m_2)
    session = AntiEntropySession(
        apply_first=p_k.repair_from, apply_second=p_j.repair_from
    )
    repaired = session.reconcile(p_k.log, p_j.log)
    print(f"  -> messages exchanged during recovery: {repaired}")
    print(f"  -> p_k list: {sorted(p_k.crdt.value())}")
    print(f"  -> p_j list: {sorted(p_j.crdt.value())}")
    assert p_k.crdt.value() == p_j.crdt.value()
    print("\nreplicas identical after recovery — the add-wins tombstone kept")
    print("'milk' deleted even though its removal overtook its addition.")


if __name__ == "__main__":
    main()
