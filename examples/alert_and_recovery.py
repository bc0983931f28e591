"""Delivery-error alerts on a replicated shopping list (Section 4.2).

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
3. when the late addition arrives, Algorithm 4 raises its alert on it;
4. the OR-Set's pre-removed tombstone cancels the late addition: once
   p_j has the concurrent messages too, both replicas are identical
   without any exchange.  Recovery would matter for a message that
   never arrived, and a networked node repairs that on the wire
   (``repro.net.repair``'s digests and gap pulls).

Run:  python examples/alert_and_recovery.py
"""

from repro.core import (
    BasicAlertDetector,
    CausalBroadcastEndpoint,
    ProbabilisticCausalClock,
)
from repro.crdt import ORSet

R = 4
KEYS = {
    "p_i": (0, 1),
    "p_j": (1, 2),
    "p_k": (2, 3),
    "p_1": (0, 3),
    "p_2": (1, 3),
}


def make_endpoint(name, replica):
    """The endpoint ``replica`` runs on: the replica is its delivery handler."""
    return CausalBroadcastEndpoint(
        process_id=name,
        clock=ProbabilisticCausalClock(R, KEYS[name]),
        detector=BasicAlertDetector(),
        deliver_callback=replica.on_delivery,
    )


def main() -> None:
    print(__doc__)
    lists = {name: ORSet(name) for name in KEYS}
    nodes = {name: make_endpoint(name, lists[name]) for name in KEYS}
    p_i, p_j, p_k = nodes["p_i"], nodes["p_j"], nodes["p_k"]
    p_1, p_2 = nodes["p_1"], nodes["p_2"]

    # The causal chain: add at p_i, observed removal at p_j.
    m = p_i.broadcast(lists["p_i"].add("milk"))
    p_j.on_receive(m)
    m_prime = p_j.broadcast(lists["p_j"].remove("milk"))
    # Two concurrent messages jointly covering f(p_i) = {0, 1}.
    m_1 = p_1.broadcast(lists["p_1"].add("bread"))
    m_2 = p_2.broadcast(lists["p_2"].add("eggs"))

    print("p_k receives: m_2, m_1, then the removal m' (the addition m is late)")
    p_k.on_receive(m_2)
    p_k.on_receive(m_1)
    records = p_k.on_receive(m_prime)
    print(f"  -> m' delivered early: {[r.message.payload[0] for r in records]}")
    print(f"  -> OR-Set anomaly recorded: {lists['p_k'].anomalies} (remove before its add)")
    print(f"  -> shopping list at p_k: {sorted(lists['p_k'].value())}")

    print("\nthe late addition m finally arrives:")
    (late,) = p_k.on_receive(m)
    print(f"  -> Algorithm 4 alert on its delivery: {late.alert}")
    assert late.alert, "the alert must fire on the bypassed message"
    print(f"  -> the pre-removed tombstone cancels it: 'milk' in p_k's list: "
          f"{'milk' in lists['p_k']}")
    assert "milk" not in lists["p_k"]

    print("\np_j receives the concurrent messages too; nothing else is exchanged:")
    p_j.on_receive(m_1)
    p_j.on_receive(m_2)
    print(f"  -> p_k list: {sorted(lists['p_k'].value())}")
    print(f"  -> p_j list: {sorted(lists['p_j'].value())}")
    assert lists["p_k"].state_signature() == lists["p_j"].state_signature()
    print("\nreplicas identical without recovery — the add-wins tombstone kept")
    print("'milk' deleted even though its removal overtook its addition.")


if __name__ == "__main__":
    main()
