"""repro — Probabilistic Causal Message Ordering (Mostefaoui & Weiss, PaCT 2017).

A production-quality reproduction of the paper's probabilistic causal
broadcast mechanism, with:

* :mod:`repro.core` — the deployable library: the (n, r, k) clock family,
  key-space assignment (Algorithm 3), the broadcast/delivery protocol
  (Algorithms 1–2), delivery-error detectors (Algorithms 4–5), and the
  closed-form error analysis (Section 5.3);
* :mod:`repro.sim` — the event-based evaluation environment of Section
  5.4 (network models, workloads, the ε_min/ε_max oracle, the
  experiment runner, and the virtual-time harness that runs the shipping
  nodes — dissemination and churn included — under a seeded clock);
* :mod:`repro.crdt` — replicated data types from the paper's motivating
  application domain, consuming causal delivery;
* :mod:`repro.analysis` — statistics, parameter sweeps, and table/series
  rendering for the experiment harness.

Quickstart (simulation)::

    from repro import SimulationConfig, run_simulation
    result = run_simulation(SimulationConfig(n_nodes=50, r=100, k=4,
                                             duration_ms=30_000, seed=1))
    print(result.summary())

Quickstart (networked node, the :mod:`repro.api` factory)::

    from repro import NodeConfig, create_node
    node = await create_node("alice", NodeConfig(r=128, k=3))
    node.add_peer(("127.0.0.1", 9001))
    await node.broadcast("hello")
"""

from repro.api import (
    NodeConfig,
    create_clock,
    create_detector,
    create_endpoint,
    create_node,
)
from repro.core import (
    BasicAlertDetector,
    BloomCausalClock,
    CausalBroadcastEndpoint,
    DeliveryRecord,
    EntryVectorClock,
    LamportCausalClock,
    Message,
    NullDetector,
    PlausibleCausalClock,
    ProbabilisticCausalClock,
    RandomKeyAssigner,
    RefinedAlertDetector,
    Timestamp,
    VectorCausalClock,
    optimal_k,
    p_error,
    p_fp,
)
from repro.sim import SimulationConfig, SimulationResult, run_simulation

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # the assembly API — the documented way to build a participant
    "NodeConfig",
    "create_clock",
    "create_detector",
    "create_endpoint",
    "create_node",
    # most-used core names, re-exported for convenience
    "Timestamp",
    "EntryVectorClock",
    "ProbabilisticCausalClock",
    "PlausibleCausalClock",
    "LamportCausalClock",
    "VectorCausalClock",
    "BloomCausalClock",
    "RandomKeyAssigner",
    "CausalBroadcastEndpoint",
    "Message",
    "DeliveryRecord",
    "BasicAlertDetector",
    "RefinedAlertDetector",
    "NullDetector",
    "p_error",
    "p_fp",
    "optimal_k",
    # simulation entry points
    "SimulationConfig",
    "SimulationResult",
    "run_simulation",
]
