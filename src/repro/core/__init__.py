"""Core library: the paper's probabilistic causal ordering mechanism.

This subpackage is deployment-ready and simulator-independent: logical
clocks of the (n, r, k) family, key-space assignment (Algorithm 3),
the broadcast/delivery protocol machine (Algorithms 1–2), the delivery
error detectors (Algorithms 4–5), and the closed-form error analysis of
Section 5.3.
"""

from repro.core.clocks import (
    BloomCausalClock,
    EntryVectorClock,
    LamportCausalClock,
    PlausibleCausalClock,
    ProbabilisticCausalClock,
    Timestamp,
    VectorCausalClock,
)
from repro.core.combinatorics import (
    binomial,
    num_key_sets,
    rank_lex,
    unrank_lex,
)
from repro.core.detector import (
    BasicAlertDetector,
    DeliveryErrorDetector,
    DetectorStats,
    NullDetector,
    RefinedAlertDetector,
)
from repro.core.errors import (
    ConfigurationError,
    MembershipError,
    RankOutOfRangeError,
    ReproError,
    SimulationError,
    UnknownProcessError,
)
from repro.core.keyspace import (
    BalancedLoadKeyAssigner,
    HashKeyAssigner,
    KeyAssigner,
    KeyAssignment,
    PerfectKeyAssigner,
    RandomKeyAssigner,
    SequentialKeyAssigner,
)
from repro.core.pending import PendingBuffer
from repro.core.protocol import (
    CausalBroadcastEndpoint,
    DeliveryRecord,
    EndpointStats,
    Message,
)
from repro.core.theory import (
    expected_concurrency,
    optimal_k,
    optimal_k_int,
    p_entry_covered,
    p_error,
    p_fp,
    p_reorder_same_sender,
    p_violation_bound,
    predicted_error_series,
    timestamp_overhead_bits,
)

__all__ = [
    # clocks
    "Timestamp",
    "EntryVectorClock",
    "ProbabilisticCausalClock",
    "PlausibleCausalClock",
    "LamportCausalClock",
    "VectorCausalClock",
    "BloomCausalClock",
    # combinatorics
    "binomial",
    "num_key_sets",
    "unrank_lex",
    "rank_lex",
    # keyspace
    "KeyAssignment",
    "KeyAssigner",
    "RandomKeyAssigner",
    "SequentialKeyAssigner",
    "PerfectKeyAssigner",
    "BalancedLoadKeyAssigner",
    "HashKeyAssigner",
    # pending buffer
    "PendingBuffer",
    # protocol
    "Message",
    "DeliveryRecord",
    "EndpointStats",
    "CausalBroadcastEndpoint",
    # detectors
    "DeliveryErrorDetector",
    "NullDetector",
    "BasicAlertDetector",
    "RefinedAlertDetector",
    "DetectorStats",
    # theory
    "p_entry_covered",
    "p_error",
    "p_fp",
    "optimal_k",
    "optimal_k_int",
    "predicted_error_series",
    "expected_concurrency",
    "p_reorder_same_sender",
    "p_violation_bound",
    "timestamp_overhead_bits",
    # errors
    "ReproError",
    "ConfigurationError",
    "RankOutOfRangeError",
    "UnknownProcessError",
    "SimulationError",
    "MembershipError",
]
