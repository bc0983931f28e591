"""Ground-truth causality oracle (Section 5.4.1 of the paper).

Measuring the error rate of the probabilistic mechanism requires knowing,
for every delivery it performs, whether the message really was causally
ready.  The paper does this with full vector clocks maintained *inside the
simulator* (never visible to the protocol under test), and so do we.

The subtlety the paper calls out: a perfect vector clock cannot classify
every delivery once a violation has happened.  When the mechanism
wrongly delivers ``m``, the oracle max-merges ``m``'s true vector into the
node's true clock so that the node's state stays consistent — but from
then on, the causal predecessors of ``m`` that were skipped appear
*already known*.  When such a "missing" message finally arrives and the
mechanism delivers it, the oracle cannot tell whether causal order was
respected for it.  The paper therefore reports two bounds:

* ``ε_min`` counts only **proven** violations (assumes every ambiguous
  late delivery was causally ordered);
* ``ε_max`` additionally counts every ambiguous delivery as a violation.

:class:`CausalityOracle` implements exactly this classification and keeps
per-node and global tallies.  True vectors are dense NumPy arrays over
node *slots*; slots are assigned at registration so churn (nodes joining
later) is supported up to a fixed capacity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.core.errors import ConfigurationError, SimulationError, UnknownProcessError

__all__ = ["DeliveryVerdict", "OracleCounters", "ClassifiedDelivery", "CausalityOracle"]

ProcessId = Hashable
MessageId = Tuple[ProcessId, int]


class DeliveryVerdict(enum.Enum):
    """Classification of one delivery performed by the mechanism under test."""

    CORRECT = "correct"
    """The message was causally ready: no violation."""

    VIOLATION = "violation"
    """Proven causal-order violation: some predecessor was missing."""

    AMBIGUOUS = "ambiguous"
    """A message whose content an earlier merge marked as already known;
    the vector-clock oracle cannot decide (counted in ε_max only)."""


@dataclass
class OracleCounters:
    """Delivery tallies; ``deliveries = correct + violations + ambiguous``."""

    deliveries: int = 0
    correct: int = 0
    violations: int = 0
    ambiguous: int = 0

    @property
    def eps_min(self) -> float:
        """Lower bound on the error rate (proven violations only)."""
        return self.violations / self.deliveries if self.deliveries else 0.0

    @property
    def eps_max(self) -> float:
        """Upper bound on the error rate (ambiguous counted as violations)."""
        if not self.deliveries:
            return 0.0
        return (self.violations + self.ambiguous) / self.deliveries

    def add(self, other: "OracleCounters") -> None:
        """Accumulate another tally into this one."""
        self.deliveries += other.deliveries
        self.correct += other.correct
        self.violations += other.violations
        self.ambiguous += other.ambiguous


@dataclass(frozen=True)
class ClassifiedDelivery:
    """The oracle's answer for one delivery."""

    verdict: DeliveryVerdict
    latency_ms: float
    """Time between the send event and this delivery."""


@dataclass
class _TrueRecord:
    vector: np.ndarray
    sender_slot: int
    send_time: float
    remaining: int


class CausalityOracle:
    """Maintains ground-truth vector clocks beside the system under test.

    Args:
        capacity: maximum number of nodes that will ever register (initial
            membership plus all future joins).  True vectors are dense
            arrays of this length.
    """

    def __init__(self, capacity: int, track_receptions: bool = False) -> None:
        if capacity <= 0:
            raise ConfigurationError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._slots: Dict[ProcessId, int] = {}
        self._true_clock: Dict[ProcessId, np.ndarray] = {}
        self._records: Dict[MessageId, _TrueRecord] = {}
        self.totals = OracleCounters()
        self.per_node: Dict[ProcessId, OracleCounters] = {}
        self._track_receptions = track_receptions
        self._reception_clock: Dict[ProcessId, np.ndarray] = {}
        self.receptions_total = 0
        self.receptions_out_of_order = 0

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    @property
    def capacity(self) -> int:
        """Slots, and the length of every true vector."""
        return self._capacity

    def register_node(
        self, node_id: ProcessId, initial_knowledge: Optional[np.ndarray] = None
    ) -> int:
        """Assign a slot to a (possibly late-joining) node.

        ``initial_knowledge`` seeds the node's ground-truth clock; a node
        joining with a state transfer passes the global send-count vector
        so the oracle knows it (transitively) depends on all prior
        messages.
        """
        if node_id in self._slots:
            raise SimulationError(f"node {node_id!r} already registered with the oracle")
        if len(self._slots) >= self._capacity:
            raise SimulationError(
                f"oracle capacity {self._capacity} exhausted; raise `capacity`"
            )
        slot = len(self._slots)
        self._slots[node_id] = slot
        clock = np.zeros(self._capacity, dtype=np.int64)
        if initial_knowledge is not None:
            if initial_knowledge.shape != clock.shape:
                raise ConfigurationError(
                    f"initial knowledge has shape {initial_knowledge.shape}, "
                    f"expected {clock.shape}"
                )
            clock[:] = initial_knowledge
        self._true_clock[node_id] = clock
        if self._track_receptions:
            self._reception_clock[node_id] = clock.copy()
        self.per_node[node_id] = OracleCounters()
        return slot

    def slot_of(self, node_id: ProcessId) -> int:
        """Dense slot index assigned to ``node_id`` at registration."""
        try:
            return self._slots[node_id]
        except KeyError:
            raise UnknownProcessError(node_id) from None

    # ------------------------------------------------------------------
    # event hooks
    # ------------------------------------------------------------------

    def on_send(
        self, node_id: ProcessId, message_id: MessageId, now: float, fanout: int
    ) -> None:
        """Record a broadcast: the sender's true clock ticks its own slot
        and the message's true vector is the resulting snapshot.

        ``fanout`` is the number of remote deliveries expected; the true
        vector is freed once that many deliveries were classified.
        """
        if message_id in self._records:
            raise SimulationError(f"message {message_id!r} sent twice")
        slot = self.slot_of(node_id)
        clock = self._true_clock[node_id]
        clock[slot] += 1
        if self._track_receptions:
            # The sender implicitly "receives" its own message.
            self._reception_clock[node_id][slot] += 1
        self._records[message_id] = _TrueRecord(
            vector=clock.copy(), sender_slot=slot, send_time=now, remaining=fanout
        )

    def classify_delivery(
        self, node_id: ProcessId, message_id: MessageId, now: float
    ) -> ClassifiedDelivery:
        """Classify one delivery by the mechanism under test and update the
        node's true clock exactly as Section 5.4.1 prescribes."""
        try:
            record = self._records[message_id]
        except KeyError:
            raise SimulationError(
                f"delivery of unknown message {message_id!r} (never sent, or freed)"
            ) from None
        clock = self._true_clock[self._resolve(node_id)]
        truth = record.vector
        sender = record.sender_slot

        if clock[sender] >= truth[sender]:
            # An earlier merge (caused by a wrong delivery of some causal
            # successor) already marked this message as known: the perfect
            # mechanism would have dropped it, and its causal status is
            # undecidable from vector clocks alone.
            verdict = DeliveryVerdict.AMBIGUOUS
            np.maximum(clock, truth, out=clock)
        else:
            deficits = int(np.count_nonzero(clock < truth))
            fifo_ok = clock[sender] == truth[sender] - 1
            if fifo_ok and deficits == 1:
                verdict = DeliveryVerdict.CORRECT
                clock[sender] += 1
            else:
                verdict = DeliveryVerdict.VIOLATION
                np.maximum(clock, truth, out=clock)

        self._tally(node_id, verdict)
        record.remaining -= 1
        if record.remaining <= 0:
            del self._records[message_id]
        return ClassifiedDelivery(verdict=verdict, latency_ms=now - record.send_time)

    def observe_reception(self, node_id: ProcessId, message_id: MessageId) -> bool:
        """Record the *arrival* (``rec(m)``) of a message and report whether
        the arrival itself respected causal order.

        This measures the system property the paper calls ``P_nc``: the
        probability that a message is received after a message it causally
        precedes.  It is independent of the ordering mechanism under test
        (which acts between reception and delivery).  Requires the oracle
        to have been built with ``track_receptions=True``.

        Returns True when the reception was causally ordered.
        """
        if not self._track_receptions:
            raise SimulationError("oracle was not built with track_receptions=True")
        record = self._records.get(message_id)
        if record is None:
            raise SimulationError(
                f"reception of unknown message {message_id!r} (never sent, or freed)"
            )
        clock = self._reception_clock[self._resolve(node_id)]
        truth = record.vector
        sender = record.sender_slot
        deficits = int(np.count_nonzero(clock < truth))
        ordered = deficits == 1 and clock[sender] == truth[sender] - 1
        np.maximum(clock, truth, out=clock)
        self.receptions_total += 1
        if not ordered:
            self.receptions_out_of_order += 1
        return ordered

    @property
    def p_nc_measured(self) -> float:
        """Measured fraction of out-of-causal-order receptions (P_nc)."""
        if not self.receptions_total:
            return 0.0
        return self.receptions_out_of_order / self.receptions_total

    def send_time_of(self, message_id: MessageId) -> Optional[float]:
        """Send time of a message whose record is still live, else None
        (a freed record means its delivery budget is already settled)."""
        record = self._records.get(message_id)
        return None if record is None else record.send_time

    def adjust_fanout(self, message_id: MessageId, delta: int) -> None:
        """Adjust a message's expected delivery count (e.g. a receiver left
        before the message arrived)."""
        record = self._records.get(message_id)
        if record is None:
            return
        record.remaining += delta
        if record.remaining <= 0:
            del self._records[message_id]

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------

    @property
    def outstanding_messages(self) -> int:
        """Messages with deliveries still expected (0 after a full drain)."""
        return len(self._records)

    def true_clock_of(self, node_id: ProcessId) -> np.ndarray:
        """Copy of a node's ground-truth vector clock."""
        return self._true_clock[self._resolve(node_id)].copy()

    def _resolve(self, node_id: ProcessId) -> ProcessId:
        if node_id not in self._true_clock:
            raise UnknownProcessError(node_id)
        return node_id

    def _tally(self, node_id: ProcessId, verdict: DeliveryVerdict) -> None:
        for counters in (self.totals, self.per_node[node_id]):
            counters.deliveries += 1
            if verdict is DeliveryVerdict.CORRECT:
                counters.correct += 1
            elif verdict is DeliveryVerdict.VIOLATION:
                counters.violations += 1
            else:
                counters.ambiguous += 1
