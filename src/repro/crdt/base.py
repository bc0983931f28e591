"""Operation-based CRDT substrate.

The paper motivates causal broadcast with collaborative applications and
replicated data types (its refs [10, 13, 14]).  Operation-based CRDTs are
the canonical consumer: every replica broadcasts its operations, and
**causal delivery is exactly the precondition op-based CRDTs assume**
("causal delivery of updates" in Shapiro et al.'s framework).  When the
probabilistic mechanism occasionally delivers out of causal order, a CRDT
sees an operation whose premise is missing — an *anomaly*.

The types here make that observable:

* :class:`OpBasedCrdt` — interface: local updates return operations;
  remote operations are applied on delivery; every implementation counts
  the anomalies it detects and applies a documented fallback, so replicas
  still converge after an anti-entropy repair.
* :class:`CrdtBinding` — glue that runs a CRDT over a
  :class:`~repro.core.protocol.CausalBroadcastEndpoint`: local mutators
  broadcast, deliveries apply, and a :class:`~repro.crdt.log.DeliveryLog`
  feeds anti-entropy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Hashable, Optional

from repro.core.protocol import CausalBroadcastEndpoint, DeliveryRecord, Message
from repro.crdt.log import DeliveryLog

__all__ = ["OpBasedCrdt", "CrdtBinding"]

ReplicaId = Hashable


class OpBasedCrdt(ABC):
    """An operation-based replicated data type.

    Concrete types expose domain mutators (``add``, ``insert``, …) that
    update local state and return the operation payload to broadcast;
    :meth:`apply_remote` integrates a peer's operation.

    Attributes:
        replica_id: this replica's identity (used for unique tags).
        anomalies: count of operations whose causal premise was missing
            when they were applied — the observable cost of a causal-order
            violation.  Implementations document their fallback behaviour;
            all fallbacks preserve convergence once the missing operations
            eventually arrive (or are repaired by anti-entropy).
    """

    def __init__(self, replica_id: ReplicaId) -> None:
        self.replica_id = replica_id
        self.anomalies = 0
        self._tag_counter = 0

    def fresh_tag(self) -> tuple:
        """A globally unique operation tag ``(replica_id, counter)``."""
        self._tag_counter += 1
        return (self.replica_id, self._tag_counter)

    @abstractmethod
    def apply_remote(self, operation: Any) -> None:
        """Integrate one operation produced by a peer replica.

        Must be idempotent per unique operation tag where the type's
        semantics require it (the protocol layer already deduplicates
        whole messages, so per-message idempotence is not required).
        """

    @abstractmethod
    def value(self) -> Any:
        """The current queryable state (a plain Python value)."""

    def state_signature(self) -> Any:
        """A hashable digest of the state, used by convergence checks.

        Defaults to ``repr(self.value())``; override when ``value()`` is
        not cheaply comparable.
        """
        return repr(self.value())


class CrdtBinding:
    """Runs an op-based CRDT on top of a causal broadcast endpoint.

    Wires three layers together:

    * mutators call :meth:`broadcast_update` with the operation payload;
    * the endpoint's deliveries (local and remote) are routed into
      :meth:`OpBasedCrdt.apply_remote`;
    * every delivered message is recorded in a :class:`DeliveryLog` so an
      anti-entropy session can repair divergence after a violation.

    Note the endpoint must have been constructed with
    ``deliver_callback=binding.on_delivery`` — use :meth:`attach` to build
    the coupling in the right order::

        binding = CrdtBinding.attach(endpoint_factory, crdt)
    """

    def __init__(
        self,
        crdt: OpBasedCrdt,
        log_size: Optional[int] = None,
    ) -> None:
        self.crdt = crdt
        self.endpoint: Optional[CausalBroadcastEndpoint] = None
        self.log = DeliveryLog(max_entries=log_size)
        self.alerts = 0

    @classmethod
    def attach(
        cls,
        endpoint_factory: Callable[[Callable[[DeliveryRecord], None]], CausalBroadcastEndpoint],
        crdt: OpBasedCrdt,
        log_size: Optional[int] = None,
    ) -> "CrdtBinding":
        """Create the binding and its endpoint together.

        ``endpoint_factory`` receives the delivery callback and returns
        the endpoint (whose ``deliver_callback`` must be that callback).
        """
        binding = cls(crdt, log_size=log_size)
        binding.endpoint = endpoint_factory(binding.on_delivery)
        return binding

    def broadcast_update(self, operation: Any) -> Message:
        """Broadcast one locally generated operation.

        The local application of the operation is the mutator's job (the
        op-based CRDT pattern: update locally, then broadcast); the
        endpoint's local self-delivery is recorded in the log only.
        """
        if self.endpoint is None:
            raise RuntimeError("binding has no endpoint; use CrdtBinding.attach()")
        return self.endpoint.broadcast(payload=operation)

    def on_delivery(self, record: DeliveryRecord) -> None:
        """Endpoint delivery callback: apply remote operations."""
        self.log.record(record.message)
        if record.alert:
            self.alerts += 1
        if record.local:
            return
        self.crdt.apply_remote(record.message.payload)

    def repair_from(self, message: Message) -> None:
        """Anti-entropy hook: apply a message obtained out of band."""
        if message.message_id not in self.log:
            self.log.record(message)
            self.crdt.apply_remote(message.payload)
