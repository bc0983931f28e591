"""Replicated data types: the motivating application substrate.

The paper motivates causal broadcast with collaborative applications and
replicated data types (its refs [10, 13, 14]).  Operation-based CRDTs are
the canonical consumer: every replica broadcasts its operations, and
**causal delivery is exactly the precondition op-based CRDTs assume**
("causal delivery of updates" in Shapiro et al.'s framework).  When the
probabilistic mechanism occasionally delivers out of causal order, a CRDT
sees an operation whose premise is missing — an *anomaly*.  Each type
counts the anomalies it observes and applies a documented fallback, so
replicas still converge once the missing operations arrive; the count
turns the paper's abstract error rate into an application-visible number.

A replica is the delivery handler of the node or endpoint it runs on:
its mutators apply an operation locally and return it for the caller to
broadcast, and :meth:`OpBasedCrdt.on_delivery` applies every operation
delivered from a peer::

    orset = ORSet("alice")
    node = await create_node("alice", config, on_delivery=orset.on_delivery)
    await node.broadcast(orset.add("milk"))

Every operation is built of tuples, strings, numbers and ``None``, so it
round-trips through the wire's JSON payloads
(:class:`~repro.core.codec.JsonPayloadCodec`).  A missing operation is
repaired by the runtime's anti-entropy (:mod:`repro.net.repair`), which
delivers it like any other.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.errors import ConfigurationError
from repro.core.protocol import DeliveryRecord

__all__ = ["OpBasedCrdt", "PNCounter", "ORSet", "RGA", "ROOT"]

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
            eventually arrive.
    """

    def __init__(self, replica_id: ReplicaId) -> None:
        self.replica_id = replica_id
        self.anomalies = 0
        self._tag_counter = 0

    def fresh_tag(self) -> tuple:
        """A globally unique operation tag ``(replica_id, counter)``."""
        self._tag_counter += 1
        return (self.replica_id, self._tag_counter)

    def on_delivery(self, record: DeliveryRecord) -> None:
        """Delivery handler: apply a peer's operation.  The sender's own
        self-delivery is skipped — its mutator already applied it."""
        if not record.local:
            self.apply_remote(record.message.payload)

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


# ----------------------------------------------------------------------
# PN-Counter
# ----------------------------------------------------------------------

CounterOp = Tuple[str, ReplicaId, int]


class PNCounter(OpBasedCrdt):
    """Increment/decrement counter as two grow-only per-replica maps.

    Increments and decrements commute, so a PN-counter converges under
    *any* delivery order — causal or not.  It is the control in the
    collaborative-application experiments: over the probabilistic
    broadcast it shows zero anomalies at any violation rate, isolating
    the kinds of state for which the paper's relaxation is entirely free.
    """

    def __init__(self, replica_id: ReplicaId) -> None:
        super().__init__(replica_id)
        self._increments: Dict[ReplicaId, int] = {}
        self._decrements: Dict[ReplicaId, int] = {}

    def increment(self, amount: int = 1) -> CounterOp:
        """Add ``amount`` locally; returns the operation to broadcast."""
        if amount <= 0:
            raise ConfigurationError(f"amount must be positive, got {amount}")
        self._increments[self.replica_id] = (
            self._increments.get(self.replica_id, 0) + amount
        )
        return ("incr", self.replica_id, amount)

    def decrement(self, amount: int = 1) -> CounterOp:
        """Subtract ``amount`` locally; returns the operation to broadcast."""
        if amount <= 0:
            raise ConfigurationError(f"amount must be positive, got {amount}")
        self._decrements[self.replica_id] = (
            self._decrements.get(self.replica_id, 0) + amount
        )
        return ("decr", self.replica_id, amount)

    def apply_remote(self, operation: CounterOp) -> None:
        kind, origin, amount = operation
        if kind == "incr":
            self._increments[origin] = self._increments.get(origin, 0) + amount
        elif kind == "decr":
            self._decrements[origin] = self._decrements.get(origin, 0) + amount
        else:
            raise ConfigurationError(f"unknown counter operation {kind!r}")

    def value(self) -> int:
        return sum(self._increments.values()) - sum(self._decrements.values())

    def state_signature(self) -> Tuple[Tuple[ReplicaId, int, int], ...]:
        keys = sorted(
            set(self._increments) | set(self._decrements), key=repr
        )
        return tuple(
            (key, self._increments.get(key, 0), self._decrements.get(key, 0))
            for key in keys
        )


# ----------------------------------------------------------------------
# Observed-Remove Set
# ----------------------------------------------------------------------

Tag = Tuple[Hashable, int]
AddOp = Tuple[str, Any, Tag]
RemoveOp = Tuple[str, Any, Tuple[Tag, ...]]


class ORSet(OpBasedCrdt):
    """Observed-remove set with pre-remove tombstone repair.

    The OR-Set (Shapiro et al., the paper's ref [13]) gives add-wins
    semantics: a ``remove(e)`` deletes exactly the add-tags of ``e`` the
    remover had *observed*.  Its correctness argument assumes causal
    delivery: a remove must arrive after the adds it observed.

    Under the probabilistic broadcast a remove can overtake one of its
    observed adds.  This implementation detects that as an **anomaly**
    and applies the standard repair: the overtaken tags are remembered as
    *pre-removed tombstones*, so when the late add finally arrives it is
    cancelled instead of resurrecting the element.  With that fallback
    the type still converges; the anomaly counter measures how often the
    causal assumption was violated — the application-level metric the
    paper's error rate translates into.
    """

    def __init__(self, replica_id: Hashable) -> None:
        super().__init__(replica_id)
        self._live_tags: Dict[Any, Set[Tag]] = {}
        self._pre_removed: Set[Tag] = set()
        # Every add-tag ever applied (including ones later removed): a
        # remove naming a tag absent from this set has overtaken its add —
        # a genuine causal anomaly.  A tag that is merely no longer *live*
        # was removed by a concurrent remove, which is legitimate.
        self._seen_tags: Set[Tag] = set()

    # ------------------------------------------------------------------
    # local mutators (apply locally, return the op to broadcast)
    # ------------------------------------------------------------------

    def add(self, element: Any) -> AddOp:
        """Add ``element`` with a fresh unique tag."""
        tag = self.fresh_tag()
        self._apply_add(element, tag)
        return ("add", element, tag)

    def remove(self, element: Any) -> RemoveOp:
        """Remove the currently observed tags of ``element``.

        The tags travel as a tuple in a fixed order (a set is not a
        payload).  Removing an absent element is legal and yields no tags
        (a no-op for every replica).
        """
        observed = tuple(sorted(self._live_tags.get(element, ()), key=repr))
        self._apply_remove(element, observed)
        return ("remove", element, observed)

    # ------------------------------------------------------------------
    # remote application
    # ------------------------------------------------------------------

    def apply_remote(self, operation: Tuple) -> None:
        kind = operation[0]
        if kind == "add":
            _, element, tag = operation
            self._apply_add(element, tag)
        elif kind == "remove":
            _, element, tags = operation
            missing = set(tags) - self._seen_tags
            if missing:
                # The remove observed adds we have never seen: a causal
                # violation surfaced at the application layer.
                self.anomalies += 1
                self._pre_removed.update(missing)
                self._seen_tags.update(missing)
            self._apply_remove(element, tags)
        else:
            raise ConfigurationError(f"unknown OR-Set operation {kind!r}")

    def _apply_add(self, element: Any, tag: Tag) -> None:
        self._seen_tags.add(tag)
        if tag in self._pre_removed:
            # The remove that observed this add arrived first; honour it.
            self._pre_removed.discard(tag)
            return
        self._live_tags.setdefault(element, set()).add(tag)

    def _apply_remove(self, element: Any, tags: Tuple[Tag, ...]) -> None:
        live = self._live_tags.get(element)
        if live is None:
            return
        live.difference_update(tags)
        if not live:
            del self._live_tags[element]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, element: Any) -> bool:
        return element in self._live_tags

    def value(self) -> Set[Any]:
        """The visible set of elements."""
        return set(self._live_tags)

    def state_signature(self) -> Tuple:
        elements = tuple(
            (repr(element), tuple(sorted(map(repr, tags))))
            for element, tags in sorted(
                self._live_tags.items(), key=lambda item: repr(item[0])
            )
        )
        return (elements, tuple(sorted(map(repr, self._pre_removed))))


# ----------------------------------------------------------------------
# RGA
# ----------------------------------------------------------------------

ElementId = Tuple[int, Hashable]
InsertOp = Tuple[str, Optional[ElementId], ElementId, Any]
DeleteOp = Tuple[str, ElementId]

ROOT: Optional[ElementId] = None
"""The virtual parent of the first element of the sequence."""


class _Node:
    __slots__ = ("element_id", "value", "deleted", "children")

    def __init__(self, element_id: Optional[ElementId], value: Any) -> None:
        self.element_id = element_id
        self.value = value
        self.deleted = False
        self.children: List[ElementId] = []  # sorted descending by id


class RGA(OpBasedCrdt):
    """Replicated growable array: the sequence CRDT of collaborative text
    editing, with orphan buffering for out-of-causal-order ops.

    The RGA is the classic sequence CRDT behind collaborative editors
    (the paper's introduction names exactly this application class, and
    its ref [10] is P2P collaborative editing).  Every element has a
    unique id; ``insert_after(parent, value)`` places a new element after
    an existing one, siblings ordered by descending id (Lamport-timestamp
    pairs), and ``delete`` tombstones an element.

    Causal delivery is RGA's safety net: an insert can only be integrated
    if its parent is already present, and a delete only if its target
    is.  When the probabilistic broadcast delivers out of causal order,
    this implementation:

    * counts an **anomaly**,
    * parks orphan inserts in a waiting room keyed by the missing parent
      and integrates them the moment the parent arrives (so convergence
      is preserved),
    * remembers early deletes as pre-tombstones applied when the target
      arrives.

    The number of anomalies and the *time elements spend invisible* are
    the user-facing manifestation of the paper's error rate.
    """

    def __init__(self, replica_id: Hashable) -> None:
        super().__init__(replica_id)
        self._nodes: Dict[Optional[ElementId], _Node] = {ROOT: _Node(ROOT, None)}
        self._counter = 0
        self._orphans: Dict[ElementId, List[InsertOp]] = {}
        self._pre_tombstones: set = set()

    # ------------------------------------------------------------------
    # local mutators
    # ------------------------------------------------------------------

    def insert_after(self, parent: Optional[ElementId], value: Any) -> InsertOp:
        """Insert ``value`` after ``parent`` (``ROOT`` for the front).

        Returns the operation to broadcast.  Raises
        :class:`ConfigurationError` when the parent is unknown locally —
        local callers must reference elements they can see.
        """
        if parent not in self._nodes:
            raise ConfigurationError(f"unknown parent element {parent!r}")
        self._counter += 1
        element_id: ElementId = (self._counter, self.replica_id)
        self._integrate_insert(parent, element_id, value)
        return ("insert", parent, element_id, value)

    def delete(self, element_id: ElementId) -> DeleteOp:
        """Tombstone a visible element; returns the operation to broadcast."""
        node = self._nodes.get(element_id)
        if node is None or node.deleted:
            raise ConfigurationError(f"element {element_id!r} is not visible")
        node.deleted = True
        return ("delete", element_id)

    # ------------------------------------------------------------------
    # remote application
    # ------------------------------------------------------------------

    def apply_remote(self, operation: Tuple) -> None:
        kind = operation[0]
        if kind == "insert":
            _, parent, element_id, value = operation
            self._counter = max(self._counter, element_id[0])
            if element_id in self._nodes:
                return  # duplicate (defensive; protocol already dedups)
            if parent not in self._nodes:
                self.anomalies += 1
                self._orphans.setdefault(parent, []).append(operation)
                return
            self._integrate_insert(parent, element_id, value)
        elif kind == "delete":
            _, element_id = operation
            node = self._nodes.get(element_id)
            if node is None:
                self.anomalies += 1
                self._pre_tombstones.add(element_id)
                return
            node.deleted = True
        else:
            raise ConfigurationError(f"unknown RGA operation {kind!r}")

    def _integrate_insert(
        self, parent: Optional[ElementId], element_id: ElementId, value: Any
    ) -> None:
        node = _Node(element_id, value)
        if element_id in self._pre_tombstones:
            self._pre_tombstones.discard(element_id)
            node.deleted = True
        self._nodes[element_id] = node
        siblings = self._nodes[parent].children
        # Descending id order: later (higher-timestamp) inserts win the
        # position closest to the parent, the RGA tie-break.
        position = 0
        while position < len(siblings) and siblings[position] > element_id:
            position += 1
        siblings.insert(position, element_id)
        # Any orphans that were waiting for this element can now join.
        for orphan in self._orphans.pop(element_id, []):
            _, orphan_parent, orphan_id, orphan_value = orphan
            if orphan_id not in self._nodes:
                self._integrate_insert(orphan_parent, orphan_id, orphan_value)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def orphan_count(self) -> int:
        """Inserts currently parked because their parent has not arrived."""
        return sum(len(ops) for ops in self._orphans.values())

    def value(self) -> List[Any]:
        """The visible sequence, in document order."""
        return [self._nodes[element_id].value for element_id in self.visible_ids()]

    def visible_ids(self) -> List[ElementId]:
        """Ids of the visible elements, in document order."""
        result: List[ElementId] = []
        stack = list(reversed(self._nodes[ROOT].children))
        while stack:
            element_id = stack.pop()
            node = self._nodes[element_id]
            if not node.deleted:
                result.append(element_id)
            stack.extend(reversed(node.children))
        return result

    def as_text(self) -> str:
        """Concatenate a character sequence (editor-style usage)."""
        return "".join(str(v) for v in self.value())

    def state_signature(self) -> Tuple:
        ordered = tuple(
            (element_id, self._nodes[element_id].value)
            for element_id in self.visible_ids()
        )
        waiting = tuple(sorted((repr(p) for p in self._orphans), key=str))
        return (ordered, waiting, tuple(sorted(map(repr, self._pre_tombstones))))
