"""Logical clocks for causal ordering: the (n, r, k) family.

The paper frames known clock schemes as points of a single design space
described by a triplet ``(a, b, c)`` — system size, vector size, entries
per process:

* Lamport clock                     ``(n, 1, 1)``
* vector clock (Fidge/Mattern)      ``(n, n, 1)``
* plausible clock (Torres-Rojas)    ``(n, r, 1)``
* **this paper**                    ``(n, r, k)``

All four are provided here as configurations of one generic mechanism,
:class:`EntryVectorClock`, which implements the paper's Algorithm 1
(timestamping a broadcast) and Algorithm 2 (the delivery condition).  A
process ``p_i`` owns a set of entries ``f(p_i)``; sending increments all
owned entries and attaches the vector; a message ``m`` from ``p_j`` is
deliverable at ``p_i`` once::

    forall x in  f(p_j):  V_i[x] >= m.V[x] - 1
    forall x not in f(p_j):  V_i[x] >= m.V[x]

and delivering it increments the ``f(p_j)`` entries of ``V_i``.

Vectors are NumPy ``int64`` arrays: the delivery test is a single
vectorised comparison, which keeps large simulations tractable.  A
:class:`Timestamp` precomputes the *adjusted* threshold vector
(``m.V`` minus one at the sender's keys) when it is created, so the
delivery test at every one of the N receivers is one ``>=``/``all`` pass.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Hashable, Iterable, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.core.errors import ConfigurationError

__all__ = [
    "Timestamp",
    "EntryVectorClock",
    "ProbabilisticCausalClock",
    "PlausibleCausalClock",
    "LamportCausalClock",
    "VectorCausalClock",
    "BloomCausalClock",
    "SCHEMES",
    "scheme_class",
]

ProcessId = Hashable

# Leads every Bloom-clock key preimage: a deployment that wants a key
# family disjoint from another's changes it.
_BLOOM_SALT = 0


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Timestamp:
    """The control information a broadcast message carries.

    Attributes:
        vector: the sender's R-entry vector right after Algorithm 1's
            increment (read-only array; ``m.V`` in the paper).
        sender_keys: the sender's entry set ``f(p_j)`` (ascending tuple).
            Carrying the keys on the message is what lets a receiver apply
            the delivery condition without knowing the membership.
        seq: per-sender sequence number (1-based); used for duplicate
            suppression and by the ground-truth oracle, not by the
            probabilistic delivery condition itself.

    ``adjusted`` (the threshold ``m.V`` with 1 subtracted at
    ``sender_keys`` — the delivery test is ``V_i >= adjusted``
    elementwise) and ``sender_keys_array`` are **lazy**: a timestamp that
    is only relayed, stored, or encoded never pays the two array
    allocations; the first delivery-condition check materialises them
    once and caches the result.
    """

    vector: np.ndarray
    sender_keys: Tuple[int, ...]
    seq: int

    @cached_property
    def sender_keys_array(self) -> np.ndarray:
        """``sender_keys`` as an index array (built on first use)."""
        return _freeze(np.asarray(self.sender_keys, dtype=np.intp))

    @cached_property
    def adjusted(self) -> np.ndarray:
        """Delivery threshold: ``vector`` minus one at the sender's keys."""
        adjusted = self.vector.copy()
        adjusted[self.sender_keys_array] -= 1
        return _freeze(adjusted)

    @property
    def size(self) -> int:
        """Vector size R."""
        return int(self.vector.shape[0])

    def as_tuple(self) -> Tuple[int, ...]:
        """The timestamp vector as a plain tuple of ints."""
        return tuple(int(v) for v in self.vector)

    def dominates_on(
        self, other: "Timestamp", entries: Union[np.ndarray, Iterable[int]]
    ) -> bool:
        """True when ``self.vector >= other.vector`` on every given entry.

        This runs inside the Algorithm 5 refined-detector check, once
        per recent-list entry on every pre-delivery test.  ``entries``
        may be an index array — e.g. a timestamp's
        ``sender_keys_array`` — which skips the conversion.  Small index
        sets (the K sender keys) take a scalar loop — fancy indexing
        costs more than it saves below ~8 entries — while large sets get
        one vectorised comparison.
        """
        if isinstance(entries, np.ndarray):
            index = entries
        else:
            index = np.fromiter(entries, dtype=np.intp)
        if index.size == 0:
            return True
        if index.size <= 8:
            mine, theirs = self.vector, other.vector
            for entry in index:
                if mine[entry] < theirs[entry]:
                    return False
            return True
        return bool(np.all(self.vector[index] >= other.vector[index]))


class EntryVectorClock:
    """Per-process state of the generic (R, K) causal-ordering mechanism.

    One instance lives at each process.  It is *not* thread-safe: in the
    intended uses (a single-threaded protocol endpoint, or the
    discrete-event simulator) each instance is driven by one event loop.

    Args:
        r: vector size (the paper's ``R``).
        own_keys: this process's entry set ``f(p_i)``; ascending iterable
            of ints in ``[0, R)``.

    A family in :data:`SCHEMES` declares what it pins and needs as class
    attributes, which the simulator reads instead of matching on scheme
    names (DESIGN.md §9):

    * ``fixed_k`` / ``fixed_r`` — K or R pinned by the family (``None``:
      a free parameter, or R = N for a dense-index family);
    * ``needs_dense_index`` — :meth:`build` needs ``index`` and ``n``
      (static dense membership);
    * ``needs_key_assignment`` — :meth:`build` consumes ``keys`` from a
      keyspace assignment (the (R, K) family's ``f(p_i)``).
    """

    fixed_k: Optional[int] = None
    fixed_r: Optional[int] = None
    needs_dense_index = False
    needs_key_assignment = False

    def __init__(self, r: int, own_keys: Sequence[int]) -> None:
        if r <= 0:
            raise ConfigurationError(f"vector size R must be positive, got {r}")
        keys = tuple(sorted(int(k) for k in own_keys))
        if not keys:
            raise ConfigurationError("a clock needs at least one own entry")
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"duplicate own keys: {keys}")
        if keys[0] < 0 or keys[-1] >= r:
            raise ConfigurationError(f"own keys {keys} outside [0, {r})")
        self._r = r
        self._own_keys = keys
        self._own_keys_array = np.asarray(keys, dtype=np.intp)
        self._vector = np.zeros(r, dtype=np.int64)
        # Reused by every is_deliverable() call: the delivery condition is
        # evaluated once per receive and once per pending-queue recheck,
        # so the comparison result must not allocate each time.
        self._compare_buffer = np.empty(r, dtype=bool)
        self._send_seq = 0

    @classmethod
    def build(
        cls,
        node_id: ProcessId,
        r: int,
        k: int,
        keys: Tuple[int, ...],
        n: Optional[int],
        index: Optional[int],
    ) -> "EntryVectorClock":
        """This family's member for one process; the simulator fills
        what the class attributes declare it needs."""
        return cls(r, keys)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def r(self) -> int:
        """Vector size R."""
        return self._r

    @property
    def k(self) -> int:
        """Number of own entries K."""
        return len(self._own_keys)

    @property
    def own_keys(self) -> Tuple[int, ...]:
        """This process's entry set ``f(p_i)``."""
        return self._own_keys

    @property
    def send_count(self) -> int:
        """How many messages this clock has timestamped."""
        return self._send_seq

    def snapshot(self) -> Tuple[int, ...]:
        """Current local vector as a tuple (for assertions and debugging)."""
        return tuple(int(v) for v in self._vector)

    def initialize_from(self, vector: Sequence[int]) -> None:
        """Bootstrap the local vector from a state transfer.

        A process joining a running system cannot start from zeros: every
        future message's timestamp embeds the history of messages sent
        before the join, which the newcomer will never receive.  Real
        deployments ship a state snapshot at join time; the simulator
        models it by seeding the clock with the cumulative vector of all
        messages sent so far.  Only valid before this clock has sent or
        delivered anything.
        """
        values = np.asarray(vector, dtype=np.int64)
        if values.shape != self._vector.shape:
            raise ConfigurationError(
                f"initial vector has shape {values.shape}, expected {self._vector.shape}"
            )
        if self._send_seq or self._vector.any():
            raise ConfigurationError("initialize_from() requires a pristine clock")
        if (values < 0).any():
            raise ConfigurationError("initial vector entries must be >= 0")
        self._vector[:] = values

    def restore_state(self, vector: Sequence[int], send_count: int) -> None:
        """Restore persisted clock state after a crash (journal replay).

        Unlike :meth:`initialize_from` — which models a *joiner* adopting
        someone else's knowledge — this restores the process's **own**
        pre-crash state, including the send counter, so a restarted node
        never reuses a ``(sender, seq)`` message id and its vector again
        satisfies every delivery it performed before the crash.  Only
        valid on a pristine clock (the recovery path runs before any
        traffic is processed).
        """
        values = np.asarray(vector, dtype=np.int64)
        if values.shape != self._vector.shape:
            raise ConfigurationError(
                f"restored vector has shape {values.shape}, expected {self._vector.shape}"
            )
        if self._send_seq or self._vector.any():
            raise ConfigurationError("restore_state() requires a pristine clock")
        if (values < 0).any():
            raise ConfigurationError("restored vector entries must be >= 0")
        if send_count < 0:
            raise ConfigurationError(f"send_count must be >= 0, got {send_count}")
        self._vector[:] = values
        self._send_seq = int(send_count)

    def vector_view(self) -> np.ndarray:
        """Read-only view of the local vector (no copy)."""
        view = self._vector.view()
        view.flags.writeable = False
        return view

    def rekey(self, new_keys: Sequence[int]) -> Tuple[int, ...]:
        """Switch this process's entry set ``f(p_i)`` to ``new_keys``.

        The mechanism tolerates online re-dimensioning: every message
        carries its sender's keys, so receivers never need to know the
        current assignment, and the delivery condition remains live
        across the switch (the non-sender-entry clause forces receivers
        to catch up with the pre-switch history).  This is what makes an
        *adaptive K* possible — a node observing a concurrency different
        from the estimate can re-draw a key set sized by
        ``K = ln2 · R / X_measured``.  Returns the previous key set.
        """
        keys = tuple(sorted(int(k) for k in new_keys))
        if not keys:
            raise ConfigurationError("a clock needs at least one own entry")
        if len(set(keys)) != len(keys):
            raise ConfigurationError(f"duplicate own keys: {keys}")
        if keys[0] < 0 or keys[-1] >= self._r:
            raise ConfigurationError(f"own keys {keys} outside [0, {self._r})")
        previous = self._own_keys
        self._own_keys = keys
        self._own_keys_array = np.asarray(keys, dtype=np.intp)
        return previous

    # ------------------------------------------------------------------
    # Algorithm 1 — timestamping a broadcast
    # ------------------------------------------------------------------

    def prepare_send(self) -> Timestamp:
        """Increment the own entries and return the timestamp to attach.

        Implements Algorithm 1: ``forall x in f(p_i): V_i[x] += 1`` then
        copy ``V_i`` onto the message.
        """
        self._vector[self._own_keys_array] += 1
        self._send_seq += 1
        return Timestamp(
            vector=_freeze(self._vector.copy()),
            sender_keys=self._own_keys,
            seq=self._send_seq,
        )

    # ------------------------------------------------------------------
    # Algorithm 2 — delivery condition and delivery bookkeeping
    # ------------------------------------------------------------------

    def is_deliverable(self, timestamp: Timestamp) -> bool:
        """Evaluate Algorithm 2's wait condition for a received message.

        True when every entry of the local vector has reached the
        message's adjusted threshold: at the sender's keys the local value
        may lag by one (that gap is the message itself), everywhere else
        it must have caught up with everything the sender had delivered.
        """
        self._check_compatible(timestamp)
        np.greater_equal(self._vector, timestamp.adjusted, out=self._compare_buffer)
        return bool(self._compare_buffer.all())

    def record_delivery(self, timestamp: Timestamp) -> None:
        """Account for a delivery: increment the sender's entries locally.

        Must be called exactly once per delivered message, after
        :meth:`is_deliverable` returned True (the protocol endpoint
        enforces this ordering; the clock itself does not re-check, so the
        simulator can also use it to *force* an out-of-order delivery when
        modelling a violating configuration).
        """
        self._check_compatible(timestamp)
        keys = timestamp.sender_keys
        if len(keys) <= 8:
            # K is small (the paper's optimum is K = ln2·R/X, single
            # digits in every studied regime); scalar increments beat a
            # fancy-indexing dispatch and allocate nothing.
            vector = self._vector
            for key in keys:
                vector[key] += 1
        else:
            self._vector[timestamp.sender_keys_array] += 1

    def lag(self, timestamp: Timestamp) -> int:
        """Total missing count: how far the local vector is below the
        message's adjusted threshold, summed over entries.

        0 means deliverable; larger values indicate more missing causal
        predecessors.  Used by diagnostics and by the pending-queue
        ordering heuristic.
        """
        self._check_compatible(timestamp)
        deficit = timestamp.adjusted - self._vector
        return int(deficit[deficit > 0].sum())

    def _check_compatible(self, timestamp: Timestamp) -> None:
        if timestamp.size != self._r:
            raise ConfigurationError(
                f"timestamp size {timestamp.size} incompatible with clock size {self._r}"
            )


class ProbabilisticCausalClock(EntryVectorClock):
    """The paper's contribution: the ``(n, r, k)`` clock, the one a node runs.

    Semantically identical to :class:`EntryVectorClock`; the subclass
    exists to name the configuration and validate ``1 <= K <= R``.  The
    paper shows the optimum in the interior ``1 < K < R``; the edges are
    still valid clocks (K = 1 is the plausible clock's geometry).
    """

    needs_key_assignment = True

    def __init__(self, r: int, own_keys: Sequence[int]) -> None:
        super().__init__(r, own_keys)
        if not 1 <= self.k <= r:
            raise ConfigurationError(f"need 1 <= K <= R, got K={self.k}, R={r}")


class PlausibleCausalClock(EntryVectorClock):
    """Torres-Rojas & Ahamad's plausible clock: the ``(n, r, 1)`` point.

    Each process owns exactly one of ``r`` entries, several processes per
    entry.  Equivalent to the paper's scheme with ``K = 1``.
    """

    fixed_k = 1
    needs_key_assignment = True

    def __init__(self, r: int, own_entry: int) -> None:
        super().__init__(r, (own_entry,))

    @classmethod
    def build(cls, node_id, r, k, keys, n, index):
        if len(keys) != 1:
            raise ConfigurationError(
                f'clock="plausible" owns exactly one entry, got {tuple(keys)}'
            )
        return cls(r, keys[0])


class LamportCausalClock(EntryVectorClock):
    """Lamport's scalar clock as the degenerate ``(n, 1, 1)`` point.

    A single shared entry: every process increments the same counter on
    send, and the delivery condition forces near-total synchronisation
    (a message with scalar timestamp ``t`` waits until the local counter
    reaches ``t - 1``).  Included as the extreme baseline the paper cites.
    """

    fixed_k = 1
    fixed_r = 1

    def __init__(self) -> None:
        super().__init__(1, (0,))

    @classmethod
    def build(cls, node_id, r, k, keys, n, index):
        return cls()


class VectorCausalClock(EntryVectorClock):
    """Exact vector clock: the ``(n, n, 1)`` point with per-process entries.

    With ``R = N`` and ``f(p_i) = {i}`` the generic delivery condition is
    the classical causal-broadcast rule (Birman–Schiper–Stephenson) and no
    violation is possible.  Requires static membership with dense process
    indices.
    """

    fixed_k = 1
    needs_dense_index = True

    def __init__(self, n: int, own_index: int) -> None:
        if not 0 <= own_index < n:
            raise ConfigurationError(f"own index {own_index} outside [0, {n})")
        super().__init__(n, (own_index,))

    @classmethod
    def build(cls, node_id, r, k, keys, n, index):
        if index is None:
            raise ConfigurationError(
                'clock="vector" needs index (this process\'s dense index)'
            )
        return cls(n if n is not None else r, index)


class BloomCausalClock(EntryVectorClock):
    """Ramabaja's Bloom clock as a member of the delivery framework.

    An ``m``-counter vector where every *event* increments ``h`` cells
    chosen by hashing the event — the per-event analogue of the paper's
    static per-process key set ``f(p_i)``.  Framed in the (n, r, k)
    design space this is the ``(n, m, h)`` point with ``f`` ranging over
    *messages* instead of processes: message ``(owner, seq)`` draws the
    ``h`` distinct cells ``f(owner, seq)`` from a keyed hash, stable
    across processes, so receivers apply the unchanged Algorithm 2
    delivery condition to whatever key set the timestamp carries.

    The comparison-error analysis is the textbook Bloom-filter
    false-positive curve (:func:`repro.core.theory.p_fp`), which is the
    *same covering computation* as the paper's ``P_err(R, K, X)`` — the
    families differ only in whether the ``K``/``h`` cells are drawn once
    per process or once per event.  Per-event keys decorrelate
    consecutive messages of one sender (a covered entry no longer stays
    covered for that sender's whole stream), at the cost of shipping a
    fresh key list on every message.  It runs in the simulator only: the
    node's delta encoding takes a message's keys from its reference.

    Args:
        m: vector size (number of Bloom counters; the family's ``R``).
        hashes: cells incremented per event (the Bloom ``h``; plays K).
        owner: this process's identity — part of the hash preimage, so
            two processes never share an event's key set by accident.
    """

    def __init__(
        self, m: int, hashes: int = 4, owner: ProcessId = ""
    ) -> None:
        if hashes <= 0:
            raise ConfigurationError(f"hash count must be positive, got {hashes}")
        if hashes > m:
            raise ConfigurationError(f"need hashes <= m, got hashes={hashes}, m={m}")
        self._hashes = hashes
        self._owner_token = repr(owner)
        self._m = m  # needed by _event_keys before the base class sets _r
        super().__init__(m, self._event_keys(1))

    @classmethod
    def build(cls, node_id, r, k, keys, n, index):
        return cls(r, hashes=k, owner=node_id)

    @property
    def hashes(self) -> int:
        """Cells incremented per event (the Bloom ``h``)."""
        return self._hashes

    def _event_keys(self, seq: int) -> Tuple[int, ...]:
        """The ``h`` distinct cells of this process's ``seq``-th event.

        SHA-256 over ``(_BLOOM_SALT, owner, seq, draw)`` — like
        :class:`~repro.core.keyspace.HashKeyAssigner`, a keyed hash
        rather than the builtin ``hash`` so the draw is identical in
        every process regardless of ``PYTHONHASHSEED``.
        """
        keys: set = set()
        draw = 0
        while len(keys) < self._hashes:
            preimage = f"{_BLOOM_SALT}|{self._owner_token}|{seq}|{draw}".encode("utf-8")
            digest = hashlib.sha256(preimage).digest()
            keys.add(int.from_bytes(digest[:8], "big") % self._m)
            draw += 1
        return tuple(sorted(keys))

    def prepare_send(self) -> Timestamp:
        """Algorithm 1 with a per-event key set: re-draw ``f`` then stamp."""
        self.rekey(self._event_keys(self._send_seq + 1))
        return super().prepare_send()


# Name -> family, for the simulator (DESIGN.md §9).
SCHEMES: Dict[str, Type[EntryVectorClock]] = {
    "probabilistic": ProbabilisticCausalClock,
    "plausible": PlausibleCausalClock,
    "lamport": LamportCausalClock,
    "vector": VectorCausalClock,
    "bloom": BloomCausalClock,
}


def scheme_class(name: str) -> Type[EntryVectorClock]:
    """The family configured as ``name`` (raises listing the valid names)."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown clock scheme {name!r}; expected one of {tuple(SCHEMES)}"
        ) from None
