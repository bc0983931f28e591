"""The batched delivery engine: entry-indexed pending buffer + seen filter.

This module holds the two data structures behind the protocol hot path
(:mod:`repro.core.protocol`):

* :class:`PendingBuffer` — the queue of received-but-not-yet-deliverable
  messages, stored as one contiguous 2-D ``int64`` matrix of precomputed
  *adjusted* threshold vectors, one row per message.  On top of the
  matrix sits a **per-entry wakeup index** exploiting Algorithm 2's
  structure: delivering a message from ``p_j`` only increments the
  entries ``f(p_j)``, so only pending messages whose *unsatisfied*
  entries intersect ``f(p_j)`` can possibly have become deliverable.
  A drain therefore costs amortised
  ``O(K + unblocked · R)`` per delivery instead of the naive reference
  drain's ``O(P · R)`` full rescan.

* :class:`SeenFilter` — per-sender coverage in ``O(senders)`` memory:
  per sender, a *contiguous-prefix watermark* (every 1-based seq up to it
  has been seen) plus a sparse out-of-order tail.  Because senders number
  their messages densely, the tail stays small (bounded by per-sender
  reordering depth) and collapses into the watermark as gaps fill,
  whereas the plain ``set`` of ``(sender, seq)`` ids it replaces grew
  with the total message count of the run.  The endpoint's duplicate
  filter is one; so is every other record of what a node has received
  or delivered (:mod:`repro.net.node`, :mod:`repro.net.journal`).

Delivery-order equivalence
--------------------------

:meth:`PendingBuffer.drain` reproduces **exactly** the delivery order of
the reference drain (:class:`ReferenceBuffer`: repeated full passes over
the queue in receive order until a pass makes no progress).  The wakeup
index tells us *which* messages to recheck; a min-heap keyed by arrival
rank tells us *when* naive pass iteration would have reached them:

* a message unblocked by a delivery *earlier* in the queue is delivered
  within the same pass (the naive pass would reach its position later);
* a message unblocked by a delivery *later* in the queue waits for the
  next pass (the naive pass already went past it).

The invariant making the index sound: every pending message is
registered under **all** of its currently-unsatisfied entries (the index
may lag as a superset — entries only become satisfied over time — so a
message can be woken spuriously, but never missed).  Deliveries are not
the only increments, though: Algorithm 1's *local send* bumps the
sender's own keys too, and when the local key set overlaps a pending
message's unsatisfied entries that send can complete its delivery
condition without any delivery ever touching those entries.  The naive
rescan picks this up for free at the next drain; the index must be told
— :meth:`PendingBuffer.notify_increment` accumulates such out-of-band
increments and the next drain folds them into its initial wakeup wave
(the historical 340-vs-342 wave-order divergence against the reference
was exactly this missed wakeup).  The differential test suite
(``tests/test_pending_differential.py``) checks the equivalence over
randomised multi-sender traces with drops, reorders, duplicates and
interleaved local sends, and pins the index's work — pending messages
examined per delivery — on one deep-queue trace.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.errors import ConfigurationError

__all__ = ["PendingBuffer", "ReferenceBuffer", "SeenFilter"]

ProcessId = Hashable
Frontiers = Dict[ProcessId, Tuple[int, Tuple[int, ...]]]


class PendingBuffer:
    """Entry-indexed pending queue with a contiguous threshold matrix.

    Rows of the matrix are *slots*; freed slots are reused, and the
    matrix doubles when full.  Items are opaque to the buffer (the
    protocol stores :class:`~repro.core.protocol.Message` objects); the
    buffer only reads the message's precomputed ``adjusted`` threshold.

    Args:
        r: vector size R (row width).
        initial_capacity: starting number of slots.
    """

    __slots__ = (
        "_r",
        "_capacity",
        "_adjusted",
        "_items",
        "_arrival",
        "_entries",
        "_free",
        "_waiting",
        "_count",
        "_arrival_counter",
        "_external",
        "wakeups",
        "spurious_wakeups",
    )

    def __init__(self, r: int, initial_capacity: int = 16) -> None:
        if r <= 0:
            raise ConfigurationError(f"vector size R must be positive, got {r}")
        if initial_capacity <= 0:
            raise ConfigurationError(
                f"initial_capacity must be positive, got {initial_capacity}"
            )
        self._r = r
        self._capacity = initial_capacity
        self._adjusted = np.zeros((initial_capacity, r), dtype=np.int64)
        self._items: List[Any] = [None] * initial_capacity
        self._arrival: List[int] = [0] * initial_capacity
        self._entries: List[Optional[Set[int]]] = [None] * initial_capacity
        self._free: List[int] = list(range(initial_capacity - 1, -1, -1))
        self._waiting: List[Set[int]] = [set() for _ in range(r)]
        self._count = 0
        self._arrival_counter = 0
        self._external: Set[int] = set()
        # Plain ints (no obs dependency): slots examined by the wakeup
        # index, and the subset that was still blocked when rechecked.
        # The spurious/total ratio is the index's precision — the price
        # of registering messages under a (safe) superset of their
        # unsatisfied entries.
        self.wakeups = 0
        self.spurious_wakeups = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        """Allocated slots (rows of the threshold matrix)."""
        return self._capacity

    def items(self) -> List[Any]:
        """Pending items in arrival (receive) order."""
        slots = [s for s in range(self._capacity) if self._entries[s] is not None]
        slots.sort(key=self._arrival.__getitem__)
        return [self._items[s] for s in slots]

    # ------------------------------------------------------------------
    # insertion
    # ------------------------------------------------------------------

    def add(self, item: Any, adjusted: np.ndarray, local_vector: np.ndarray) -> None:
        """Queue a non-deliverable item.

        ``adjusted`` is the message's threshold row; ``local_vector`` the
        receiver's current vector.  The item must genuinely fail the
        delivery condition — an item with no unsatisfied entry would
        never be woken.
        """
        deficit = adjusted > local_vector
        entries = np.nonzero(deficit)[0]
        if entries.size == 0:
            raise ConfigurationError(
                "PendingBuffer.add() requires a non-deliverable item"
            )
        if not self._free:
            self._grow()
        slot = self._free.pop()
        np.copyto(self._adjusted[slot], adjusted)
        self._items[slot] = item
        self._arrival_counter += 1
        self._arrival[slot] = self._arrival_counter
        registered = {int(e) for e in entries}
        self._entries[slot] = registered
        for entry in registered:
            self._waiting[entry].add(slot)
        self._count += 1

    def _grow(self) -> None:
        new_capacity = self._capacity * 2
        grown = np.zeros((new_capacity, self._r), dtype=np.int64)
        grown[: self._capacity] = self._adjusted
        self._adjusted = grown
        self._items.extend([None] * self._capacity)
        self._arrival.extend([0] * self._capacity)
        self._entries.extend([None] * self._capacity)
        self._free.extend(range(new_capacity - 1, self._capacity - 1, -1))
        self._capacity = new_capacity

    # ------------------------------------------------------------------
    # out-of-band increments
    # ------------------------------------------------------------------

    def notify_increment(self, keys: Iterable[int]) -> None:
        """Record vector increments that happened outside a drain.

        Algorithm 1's local send bumps the sender's own keys without any
        delivery; when those entries overlap a pending message's
        unsatisfied set, the message may now pass the delivery condition
        even though no future delivery will ever touch its registered
        entries.  The accumulated keys are folded into the initial
        wakeup wave of the next :meth:`drain` — matching the naive
        reference, which only ever delivers during a drain but rescans
        everything when it does.
        """
        if self._count:
            self._external.update(int(key) for key in keys)

    # ------------------------------------------------------------------
    # drain
    # ------------------------------------------------------------------

    def drain(
        self,
        local_vector: np.ndarray,
        touched_keys: Iterable[int],
        deliver: Callable[[Any], Sequence[int]],
    ) -> int:
        """Deliver every item unblocked by increments at ``touched_keys``.

        ``local_vector`` must be a *live view* of the receiver's vector
        (it is re-read after every delivery).  ``deliver(item)`` performs
        the actual delivery — including the clock increment — and returns
        the entry keys that increment touched (the sender's ``f(p_j)``).
        Returns the number of deliveries.  Delivery order matches the
        naive multi-pass reference drain exactly (see module docstring).
        """
        delivered = 0
        if self._external:
            # Fold out-of-band increments (local sends since the last
            # drain) into the trigger's wakeup set: their slots behave
            # exactly like wave-1 candidates, which is where the naive
            # pass-1 rescan would find them.
            self._external.update(int(key) for key in touched_keys)
            wave = self._collect(self._external)
            self._external.clear()
        else:
            wave = self._collect(touched_keys)
        while wave:
            self.wakeups += len(wave)
            slots = np.fromiter(wave, dtype=np.intp, count=len(wave))
            deficits = self._adjusted[slots] > local_vector
            blocked = deficits.any(axis=1)
            heap: List[Tuple[int, int]] = []
            scheduled: Set[int] = set()
            next_wave: Set[int] = set()
            for position, slot in enumerate(slots):
                slot = int(slot)
                if blocked[position]:
                    self.spurious_wakeups += 1
                    self._reindex(slot, deficits[position])
                else:
                    heap.append((self._arrival[slot], slot))
                    scheduled.add(slot)
            heapq.heapify(heap)
            while heap:
                arrival, slot = heapq.heappop(heap)
                item = self._take(slot)
                keys = deliver(item)
                delivered += 1
                for woken in self._collect(keys):
                    if woken in scheduled or woken in next_wave:
                        continue
                    self.wakeups += 1
                    deficit = self._adjusted[woken] > local_vector
                    if deficit.any():
                        self.spurious_wakeups += 1
                        self._reindex(woken, deficit)
                    elif self._arrival[woken] > arrival:
                        # The naive pass would reach this queue position
                        # after the delivery that unblocked it: same pass.
                        heapq.heappush(heap, (self._arrival[woken], woken))
                        scheduled.add(woken)
                    else:
                        # Unblocked by a delivery behind it in the queue:
                        # the naive pass already went past — next pass.
                        next_wave.add(woken)
            wave = next_wave
        return delivered

    def _collect(self, keys: Iterable[int]) -> Set[int]:
        """Slots registered under any of the touched entries."""
        woken: Set[int] = set()
        waiting = self._waiting
        for key in keys:
            bucket = waiting[key]
            if bucket:
                woken.update(bucket)
        return woken

    def _reindex(self, slot: int, deficit: np.ndarray) -> None:
        """Shrink a slot's registrations to its current unsatisfied set."""
        still_unsatisfied = {int(e) for e in np.nonzero(deficit)[0]}
        registered = self._entries[slot]
        for entry in registered - still_unsatisfied:
            self._waiting[entry].discard(slot)
        self._entries[slot] = still_unsatisfied

    def _take(self, slot: int) -> Any:
        """Remove a slot from the buffer and the wakeup index."""
        for entry in self._entries[slot]:
            self._waiting[entry].discard(slot)
        self._entries[slot] = None
        item = self._items[slot]
        self._items[slot] = None
        self._free.append(slot)
        self._count -= 1
        return item


class ReferenceBuffer:
    """Algorithm 2's drain loop spelled out: the differential oracle.

    Repeated full passes over the queue in receive order, asking the
    clock's own :meth:`~repro.core.clocks.EntryVectorClock.is_deliverable`
    about every queued message, until a pass makes no progress —
    ``O(P · R)`` per pass.  Same interface as :class:`PendingBuffer` so
    an endpoint can be handed one; only
    ``tests/test_pending_differential.py`` does.
    """

    wakeups = spurious_wakeups = 0  # no index, nothing to count

    def __init__(self, clock: Any) -> None:
        self._clock = clock
        self._queue: List[Any] = []

    def __len__(self) -> int:
        return len(self._queue)

    def items(self) -> List[Any]:
        return list(self._queue)

    def add(self, item: Any, adjusted: np.ndarray, local_vector: np.ndarray) -> None:
        self._queue.append(item)

    def notify_increment(self, keys: Iterable[int]) -> None:
        """No-op: every drain rescans everything."""

    def drain(
        self,
        local_vector: np.ndarray,
        touched_keys: Iterable[int],
        deliver: Callable[[Any], Sequence[int]],
    ) -> int:
        delivered = 0
        progressed = True
        while progressed and self._queue:
            progressed = False
            still_pending = []
            for item in self._queue:
                if self._clock.is_deliverable(item.timestamp):
                    deliver(item)
                    delivered += 1
                    progressed = True
                else:
                    still_pending.append(item)
            self._queue = still_pending
        return delivered


class SeenFilter:
    """Per-sender coverage of ``(sender, seq)`` ids in O(senders) memory.

    Message ids are ``(sender, seq)`` with a dense, 1-based, per-sender
    ``seq``.  Per sender the filter keeps a contiguous-prefix *watermark*
    ``w`` (every seq ``<= w`` seen) plus the sparse set of seqs beyond
    the first gap; tail entries merge into the watermark as gaps fill,
    so steady-state memory is one integer per sender plus the transient
    reordering depth — instead of one set element per message ever seen.

    This is the one coverage type of the stack: the endpoint's
    duplicate filter, the message store's received coverage, the node's
    and the journal's delivered coverage are each an instance, and its
    ``(watermark, sorted tail)`` :meth:`frontiers` are the anti-entropy
    digest, the join state transfer and the snapshot's ``delivered``
    map — so transferred coverage is adopted wholesale
    (:meth:`restore`) instead of replaying one ``add()`` per historical
    message.  Senders are reported in first-seen order.
    """

    __slots__ = ("_watermark", "_tail")

    def __init__(self) -> None:
        # Every tracked sender has a watermark (0 while only its tail
        # is known), so this dict alone is the sender roster.
        self._watermark: Dict[ProcessId, int] = {}
        self._tail: Dict[ProcessId, Set[int]] = {}

    def __contains__(self, message_id: Tuple[ProcessId, int]) -> bool:
        sender, seq = message_id
        if seq <= self._watermark.get(sender, 0):
            return True
        tail = self._tail.get(sender)
        return tail is not None and seq in tail

    def __len__(self) -> int:
        """Total distinct ids seen (reconstructed, not stored)."""
        return sum(self._watermark.values()) + self.tail_size

    @property
    def sender_count(self) -> int:
        """Distinct senders tracked."""
        return len(self._watermark)

    @property
    def tail_size(self) -> int:
        """Sparse out-of-order ids currently held (the real memory cost)."""
        return sum(len(tail) for tail in self._tail.values())

    def add(self, message_id: Tuple[ProcessId, int]) -> bool:
        """Record an id; returns True when it was new."""
        sender, seq = message_id
        if seq < 1:
            raise ConfigurationError(f"message seq must be >= 1, got {seq}")
        mark = self._watermark.get(sender, 0)
        if seq <= mark:
            return False
        tail = self._tail.get(sender)
        if seq == mark + 1:
            mark += 1
            if tail:
                while mark + 1 in tail:
                    mark += 1
                    tail.discard(mark)
                if not tail:
                    del self._tail[sender]
            self._watermark[sender] = mark
            return True
        if tail is None:
            tail = self._tail[sender] = set()
            self._watermark.setdefault(sender, 0)
        elif seq in tail:
            return False
        tail.add(seq)
        return True

    def forget(self, sender: ProcessId) -> None:
        """Drop one sender's coverage; it may start again from seq 1."""
        self._watermark.pop(sender, None)
        self._tail.pop(sender, None)

    def watermark(self, sender: ProcessId) -> int:
        """The sender's contiguous prefix (0 when unknown)."""
        return self._watermark.get(sender, 0)

    def frontiers(self) -> Frontiers:
        """Per-sender ``(watermark, sorted tail)``, first-seen order."""
        tails = self._tail
        return {
            sender: (mark, tuple(sorted(tails.get(sender, ()))))
            for sender, mark in self._watermark.items()
        }

    def restore(self, frontiers: Frontiers) -> None:
        """Adopt transferred coverage wholesale (empty filter only).

        O(senders + tail), not O(total messages) — this is what keeps a
        crash recovery from looping over every historical seq.  All or
        nothing: malformed coverage raises before anything is adopted.
        """
        if self._watermark:
            raise ConfigurationError("restore() requires an empty SeenFilter")
        staged = SeenFilter()
        for sender, (watermark, extras) in frontiers.items():
            if watermark < 0:
                raise ConfigurationError(
                    f"watermark must be >= 0, got {watermark} for {sender!r}"
                )
            staged._watermark[sender] = int(watermark)
            # Through add(), so a tail touching the watermark compacts.
            if not all(staged.add((sender, int(seq))) for seq in extras):
                raise ConfigurationError(
                    f"tail of {sender!r} overlaps its watermark: {extras}"
                )
        self._watermark, self._tail = staged._watermark, staged._tail
