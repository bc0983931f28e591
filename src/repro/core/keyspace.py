"""Key-space management: assigning vector entries to processes (Section 4.1.3).

Every process in the paper's scheme owns a set ``f(p_i)`` of ``K`` distinct
entries of the shared ``R``-entry vector.  The quality of the whole
protocol hinges on how those sets are distributed, so the paper discusses
two regimes:

* a **perfect distribution**, where subsets are spread as evenly as
  possible over processes — ideal but incompatible with churn, because a
  join or leave would force a global re-assignment;
* a **random distribution**, where each process independently draws a
  ``set_id`` uniformly in ``[0, C(R, K))`` and expands it with
  Algorithm 3 — this supports continuous joins/leaves and guarantees that
  two processes with different identities share at most ``K - 1`` entries.

This module provides both, plus a couple of deterministic assigners that
are convenient for tests and reproducible experiments.  All assigners
track which process holds which assignment so that membership changes
(:meth:`KeyAssigner.release`) can recycle identifiers.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.combinatorics import num_key_sets, rank_lex, unrank_lex
from repro.core.errors import ConfigurationError, MembershipError
from repro.util.rng import RandomSource

__all__ = [
    "KeyAssignment",
    "KeyAssigner",
    "RandomKeyAssigner",
    "SequentialKeyAssigner",
    "PerfectKeyAssigner",
    "BalancedLoadKeyAssigner",
    "HashKeyAssigner",
]

ProcessId = Hashable


@dataclass(frozen=True)
class KeyAssignment:
    """The keys granted to one process.

    Attributes:
        process_id: identity of the owning process.
        set_id: the combinatorial rank (lexicographic) of ``keys`` among
            K-subsets of ``{0..R-1}``; ``-1`` for assigners that build the
            subset directly rather than by unranking.
        keys: strictly increasing tuple of vector entries, ``len == K``.
    """

    process_id: ProcessId
    set_id: int
    keys: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.keys) == 0:
            raise ConfigurationError("a key assignment must contain at least one key")
        if len(set(self.keys)) != len(self.keys):
            raise ConfigurationError(f"duplicate keys in assignment: {self.keys}")

    @property
    def k(self) -> int:
        """Number of keys (the paper's ``K``)."""
        return len(self.keys)


class KeyAssigner(ABC):
    """Assigns key sets to joining processes and recycles them on leave.

    Subclasses implement :meth:`_pick_keys`; the base class handles the
    registry, duplicate-join detection, and release bookkeeping.
    """

    def __init__(self, r: int, k: int) -> None:
        if r <= 0:
            raise ConfigurationError(f"vector size R must be positive, got {r}")
        if not 1 <= k <= r:
            raise ConfigurationError(f"need 1 <= K <= R, got K={k}, R={r}")
        self._r = r
        self._k = k
        self._assignments: Dict[ProcessId, KeyAssignment] = {}

    @property
    def r(self) -> int:
        """Size of the shared vector (the paper's ``R``)."""
        return self._r

    @property
    def k(self) -> int:
        """Number of entries per process (the paper's ``K``)."""
        return self._k

    @property
    def assignments(self) -> Dict[ProcessId, KeyAssignment]:
        """Read-only view of the live assignments (copy)."""
        return dict(self._assignments)

    def assign(self, process_id: ProcessId) -> KeyAssignment:
        """Grant a key set to ``process_id``.

        Raises :class:`MembershipError` if the process already holds one.
        """
        if process_id in self._assignments:
            raise MembershipError(f"process {process_id!r} already holds a key set")
        keys = self._pick_keys(process_id)
        try:
            set_id = rank_lex(keys, self._r)
        except ConfigurationError:
            set_id = -1
        assignment = KeyAssignment(process_id=process_id, set_id=set_id, keys=keys)
        self._assignments[process_id] = assignment
        return assignment

    def adopt(self, process_id: ProcessId, keys: Sequence[int]) -> KeyAssignment:
        """Register an assignment granted elsewhere (view mirroring).

        The membership layer distributes assignments inside VIEW frames;
        every member mirrors them into its local assigner with this, so
        whoever becomes acting coordinator next holds a correct ledger.
        Idempotent when the process already holds exactly ``keys``;
        raises :class:`MembershipError` when it holds a different set.
        """
        ordered = tuple(sorted(int(entry) for entry in keys))
        if any(not 0 <= entry < self._r for entry in ordered):
            raise ConfigurationError(
                f"adopted key set for {process_id!r} outside [0, {self._r}): {ordered}"
            )
        existing = self._assignments.get(process_id)
        if existing is not None:
            if existing.keys == ordered:
                return existing
            raise MembershipError(
                f"process {process_id!r} already holds {existing.keys}, "
                f"cannot adopt {ordered}"
            )
        try:
            set_id = rank_lex(ordered, self._r)
        except ConfigurationError:
            set_id = -1
        assignment = KeyAssignment(process_id=process_id, set_id=set_id, keys=ordered)
        self._assignments[process_id] = assignment
        self._on_adopt(assignment)
        return assignment

    def release(self, process_id: ProcessId) -> KeyAssignment:
        """Withdraw the key set of a leaving process and return it."""
        try:
            assignment = self._assignments.pop(process_id)
        except KeyError:
            raise MembershipError(f"process {process_id!r} holds no key set") from None
        self._on_release(assignment)
        return assignment

    def lookup(self, process_id: ProcessId) -> KeyAssignment:
        """Return the live assignment of ``process_id``.

        Raises :class:`MembershipError` if it has none.
        """
        try:
            return self._assignments[process_id]
        except KeyError:
            raise MembershipError(f"process {process_id!r} holds no key set") from None

    def __len__(self) -> int:
        return len(self._assignments)

    def __contains__(self, process_id: ProcessId) -> bool:
        return process_id in self._assignments

    def retile(self, new_k: int) -> "KeyAssigner":
        """A fresh, empty assigner of this class over ``(r, new_k)``.

        The epoch re-tiling hook: when the group renegotiates its clock
        geometry (see :mod:`repro.net.adaptive`), the acting coordinator
        builds the next epoch's ledger with this and re-assigns every
        member at the new ``K``; followers rebuild their mirror the same
        way when a higher-epoch view arrives.  ``K`` is fixed per
        assigner instance, so a K change is a new instance by design —
        the old ledger stays intact until the new view is installed.

        Subclasses with construction state beyond ``(r, k)`` override
        this to carry it across (e.g. the random assigner's RNG stream).
        """
        return type(self)(self._r, new_k)

    @abstractmethod
    def _pick_keys(self, process_id: ProcessId) -> Tuple[int, ...]:
        """Choose the key set for a joining process (ascending tuple)."""

    def _on_release(self, assignment: KeyAssignment) -> None:
        """Hook for subclasses that recycle released key sets."""

    def _on_adopt(self, assignment: KeyAssignment) -> None:
        """Hook for subclasses to mark an adopted set as in use."""


class RandomKeyAssigner(KeyAssigner):
    """The paper's distributed scheme: a uniform random ``set_id``.

    Each joining process draws ``set_id`` uniformly from ``[0, C(R, K))``
    and expands it with the lexicographic unranking (Algorithm 3).  With
    ``avoid_collisions=True`` (the default) the assigner rejects a drawn id
    already in use and redraws — modelling the paper's remark that distinct
    identities yield distinct sets, hence pairwise intersections of at most
    ``K - 1`` entries.  Set it to ``False`` to study the fully
    uncoordinated regime where two processes may collide on the same set.
    """

    def __init__(
        self,
        r: int,
        k: int,
        rng: Optional[RandomSource] = None,
        avoid_collisions: bool = True,
    ) -> None:
        super().__init__(r, k)
        self._rng = rng if rng is not None else RandomSource(seed=0)
        self._avoid_collisions = avoid_collisions
        self._total_sets = num_key_sets(r, k)
        self._used_ids: Dict[int, ProcessId] = {}

    def retile(self, new_k: int) -> "RandomKeyAssigner":
        return type(self)(
            self._r, new_k, rng=self._rng,
            avoid_collisions=self._avoid_collisions,
        )

    def _pick_keys(self, process_id: ProcessId) -> Tuple[int, ...]:
        if self._avoid_collisions and len(self._used_ids) >= self._total_sets:
            raise MembershipError(
                f"key space exhausted: C({self._r},{self._k})={self._total_sets} "
                f"sets already assigned"
            )
        while True:
            set_id = self._rng.integer(0, self._total_sets)
            if not self._avoid_collisions or set_id not in self._used_ids:
                break
        self._used_ids[set_id] = process_id
        return unrank_lex(set_id, self._r, self._k)

    def _on_release(self, assignment: KeyAssignment) -> None:
        self._used_ids.pop(assignment.set_id, None)

    def _on_adopt(self, assignment: KeyAssignment) -> None:
        if assignment.set_id >= 0:
            self._used_ids[assignment.set_id] = assignment.process_id


class SequentialKeyAssigner(KeyAssigner):
    """Deterministic assigner: consecutive ``set_id`` values 0, 1, 2, ...

    Useful for unit tests and for reproducing the worked examples of the
    paper's Figures 1 and 2, where specific key sets are prescribed.
    Identifiers wrap modulo ``C(R, K)``.
    """

    def __init__(self, r: int, k: int, start: int = 0) -> None:
        super().__init__(r, k)
        self._next = start
        self._total_sets = num_key_sets(r, k)

    def _pick_keys(self, process_id: ProcessId) -> Tuple[int, ...]:
        set_id = self._next % self._total_sets
        self._next += 1
        return unrank_lex(set_id, self._r, self._k)


class PerfectKeyAssigner(KeyAssigner):
    """Round-tiling approximation of the paper's *perfect distribution*.

    The paper's informal definition asks that subsets of entries be spread
    as evenly as possible over processes.  What actually minimises the
    covering probability is keeping pairwise **set intersections** small
    (a near-duplicate set lets a single concurrent message cover a missing
    one) — entry-load balance alone is not enough; see
    :class:`BalancedLoadKeyAssigner` for the counter-example.

    The tiling works in rounds of ``floor(R / K)`` processes.  Within a
    round, sets are pairwise *disjoint* (a partition of ``K·floor(R/K)``
    entries); across rounds the entry space is re-permuted with a
    different affine map ``e ↦ (a·e + b) mod R`` (``a`` coprime to R), so
    inter-round intersections stay small and spread.  Entry loads remain
    balanced within one as a side effect.

    Needs global knowledge (a coordinator), so — exactly as the paper
    argues — it cannot support churn cheaply: it exists as the quality
    ceiling the distributed random draw is compared against.  Released
    slots are recycled to keep long-running membership bounded.
    """

    # Affine multipliers tried per round, first coprime with R wins.
    _CANDIDATE_STRIDES = (1, 3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

    def __init__(self, r: int, k: int) -> None:
        super().__init__(r, k)
        self._next_slot = 0
        self._free_slots: List[int] = []
        self._slot_of_process: Dict[ProcessId, int] = {}
        self._sets_per_round = max(1, r // k)
        self._used_sets: Dict[Tuple[int, ...], int] = {}

    def _stride_for_round(self, round_index: int) -> int:
        import math

        usable = []
        seen_residues = set()
        for stride in self._CANDIDATE_STRIDES:
            residue = stride % self._r
            if residue and math.gcd(residue, self._r) == 1 and residue not in seen_residues:
                usable.append(residue)
                seen_residues.add(residue)
        return usable[round_index % len(usable)]

    def _keys_for_slot(self, slot: int) -> Tuple[int, ...]:
        round_index, position = divmod(slot, self._sets_per_round)
        stride = self._stride_for_round(round_index)
        offset = round_index  # shifts the partition boundary each round
        keys = tuple(
            sorted(
                (stride * (position * self._k + j) + offset) % self._r
                for j in range(self._k)
            )
        )
        if len(set(keys)) == self._k:
            return keys
        # Affine collision (only possible when stride*K wraps awkwardly):
        # fall back to the dense block, still disjoint within the round.
        base = (position * self._k + offset) % self._r
        return tuple(sorted((base + j) % self._r for j in range(self._k)))

    def _first_unused_probe(self) -> Optional[Tuple[int, ...]]:
        """Fallback when the affine family runs dry (small R): probe the
        set_id space with a golden-ratio stride so the extra sets spread
        uniformly instead of clustering on low entries."""
        import math

        total = num_key_sets(self._r, self._k)
        step = max(1, int(total * 0.6180339887498949))
        while math.gcd(step, total) != 1:
            step += 1
        cursor = getattr(self, "_probe_cursor", 0)
        for _ in range(min(total, 65536)):
            cursor = (cursor + step) % total
            keys = unrank_lex(cursor, self._r, self._k)
            if keys not in self._used_sets:
                self._probe_cursor = cursor
                return keys
        self._probe_cursor = cursor
        return None

    def _pick_keys(self, process_id: ProcessId) -> Tuple[int, ...]:
        # Different affine rounds can occasionally produce the same set;
        # skip such slots while the key space still has unused sets.
        attempts = 0
        max_attempts = 4 * self._sets_per_round + 4
        while True:
            if self._free_slots:
                slot = self._free_slots.pop()
            else:
                slot = self._next_slot
                self._next_slot += 1
            keys = self._keys_for_slot(slot)
            attempts += 1
            if keys not in self._used_sets or attempts >= max_attempts:
                break
        if keys in self._used_sets:
            # The affine family ran dry (it collapses for small R); fall
            # back to a linear scan so sets stay distinct while the key
            # space allows.
            fallback = self._first_unused_probe()
            if fallback is not None:
                keys = fallback
        self._slot_of_process[process_id] = slot
        self._used_sets[keys] = self._used_sets.get(keys, 0) + 1
        return keys

    def _on_release(self, assignment: KeyAssignment) -> None:
        slot = self._slot_of_process.pop(assignment.process_id, None)
        if slot is not None:
            self._free_slots.append(slot)
        count = self._used_sets.get(assignment.keys, 0)
        if count <= 1:
            self._used_sets.pop(assignment.keys, None)
        else:
            self._used_sets[assignment.keys] = count - 1

    def _on_adopt(self, assignment: KeyAssignment) -> None:
        # No slot to claim (the set was picked elsewhere); just mark the
        # set used so local picks avoid it.  _on_release tolerates the
        # missing slot entry.
        self._used_sets[assignment.keys] = self._used_sets.get(assignment.keys, 0) + 1


class BalancedLoadKeyAssigner(KeyAssigner):
    """Greedy least-loaded assignment — a deliberately naive "perfect"
    distribution kept as an ablation baseline.

    Each joining process receives the ``K`` currently least-loaded
    entries (ties by index).  This balances per-entry load exactly, yet
    measures *worse* than the uncoordinated random draw: consecutive
    joiners receive nearly identical sets, and near-duplicate sets are
    covered by a single concurrent message.  The keyspace ablation
    benchmark quantifies the effect; it is the design insight behind
    preferring subset spreading (:class:`PerfectKeyAssigner`) over load
    balancing.
    """

    def __init__(self, r: int, k: int) -> None:
        super().__init__(r, k)
        self._loads = [0] * r
        self._used_sets: Dict[Tuple[int, ...], ProcessId] = {}

    def _pick_keys(self, process_id: ProcessId) -> Tuple[int, ...]:
        order = sorted(range(self._r), key=lambda entry: (self._loads[entry], entry))
        keys = tuple(sorted(order[: self._k]))
        if keys in self._used_sets:
            keys = self._perturb(order)
        for entry in keys:
            self._loads[entry] += 1
        self._used_sets[keys] = process_id
        return keys

    def _perturb(self, order: List[int]) -> Tuple[int, ...]:
        # Walk subsets made of low-load entries until an unused one appears.
        # Try swapping each member of the base subset for each later entry.
        base = order[: self._k]
        for out_pos in range(self._k - 1, -1, -1):
            for replacement in order[self._k :]:
                candidate = sorted(base[:out_pos] + base[out_pos + 1 :] + [replacement])
                keys = tuple(candidate)
                if keys not in self._used_sets:
                    return keys
        # Key space effectively exhausted for distinct sets: reuse the base.
        return tuple(sorted(base))

    def _on_release(self, assignment: KeyAssignment) -> None:
        for entry in assignment.keys:
            self._loads[entry] -= 1
        self._used_sets.pop(assignment.keys, None)

    def _on_adopt(self, assignment: KeyAssignment) -> None:
        for entry in assignment.keys:
            self._loads[entry] += 1
        self._used_sets[assignment.keys] = assignment.process_id


class HashKeyAssigner(KeyAssigner):
    """Stable assigner: ``set_id`` derived by hashing the process identity.

    A process that leaves and later rejoins receives the *same* key set,
    which matters for applications that persist state across sessions.
    Uses SHA-256 so the mapping is stable across Python processes (unlike
    the built-in ``hash``).  Collisions are possible exactly as in the
    uncoordinated random regime.
    """

    def _pick_keys(self, process_id: ProcessId) -> Tuple[int, ...]:
        digest = hashlib.sha256(repr(process_id).encode("utf-8")).digest()
        set_id = int.from_bytes(digest, "big") % num_key_sets(self._r, self._k)
        return unrank_lex(set_id, self._r, self._k)
