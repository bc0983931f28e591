"""Bounded-fanout relay overlay: dissemination without the full mesh.

The mesh runtime sends every broadcast as N−1 unicasts over N−1
reliable sessions, so per-node wire cost and session state grow with
cluster size.  The paper's causal layer never needed the mesh — its
timestamps carry the sender keys, so *any* dissemination substrate that
eventually gets every message everywhere will do.  This module provides
the scalable one, following Eugster et al.'s lightweight probabilistic
broadcast (lpbcast) and Nédelec et al.'s relay-based causal broadcast
(see PAPERS.md):

* every node maintains a **bounded partial view** (``view_size``
  entries) instead of global membership, seeded from whatever peers it
  learns about (explicit ``add_peer``, the membership layer's view);
* a broadcast is pushed as a RELAY envelope to ``fanout`` targets drawn
  from the view; receivers push it on to ``fanout`` of *their* targets
  on first intake and never again (**infect-and-die** — dedup rides the
  endpoint's existing SeenFilter watermark, keyed on the causal
  ``(origin, seq)`` carried in the envelope header);
* each envelope copy **piggybacks** a small sample of the relayer's
  view with probability ``_MERGE_PROBABILITY``, one coin per copy, and
  the receiver merges every sample that arrives — the lpbcast throttle
  that keeps one chatty node from colonising every view (merging every
  sample collapses the views rich-get-richer; ``tests/test_overlay.py``
  pins it and :meth:`PartialView.sample_diversity` makes it
  observable).  The coin is the pusher's, so a copy whose sample would
  be thrown away does not carry one;
* the relay wave reaches (1 − e^{-fanout}) of the swarm in O(log N)
  hops with high probability; the probabilistic tail is healed by the
  node's **gap pull** (a push still undelivered a short grace after it
  arrived sends its pusher a digest) and the **anti-entropy round** (one
  digest per round, to the next partner in a rotation of the bounded
  view, not of the mesh).

Per-broadcast wire cost at any single node is therefore O(fanout), and
session state is bounded by the view plus gossip in-degree — neither
grows with N.  The tradeoff is aggregate redundancy: the swarm as a
whole transmits ~fanout copies of each message where the mesh sends
exactly one per link (see docs/DESIGN.md for the full table).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from random import Random
from typing import Callable, Hashable, List, Optional, Tuple

from repro.core.codec import MemberRecord
from repro.core.errors import ConfigurationError

__all__ = ["OverlayStats", "PartialView"]

Address = Hashable
LiveFilter = Callable[[Address], bool]

# View entries sampled into an outgoing envelope, besides the sender:
# lpbcast's small constant, on which the 64-node swarm test spreads from
# a 4-peer seed ring.
_PIGGYBACK_SIZE = 3
# Chance an envelope copy carries the view sample: the lpbcast throttle
# above, so a sample rides a quarter of the relay copies.
_MERGE_PROBABILITY = 0.25

#: Recent piggyback-sample window used for the diversity gauge.
_DIVERSITY_WINDOW = 256


@dataclass
class OverlayStats:
    """Operational counters of one node's overlay participation.

    ``duplicate-suppression rate`` is ``relay_duplicates /
    (relay_first_intake + relay_duplicates)`` — the fraction of incoming
    relay copies the SeenFilter absorbed without re-forwarding (the cost
    of gossip redundancy, bounded by fanout).
    """

    relay_pushes: int = 0
    relay_first_intake: int = 0
    relay_duplicates: int = 0
    relay_forwarded: int = 0
    merges_applied: int = 0
    view_changes: int = 0
    evictions: int = 0


class PartialView:
    """A bounded, gossip-maintained membership sample (lpbcast-style).

    Holds at most ``view_size`` ``(node_id, address)`` entries, never
    including the local node.  Three maintenance paths:

    * :meth:`add` — authoritative seeding (explicit peers, membership
      view installs): always applied, replacing a random slot when full;
    * :meth:`merge_sample` — piggybacked gossip, applied whenever one
      arrives; the throttle that prevents rich-get-richer view collapse
      is the pusher's :meth:`carries_sample` coin;
    * :meth:`discard` — eviction of quarantined or departed peers.

    Target selection (:meth:`push_targets`) draws ``fanout`` distinct
    entries uniformly from the view; an optional live-filter excludes
    quarantined addresses at selection time.

    Args:
        local_id: this node's sender id (kept out of the view and
            stamped on outgoing gossip samples).
        fanout: relay targets per push.
        view_size: bound on the partial view (must be >= fanout).
        seed: RNG seed; defaults to a stable hash of ``local_id`` so a
            swarm of nodes does not gossip in lockstep while any single
            node stays reproducible across runs.
    """

    def __init__(
        self,
        local_id: Hashable,
        fanout: int = 3,
        view_size: int = 12,
        seed: Optional[int] = None,
    ) -> None:
        if fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
        if view_size < fanout:
            raise ConfigurationError(
                f"view_size ({view_size}) must be >= fanout ({fanout})"
            )
        self.fanout = fanout
        self.view_size = view_size
        self._local_id = str(local_id)
        self._local_address: Optional[Address] = None
        if seed is None:
            seed = zlib.crc32(self._local_id.encode("utf-8"))
        self._rng = Random(seed)
        # address -> node_id ("" until gossip teaches us the id).
        self._entries: dict = {}
        # Rolling window of gossiped ids, for the diversity gauge: under
        # a rich-get-richer collapse a handful of ids dominate incoming
        # samples and the distinct ratio sinks towards 1/window.
        self._sample_window: List[str] = []
        self.stats = OverlayStats()

    # ------------------------------------------------------------------
    # view maintenance
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: Address) -> bool:
        return address in self._entries

    def set_local_address(self, address: Address) -> None:
        """Learn the local transport address (stamped on gossip samples
        so our id propagates; also self-excluded from the view)."""
        self._local_address = address
        if self.discard(address):
            self.stats.view_changes += 1

    def add(self, address: Address, node_id: str = "") -> bool:
        """Authoritatively admit (or relabel) one entry; True on change.

        When the view is full a uniformly random victim is replaced —
        the memoryless slot policy lpbcast uses, which keeps the view a
        fair sample of everything ever offered instead of an LRU of the
        loudest peers.
        """
        if address is None or address == self._local_address:
            return False
        node_id = str(node_id) if node_id else ""
        if node_id == self._local_id:
            return False
        current = self._entries.get(address)
        if current is not None:
            if node_id and current != node_id:
                self._entries[address] = node_id
                return True
            return False
        if len(self._entries) >= self.view_size:
            victim = self._rng.choice(list(self._entries))
            del self._entries[victim]
        self._entries[address] = node_id
        self.stats.view_changes += 1
        return True

    def discard(self, address: Address) -> bool:
        """Drop one entry (quarantine eviction, membership departure)."""
        if self._entries.pop(address, None) is None:
            return False
        self.stats.evictions += 1
        return True

    def merge_sample(
        self,
        sample: Tuple[MemberRecord, ...],
        exclude: Tuple[Address, ...] = (),
    ) -> bool:
        """Fold a piggybacked view sample in; True if the view changed.

        The throttle already ran at the pusher (:meth:`carries_sample`):
        a copy that lost the coin arrives with an empty sample, and
        whatever does arrive is merged and recorded in the diversity
        window.
        """
        if not sample:
            return False
        for record in sample:
            self._sample_window.append(record.node_id or str(record.address))
        del self._sample_window[:-_DIVERSITY_WINDOW]
        merged = False
        for record in sample:
            if record.address in exclude:
                continue
            if self.add(record.address, record.node_id):
                merged = True
        self.stats.merges_applied += 1
        return merged

    # ------------------------------------------------------------------
    # target selection
    # ------------------------------------------------------------------

    def _eligible(
        self,
        exclude: Tuple[Address, ...],
        live_filter: Optional[LiveFilter],
    ) -> List[Address]:
        return [
            address
            for address in self._entries
            if address not in exclude
            and (live_filter is None or live_filter(address))
        ]

    def push_targets(
        self,
        exclude: Tuple[Address, ...] = (),
        live_filter: Optional[LiveFilter] = None,
    ) -> List[Address]:
        """Up to ``fanout`` distinct live targets for one relay push."""
        candidates = self._eligible(exclude, live_filter)
        if len(candidates) <= self.fanout:
            return candidates
        return self._rng.sample(candidates, self.fanout)

    def digest_targets(
        self, live_filter: Optional[LiveFilter] = None
    ) -> List[Address]:
        """Every live view entry: the candidates a round's one digest
        partner is drawn from (and where membership announcements go)."""
        return self._eligible((), live_filter)

    def carries_sample(self) -> bool:
        """One ``_MERGE_PROBABILITY`` coin: whether the next outgoing
        envelope copy carries :meth:`gossip_sample` (one flip per copy,
        so the targets of one push merge independently)."""
        return self._rng.random() < _MERGE_PROBABILITY

    def gossip_sample(self) -> Tuple[MemberRecord, ...]:
        """The membership sample to piggyback on an outgoing envelope:
        up to ``_PIGGYBACK_SIZE`` random view entries plus ourselves (how
        a new node's address spreads beyond its seed peers)."""
        sample: List[MemberRecord] = []
        if self._entries:
            count = min(_PIGGYBACK_SIZE, len(self._entries))
            for address in self._rng.sample(list(self._entries), count):
                sample.append(
                    MemberRecord(
                        node_id=self._entries[address], address=address
                    )
                )
        if self._local_address is not None:
            sample.append(
                MemberRecord(node_id=self._local_id, address=self._local_address)
            )
        return tuple(sample)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def entries(self) -> Tuple[MemberRecord, ...]:
        """The current view as records (tests and gauges)."""
        return tuple(
            MemberRecord(node_id=node_id, address=address)
            for address, node_id in self._entries.items()
        )

    def addresses(self) -> List[Address]:
        return list(self._entries)

    def sample_diversity(self) -> float:
        """Distinct ids in the recent piggyback-sample stream, as a
        fraction of the window (1.0 until the first sample arrives).

        The live early-warning for the simulator's documented
        rich-get-richer view collapse: when a few popular nodes take
        over the gossip, this sinks long before delivery suffers.
        """
        if not self._sample_window:
            return 1.0
        return len(set(self._sample_window)) / len(self._sample_window)

    def bind_metrics(self, registry) -> None:
        """Export the overlay tallies through a collector:
        ``repro_relay_*_total`` counters, the view-size and
        sample-diversity gauges."""

        def collect() -> dict:
            stats = self.stats
            copies = stats.relay_first_intake + stats.relay_duplicates
            return {
                "repro_relay_pushes_total": stats.relay_pushes,
                "repro_relay_first_intake_total": stats.relay_first_intake,
                "repro_relay_duplicates_total": stats.relay_duplicates,
                "repro_relay_forwarded_total": stats.relay_forwarded,
                "repro_overlay_merges_applied_total": stats.merges_applied,
                "repro_overlay_view_changes_total": stats.view_changes,
                "repro_overlay_evictions_total": stats.evictions,
                "repro_overlay_view_size": len(self._entries),
                "repro_overlay_sample_diversity": self.sample_diversity(),
                "repro_relay_duplicate_suppression_rate": (
                    stats.relay_duplicates / copies if copies else 0.0
                ),
            }

        registry.register_collector(collect)
