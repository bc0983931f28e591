"""Bounded-fanout relay overlay: dissemination without the full mesh.

The mesh runtime sends every broadcast as N−1 unicasts over N−1
reliable sessions, so per-node wire cost and session state grow with
cluster size.  The paper's causal layer never needed the mesh — its
timestamps carry the sender keys, so *any* dissemination substrate that
eventually gets every message everywhere will do.  This module provides
the scalable one: a **bounded partial view** maintained by lpbcast's
gossip (Eugster et al.) carrying Plumtree's **per-origin eager push
trees** (Leitão et al., *Epidemic Broadcast Trees*; see PAPERS.md):

* every node keeps at most ``view_size`` view entries instead of global
  membership, seeded from whatever peers it learns about (explicit
  ``add_peer``, the membership layer's view); each RELAY copy carries a
  small view sample with probability ``_MERGE_PROBABILITY`` (one coin
  per copy, the lpbcast throttle against rich-get-richer collapse, which
  :meth:`PartialView.sample_diversity` makes observable);
* a node's **eager links** start as ``fanout`` view entries at its
  first push; a peer whose RELAY brought a first copy, or that a GRAFT
  names, becomes one too, and eviction, quarantine and departure drop
  one.  Each message is pushed on every link whose peer has not pruned
  its origin, and forwarded on first intake only (dedup rides the
  endpoint's SeenFilter, keyed on the envelope's ``(origin, seq)``);
* a **duplicate** copy of origin o's message sends its pusher a
  ``PRUNE(o)`` — unless the first copy of o's latest message came from
  a link pruned here, which keeps every node one live inbound link per
  origin.  Prunes are per origin: one set shared by all origins lets a
  concurrent burst cut whole nodes out of every tree;
* a **repair** that delivers a message the trees missed sends the
  repairer a ``GRAFT`` for every origin, making that link eager both
  ways.  The lazy half — the gap pull, the anti-entropy round and the
  two rules that make them exact about what a tree lost — is
  :mod:`repro.net.repair`'s.

Once the trees have formed each message crosses about one link per
node — ~1.03 RELAY copies per delivery on the 16-node paced twin, where
fanout-3 infect-and-die gossip sent 3.1 — and per-node state stays
bounded by the view and the origins (docs/DESIGN.md has the table).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Dict, Hashable, List, Optional, Tuple

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
    relay copies the SeenFilter absorbed without re-forwarding: high
    while the trees form (each duplicate sends a PRUNE) and near zero
    once they have, where gossip held it near 1 − 1/fanout.
    """

    relay_pushes: int = 0
    relay_first_intake: int = 0
    relay_duplicates: int = 0
    relay_forwarded: int = 0
    prunes_sent: int = 0
    grafts_sent: int = 0
    merges_applied: int = 0
    view_changes: int = 0
    evictions: int = 0


@dataclass
class _Tree:
    """One origin's eager tree here: who brought the first copy of its
    latest message, the links that pruned it and the links we pruned."""

    first: Optional[Address] = None
    pruned_by: Dict[Address, None] = field(default_factory=dict)
    pruning: Dict[Address, None] = field(default_factory=dict)


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

    :meth:`push_targets` draws ``fanout`` distinct entries uniformly
    from the view (membership announcements, a node's first eager
    links); :meth:`eager_targets` is where a RELAY goes.  An optional
    live-filter excludes quarantined addresses at selection time.

    Args:
        local_id: this node's sender id (kept out of the view and
            stamped on outgoing gossip samples).
        fanout: eager links a node starts with (and membership
            announcement targets per push).
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
        # The eager links, insertion-ordered (never a set: the push
        # order must not follow the hash seed), and each origin's tree,
        # whose prune tables only ever hold links.
        self.links: Dict[Address, None] = {}
        self._seeded = False
        self.trees: Dict[str, _Tree] = {}
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
        """Drop one entry and its link (quarantine eviction, membership
        departure)."""
        self.unlink(address)
        if self._entries.pop(address, None) is None:
            return False
        self.stats.evictions += 1
        return True

    def merge_sample(self, sample: Tuple[MemberRecord, ...]) -> bool:
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
        """Up to ``fanout`` distinct live view entries, drawn at random."""
        candidates = self._eligible(exclude, live_filter)
        if len(candidates) <= self.fanout:
            return candidates
        return self._rng.sample(candidates, self.fanout)

    def digest_targets(
        self, live_filter: Optional[LiveFilter] = None
    ) -> List[Address]:
        """Every live view entry (every entry without ``live_filter``):
        the candidates a round's one digest partner is drawn from, and
        where membership announcements and heartbeats go."""
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
    # eager trees
    # ------------------------------------------------------------------

    def eager_targets(
        self, origin: str, exclude: Optional[Address] = None,
        live_filter: Optional[LiveFilter] = None,
    ) -> List[Address]:
        """The links ``origin``'s messages are pushed on: all but
        ``exclude`` and those that pruned it.  The first push, and one
        after every link went, links ``fanout`` view entries first."""
        if not self._seeded or not self.links:
            self._seeded = True
            for address in self.push_targets(tuple(self.links), live_filter):
                self.link(address)
        pruned = self.trees[origin].pruned_by if origin in self.trees else ()
        return [
            address for address in self.links
            if address != exclude and address not in pruned
            and (live_filter is None or live_filter(address))
        ]

    def link(self, address: Address) -> None:
        """Make ``address`` an eager link (the oldest goes beyond
        ``view_size``)."""
        if address != self._local_address and address not in self.links:
            if len(self.links) >= self.view_size:
                self.unlink(next(iter(self.links)))
            self.links[address] = None

    def unlink(self, address: Address) -> None:
        """Drop ``address``'s link and every tree's record of it."""
        self.links.pop(address, None)
        for tree in self.trees.values():
            tree.pruned_by.pop(address, None)
            tree.pruning.pop(address, None)
            if tree.first == address:
                tree.first = None

    def first_copy(self, origin: str, address: Address) -> None:
        """``address`` brought the first copy of ``origin``'s latest
        message: it is an eager link, and that tree's inbound one."""
        self.link(address)
        self._tree(origin).first = address

    def prune(self, origin: str, address: Address, own: bool) -> bool:
        """A duplicate of ``origin``'s message came from ``address``:
        whether to send it a PRUNE.  Never on the last inbound link —
        only while the first copy of ``origin``'s latest message came
        from another link not pruned here (``own``: the origin needs
        none).  Repeated for every duplicate, so a lost PRUNE costs one."""
        tree = self._tree(origin)
        if address == tree.first or not own and (
            tree.first is None or tree.first in tree.pruning
        ):
            return False
        if address in self.links:
            tree.pruning[address] = None
        self.stats.prunes_sent += 1
        return True

    def edit_tree(self, origin: str, address: Address, graft: bool) -> None:
        """A PRUNE or GRAFT from ``address`` (or a GRAFT sent to it) for
        ``origin``, every origin when empty: a PRUNE stops our pushes to
        it, a GRAFT makes it an eager link pruned neither way."""
        if graft:
            self.link(address)
        elif not origin:
            return self.unlink(address)
        if origin and origin != self._local_id and origin not in self.trees:
            return  # no tree here to edit: this node never relayed it
        for tree in (self._tree(origin),) if origin else self.trees.values():
            if graft:
                tree.pruned_by.pop(address, None)
                tree.pruning.pop(address, None)
            elif address in self.links:
                tree.pruned_by[address] = None

    def _tree(self, origin: str) -> _Tree:
        if origin not in self.trees:
            self.trees[origin] = _Tree()
        return self.trees[origin]

    def tree_sizes(self) -> Dict[str, int]:
        """Entries of the eager-tree tables, for ``state_sizes()``."""
        return {
            "overlay_links": len(self.links),
            "overlay_trees": len(self.trees),
            "overlay_prunes": sum(len(t.pruned_by) + len(t.pruning) for t in self.trees.values()),
        }

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

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
                "repro_relay_prunes_total": stats.prunes_sent,
                "repro_relay_grafts_total": stats.grafts_sent,
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

