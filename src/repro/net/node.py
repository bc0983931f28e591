"""A deployable causal broadcast node: endpoint + codec + reliable session.

This is the networked counterpart of the simulator's node — the piece the
ROADMAP's "runnable networked system" needs.  It stacks, bottom-up:

* any :class:`~repro.net.peer.Transport` (UDP, the in-process bus, or a
  fault-injecting wrapper),
* a :class:`~repro.net.session.ReliableSession` (acks, NACK-driven
  retransmission, backoff, backpressure),
* a :class:`MessageStore` keeping recently seen messages by their causal
  ``(sender, seq)`` id and answering anti-entropy digests,
* the :class:`~repro.core.protocol.CausalBroadcastEndpoint` (Algorithms
  1–2 + detector) and the binary :class:`~repro.core.codec.MessageCodec`.

Every message, however it travelled — a DATA payload off a reliable
link, an anti-entropy push, the body of a RELAY envelope — enters through
:meth:`ReliableCausalNode._admit`: decode (full or delta), check it
against the clock's vector size, its envelope and the group view, store
the full encoding, hand it to the endpoint.  The mesh and relay handlers
add only what is theirs.

On the wire every broadcast (o, s) is encoded once (``wire_delta``): as
the entries changed since the sender's previous broadcast (o, s − 1) —
O(K) bytes instead of O(R) — when that is smaller than the full form,
and the same body goes out on every mesh link and in every RELAY
envelope, which relayers forward verbatim.  No ack is needed: Algorithm
1 bumps the sender's own entries on every send, so a receiver must hold
(o, s − 1) before it may deliver (o, s) anyway.  A delta that outruns
its reference is parked until the reference is admitted (a per-sender
FIFO in miniature); one whose reference the store recorded but no
longer holds (a restart, an eviction) is a counted miss that triggers
an immediate anti-entropy exchange, which re-delivers it full
(PROTOCOL.md §8.3).

Retransmission handles the common case (a datagram lost on one link);
the periodic anti-entropy exchange handles the rest: every round each
node digests its per-sender frontiers to **one** partner — the next in
a shuffled rotation of its live peers (mesh) or view members (overlay) —
and a peer that holds messages outside that digest pushes them back
over the reliable session.  One partner per round prices repair by
damage, not by time × peers: a gap is answered once, not by everyone
who holds it.  Because every stored message is relayed on request,
anti-entropy also heals *transitive* gaps — a message from A can reach
C via B even if the A→C link dropped every copy.  Relay pushes are
fire-and-forget and have no NACK; their gap request is a digest to the
pusher, sent when a pushed message is still undelivered a short grace
after it arrived (``_GAP_PULL_GRACE``).

Construct nodes with :func:`repro.api.create_node` rather than by hand.
"""

from __future__ import annotations

import asyncio
import logging
import random
import time
import zlib
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import Any, Callable, Deque, Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.clocks import EntryVectorClock
from repro.core.codec import CodecCounters, MessageCodec, RelayFrame
from repro.core.detector import DeliveryErrorDetector, DetectorStats
from repro.core.errors import ConfigurationError
from repro.core.pending import SeenFilter
from repro.core.protocol import CausalBroadcastEndpoint, DeliveryRecord, EndpointStats, Message
from repro.net.journal import NodeJournal, RecoveredState
from repro.net.liveness import LivenessPolicy, PeerLivenessMonitor
from repro.net.overlay import PartialView
from repro.net.peer import Transport
from repro.net.session import ReliableSession, RetransmitPolicy, TransportStats
from repro.obs import JsonlExporter, MetricsHttpServer, MetricsRegistry, TraceRing

__all__ = [
    "StoreStats",
    "RepairStats",
    "MessageStore",
    "NodeStats",
    "ReliableCausalNode",
]

logger = logging.getLogger(__name__)

Address = Hashable
DeliveryHandler = Callable[[DeliveryRecord], None]
Frontiers = Dict[str, Tuple[int, Tuple[int, ...]]]


@dataclass
class StoreStats:
    """Operational counters of one :class:`MessageStore`."""

    evictions: int = 0
    unservable_requests: int = 0


@dataclass
class RepairStats:
    """What anti-entropy cost one node and what it bought.

    Attributes:
        repairs_sent: stored messages pushed in answer to digests.
        repair_duplicates: messages off a reliable link the endpoint had
            already seen — a repair (or a journal-restart replay) that
            bought nothing.  Fleet-wide, ``repairs_sent /
            (repairs_sent - repair_duplicates)`` is repairs sent per
            repair needed.
        gap_pulls_armed: grace timers started for a relay push that
            arrived ahead of its causal past.
        gap_pulls: timers that found the message still undelivered and
            sent a digest — to the pusher, or on a retry (a grace later,
            the gap still open) to the next partner.
        gap_pulls_unneeded: of those, the ones whose message a later
            relay push released first (the grace was too short for the
            path, not a loss).
        resync_fallbacks: out-of-band digests re-aimed at the round's
            partner because the intended address could not be digested
            (not a peer or view member, quarantined, evicted).
    """

    repairs_sent: int = 0
    repair_duplicates: int = 0
    gap_pulls_armed: int = 0
    gap_pulls: int = 0
    gap_pulls_unneeded: int = 0
    resync_fallbacks: int = 0


@dataclass
class NodeStats:
    """One coherent snapshot of everything a node can report about itself.

    The structured counterpart of the registry snapshot: typed stats
    objects for programmatic use, plus the full registry ``snapshot``
    dict (the JSONL/Prometheus shape) for export and rendering.
    """

    node_id: str
    endpoint: EndpointStats
    detector: DetectorStats
    wire: TransportStats
    store: StoreStats
    pending: int
    decode_errors: int
    quarantines: int
    resumes: int
    snapshot: dict


class MessageStore:
    """Bounded store of encoded messages keyed by causal ``(sender, seq)``.

    What was ever recorded is a :class:`~repro.core.pending.SeenFilter`
    — per sender, the *contiguous frontier* (every seq up to it is
    known) plus any out-of-order extras — exactly the shape of the
    anti-entropy digest.  Old message *bytes* are evicted FIFO beyond
    ``_STORE_LIMIT`` (the coverage stays, so digests remain truthful;
    evicted messages simply can no longer be served).

    **Sizing tradeoff**: the limit bounds memory, but an evicted message
    is silently unservable to anti-entropy — a peer that missed it and
    lost every retransmission can then only be healed by a *third* node
    that still holds the bytes.  :attr:`stats` counts evictions and
    digest requests that hit the evicted range, and the first such
    unservable request is logged as a warning.
    """

    def __init__(self) -> None:
        self._data: Dict[Tuple[str, int], bytes] = {}
        self._order: Deque[Tuple[str, int]] = deque()
        self._coverage = SeenFilter()
        self._evicted_high: Dict[str, int] = {}
        self._warned_unservable = False
        self.stats = StoreStats()

    def __len__(self) -> int:
        return len(self._data)

    def add(self, sender: str, seq: int, data: bytes) -> bool:
        """Record one encoded message; returns True when it was new."""
        key = (sender, seq)
        if not self._coverage.add(key):
            return False
        self._data[key] = data
        self._order.append(key)
        while len(self._data) > _STORE_LIMIT:
            evicted_sender, evicted_seq = self._order.popleft()
            self._data.pop((evicted_sender, evicted_seq), None)
            self.stats.evictions += 1
            if evicted_seq > self._evicted_high.get(evicted_sender, 0):
                self._evicted_high[evicted_sender] = evicted_seq
        return True

    def knows(self, sender: str, seq: int) -> bool:
        """Whether this id was ever recorded (bytes may be evicted)."""
        return (sender, seq) in self._coverage

    def get(self, sender: str, seq: int) -> Optional[bytes]:
        """The stored encoding, or None if unknown or evicted."""
        return self._data.get((sender, seq))

    def frontiers(self) -> Frontiers:
        """Per-sender ``(contiguous, extras)`` — the anti-entropy digest."""
        return self._coverage.frontiers()

    def missing_for(self, remote: Frontiers) -> Iterator[bytes]:
        """Stored encodings the remote digest does not cover (oldest
        first, at most ``_REPAIRS_PER_DIGEST``).

        Also detects (heuristically, via the per-sender evicted high-water
        mark) a request reaching into the evicted range: counted in
        :attr:`stats` and warned about once, because such gaps can only
        be healed by another node.
        """
        for sender, high in self._evicted_high.items():
            if remote.get(sender, (0, ()))[0] < high:
                self.stats.unservable_requests += 1
                if not self._warned_unservable:
                    self._warned_unservable = True
                    logger.warning(
                        "anti-entropy request reaches into evicted messages "
                        "(sender %r up to seq %d); this node cannot serve them "
                        "— only a node that still holds them can",
                        sender, high,
                    )
                break
        # The senders whose contiguous frontier in the digest stops short
        # of what is recorded here.  Usually none (an up-to-date partner
        # is owed nothing, decided in O(senders) with no store scan) or
        # one or two, and the scan skips everyone else's messages.
        behind = {
            sender
            for sender, (contiguous, extras) in self._coverage.frontiers().items()
            if remote.get(sender, (0, ()))[0] < max((contiguous, *extras))
        }
        if not behind:
            return
        served = 0
        for sender, seq in self._order:
            if sender not in behind:
                continue
            if served >= _REPAIRS_PER_DIGEST:
                return
            contiguous, extras = remote.get(sender, (0, ()))
            if seq <= contiguous or seq in extras:
                continue
            data = self._data.get((sender, seq))
            if data is not None:
                served += 1
                yield data

    def restore_frontiers(self, frontiers: Frontiers) -> None:
        """Adopt journal-recovered per-sender coverage (empty store only).

        The restarted node *knows* these ids (duplicate suppression and
        digests must cover them) but no longer holds their bytes — the
        whole recovered range is marked evicted; peers keep the copies.
        """
        self._coverage.restore(frontiers)  # raises unless empty
        for sender, (contiguous, extras) in self._coverage.frontiers().items():
            high = max((contiguous, *extras))
            if high > 0:
                self._evicted_high[sender] = high

    def restore_message(self, sender: str, seq: int, data: bytes) -> None:
        """Re-stock the bytes of an id already covered by restored
        frontiers (own WAL-journalled broadcasts), making it servable."""
        key = (sender, seq)
        if key in self._data:
            return
        if not self.knows(sender, seq):
            raise ConfigurationError(
                f"restore_message() is for recovered ids; {key} is unknown"
            )
        self._data[key] = data
        self._order.append(key)

    def purge_sender(self, sender: str) -> int:
        """Drop everything recorded for one sender (view eviction).

        Removes the sender's bytes, ordering entries, and frontier
        bookkeeping, so an evicted peer stops occupying store budget and
        stops appearing in outgoing digests; returns the number of
        stored encodings dropped.  Peers that still hold the departed
        sender's messages may push a few back through anti-entropy until
        their own views catch up — those re-adds are bounded by their
        store limits and age out FIFO like any other traffic.
        """
        dropped = 0
        for key in [key for key in self._data if key[0] == sender]:
            del self._data[key]
            dropped += 1
        if dropped:
            self._order = deque(key for key in self._order if key[0] != sender)
        self._coverage.forget(sender)
        self._evicted_high.pop(sender, None)
        return dropped


# How long a relay push that arrived ahead of its causal past may stay
# undelivered before its pusher is asked for the gap (seconds; twice the
# link's smoothed RTT when that is longer).  Not zero: mid-wave the
# missing messages are usually in flight on a longer relay path, and a
# digest sent then claims them all as missing — the answers load a loop
# that has not yet read the originals (EXPERIMENTS.md, "Anti-entropy
# priced by damage": the immediate pull collapses into a retransmit storm).
# A pull that leaves the gap open is repeated, so the first need not
# race the wave (EXPERIMENTS.md, "One delta rule": 30 ms sent 25 % more
# repairs for a 5 % shorter settle).
_GAP_PULL_GRACE = 0.04
# Relay envelopes above this hop count are delivered but not forwarded:
# a backstop against pathological views (a healthy wave needs about
# log_fanout(N) hops, so 32 covers any plausible swarm many times over).
_MAX_HOPS = 32
# Deltas held for a reference not yet admitted, across all senders.  A
# lost frame parks every later delta of its sender until the frame is
# retransmitted; one more beyond the bound is a counted miss and a
# resync instead.  Half the store: a 600-broadcast burst from each of
# three peers, every one overtaking its reference, still fits.
_PARK_LIMIT = 4096
# Encoded messages a node keeps to answer digests, evicted FIFO beyond
# it: about four seconds of the 4-node loopback closed loop (4 × ~500
# broadcasts/s); an older gap heals only from a third node.
_STORE_LIMIT = 8192
# Stored messages one digest is answered with; a partner further behind
# gets the rest on its next digest, so one answer cannot flood a link.
_REPAIRS_PER_DIGEST = 256
# Minimum spacing of out-of-band digests to one address (seconds).
_RESYNC_INTERVAL = 0.05
# How many delivery records `deliveries` / `delivered_payloads()` look
# back over.  Exact totals are the endpoint's counters; a node keeps
# nothing per message for the length of a run.
_RECENT_DELIVERIES = 1024
# Eviction records (and the warn-once marks that hang off them) kept
# before the oldest ages out.
_EVICTION_WINDOW = 256
# A link whose deltas bounce this often has lost its reference for good
# (warned about once, after _DELTA_MISS_WARN_AFTER deltas).
_DELTA_MISS_WARN_RATIO = 0.05
_DELTA_MISS_WARN_AFTER = 100


def _coverage_sizes(name: str, frontiers: Frontiers) -> Dict[str, int]:
    """One coverage record's two ``state_sizes()`` rows."""
    return {
        f"{name}_senders": len(frontiers),
        f"{name}_tail": sum(len(tail) for _, tail in frontiers.values()),
    }


def _delta_miss_ratio(misses: int, decoded: int) -> float:
    """Share of arriving deltas that named an unknown reference."""
    arrived = misses + decoded
    return misses / arrived if arrived else 0.0


# A message a delta may name: (message seq, vector, sender keys).
_Reference = Tuple[int, np.ndarray, Tuple[int, ...]]


class ReliableCausalNode:
    """One networked participant with reliable dissemination.

    The public surface is broadcast / add_peer / deliveries plus
    lifecycle (:meth:`start`, :meth:`close`) and wire observability
    (:meth:`transport_stats`).  What a node holds is O(senders + peers)
    plus what is in flight, never O(messages delivered):
    :attr:`deliveries` is a recent window (exact counts live in
    ``endpoint.stats``), every per-sender record of what was received or
    delivered is one :class:`~repro.core.pending.SeenFilter`, and
    :meth:`state_sizes` counts the entries of every table.

    Args:
        node_id: this node's identity (the message sender id).
        clock: its logical clock (any member of the (n, r, k) family).
        transport: datagram substrate; the node's session owns it.
        detector: optional Algorithm 4/5 alert check.
        codec: message wire format (binary + JSON payloads by default).
        on_delivery: synchronous callback per delivery.
        policy: retransmission tuning (see :class:`RetransmitPolicy`).
        anti_entropy_interval: seconds between digest rounds; 0 disables
            the periodic exchange (retransmission-only mode).
        max_pending: optional safety bound on the endpoint's pending
            queue (always the entry-indexed
            :class:`~repro.core.pending.PendingBuffer`).
        journal: optional :class:`~repro.net.journal.NodeJournal`; when
            given, the constructor replays any prior state (clock,
            delivered frontiers, link seqs) before a single datagram can
            arrive, and every send/delivery is logged ahead of the wire.
            Requires a pristine ``clock``.
        liveness: optional :class:`~repro.net.liveness.LivenessPolicy`;
            when given, :meth:`start` runs a heartbeat/failure-detector
            loop that quarantines silent peers and heals them on return
            (a beacon is skipped when the link sent any datagram within
            the last interval — traffic already proves liveness).
        wire_delta: delta-encode each broadcast against this node's
            previous one, on every link and relay hop alike (O(K) wire
            bytes instead of O(R)).
            :func:`repro.api.create_node` derives it from the clock
            scheme: False only for one that draws its keys per message
            (a delta carries no keys).  Incoming deltas are decoded
            either way.
        overlay: optional :class:`~repro.net.overlay.PartialView`; when
            given, the node disseminates in **overlay mode** — each
            broadcast is pushed as a RELAY envelope to ``fanout`` peers
            from the bounded partial view (relayed onward by receivers,
            infect-and-die), anti-entropy digests and heartbeats go to
            the view instead of the full peer list, and per-node wire
            cost stops growing with cluster size.  ``None`` (default)
            keeps the full-mesh dissemination.
        metrics: the node's :class:`~repro.obs.MetricsRegistry`; created
            automatically (with a ``node=<id>`` label) when not given —
            every node is observable, the instruments cost nothing until
            snapshotted.
        trace: structured trace-event ring; created automatically.
        metrics_path: when set, a background task appends one registry
            snapshot per ``metrics_interval`` seconds to this JSONL
            file (plus a final line on :meth:`close`).
        metrics_interval: seconds between JSONL export lines.
        metrics_port: when set, :meth:`start` serves Prometheus text at
            ``http://127.0.0.1:<port>/metrics`` (0 = ephemeral; the
            bound port is ``node.metrics_server.port``).
    """

    def __init__(
        self,
        node_id: Hashable,
        clock: EntryVectorClock,
        transport: Transport,
        detector: Optional[DeliveryErrorDetector] = None,
        codec: Optional[MessageCodec] = None,
        on_delivery: Optional[DeliveryHandler] = None,
        policy: Optional[RetransmitPolicy] = None,
        anti_entropy_interval: float = 0.5,
        max_pending: Optional[int] = None,
        journal: Optional[NodeJournal] = None,
        liveness: Optional[LivenessPolicy] = None,
        wire_delta: bool = True,
        overlay: Optional[PartialView] = None,
        metrics: Optional[MetricsRegistry] = None,
        trace: Optional[TraceRing] = None,
        metrics_path: Optional[str] = None,
        metrics_interval: float = 1.0,
        metrics_port: Optional[int] = None,
    ) -> None:
        if anti_entropy_interval < 0:
            raise ConfigurationError(
                f"anti_entropy_interval must be >= 0, got {anti_entropy_interval}"
            )
        if metrics_interval <= 0:
            raise ConfigurationError(
                f"metrics_interval must be > 0, got {metrics_interval}"
            )
        self._node_id = node_id
        self._codec = codec if codec is not None else MessageCodec()
        self._on_delivery = on_delivery
        self._peers: List[Address] = []
        self._deliveries: Deque[DeliveryRecord] = deque(maxlen=_RECENT_DELIVERIES)
        self._decode_errors = 0
        self._anti_entropy_interval = anti_entropy_interval
        # Digest rounds are spread uniformly over [0.5, 1.5) x interval
        # (mean preserved): a swarm of nodes started together must not
        # fire synchronized digest storms every interval forever.
        self._anti_entropy_rng = random.Random(
            zlib.crc32(str(node_id).encode("utf-8")) ^ 0x5EED
        )
        self._anti_entropy_task: Optional[asyncio.Task] = None
        # The digest partners in visiting order; the head is next.
        self._partner_rotation: List[Address] = []
        self.repair_stats = RepairStats()
        # The one armed grace timer, and the message the last pull it
        # sent is waiting on (None once that message was delivered).
        self._gap_pull_timer: Optional[asyncio.TimerHandle] = None
        self._gap_pull_open: Optional[Tuple[str, int]] = None
        self._liveness_task: Optional[asyncio.Task] = None
        self._heal_tasks: Set[asyncio.Task] = set()
        self._heartbeat_count = 0
        self._heartbeats_suppressed = 0
        self._wire_delta = wire_delta
        # Delta wire state.  Sending: this node's previous broadcast, as
        # (seq, vector) — the one reference for every link and relay
        # hop.  Receiving: per sender, its newest admitted message (what
        # its next delta names; the slot spares the hot path a decode
        # and outlives the store's eviction for a quiet sender), with
        # the store behind it; and the deltas that outran their
        # reference, parked by the (sender, seq) of that reference as
        # (data, address) until it is admitted.
        self._previous: Optional[Tuple[int, np.ndarray]] = None
        self._ref_newest: Dict[str, _Reference] = {}
        self._parked: Dict[Tuple[str, int], Tuple[bytes, Address]] = {}
        self._resync_last: Dict[Address, float] = {}
        self._delta_miss_warned: Set[Address] = set()
        # An own broadcast's encoding, handed from the WAL write inside
        # the delivery upcall to broadcast() (one encode, not two).
        self._wal_encoding: Optional[bytes] = None
        # View-evicted peers: address -> sender id, bounded so a long
        # churn history cannot grow it; frames from these addresses are
        # dropped (with one warning per address, and one per departed
        # sender relayed by a live peer) until a re-join clears the
        # mark or the record ages out.
        self._evicted_peers: "OrderedDict[Address, str]" = OrderedDict()
        self._stale_warned: Set[Address] = set()
        self._stale_senders_warned: Set[str] = set()
        self._stale_frames = 0
        # Per-sender *delivered* coverage, maintained whether or not a
        # journal exists: the membership layer's join state transfer
        # pairs this with the clock vector (using the *received* store
        # frontiers there would mark pending messages as covered and
        # wedge the joiner).
        self._delivered = SeenFilter()
        # Attached by GroupMembership.attach(); duck-typed to avoid an
        # import cycle with repro.net.membership.
        self.membership = None
        # Set by repro.api.create_node when --adaptive is on; duck-typed
        # for the same reason (repro.net.adaptive imports nothing from
        # here, but the assembly order is api's business).
        self.adaptive = None
        self.store = MessageStore()
        self.journal = journal
        self.liveness = (
            PeerLivenessMonitor(liveness) if liveness is not None else None
        )
        self._liveness_policy = liveness
        self.overlay = overlay

        # Observability: every node owns a registry (collectors are free
        # until snapshotted) and a trace ring; the exporter and HTTP
        # endpoint are armed in start() when configured.
        self.metrics = (
            metrics if metrics is not None
            else MetricsRegistry(labels={"node": str(node_id)})
        )
        self.trace = trace if trace is not None else TraceRing()
        self._metrics_path = metrics_path
        self._metrics_interval = metrics_interval
        self._metrics_port = metrics_port
        self._exporter: Optional[JsonlExporter] = None
        self._export_task: Optional[asyncio.Task] = None
        self.metrics_server: Optional[MetricsHttpServer] = None

        # Recovery runs strictly before the session exists: by the time
        # a datagram can arrive, the clock, duplicate filter, store
        # frontiers, and link seqs already reflect the pre-crash state.
        self.recovered: Optional[RecoveredState] = None
        if journal is not None:
            journal.bind_metrics(self.metrics)  # before open(): times replay
            self.recovered = journal.open()
        if self.recovered is not None:
            if (
                self.recovered.own_keys
                and tuple(self.recovered.own_keys) != tuple(clock.own_keys)
            ):
                # A membership rekey (join state transfer) changed the
                # effective entry set; the pristine clock adopts it
                # before the vector is restored.
                clock.rekey(self.recovered.own_keys)
            clock.restore_state(self.recovered.vector, self.recovered.send_seq)

        self.endpoint = CausalBroadcastEndpoint(
            process_id=str(node_id),
            clock=clock,
            detector=detector,
            deliver_callback=self._handle_delivery,
            max_pending=max_pending,
        )
        self.endpoint.bind_metrics(self.metrics, self.trace)
        if self.recovered is not None:
            self.adopt_coverage(self.recovered.delivered)
            for seq, data in self.recovered.own_messages.items():
                self.store.restore_message(str(node_id), seq, data)
            # Restart accounting: a fresh detector resumes the crashed
            # incarnation's lifetime counters, so the exported alert
            # *rate* stays meaningful across restarts.
            stats = self.endpoint.detector.stats
            stats.checks += self.recovered.detector_checks
            stats.alerts += self.recovered.detector_alerts

        self.session = ReliableSession(
            transport,
            on_message=self._handle_wire_message,
            on_digest=self._handle_digest,
            policy=policy,
            on_peer_activity=(
                self._handle_peer_activity if self.liveness is not None else None
            ),
            on_link_seq=(journal.ensure_lease if journal is not None else None),
            on_membership=self._handle_membership_frame,
            on_relay=(self._handle_relay if overlay is not None else None),
            data_gate=self._data_plane_admitted,
        )
        if self.recovered is not None:
            for address, link in self.recovered.links.items():
                self.session.restore_peer(
                    address,
                    next_seq=link.tx_next,
                    recv_cumulative=link.rx_cumulative,
                    recv_out_of_order=link.rx_out_of_order,
                )
        self._transport = transport
        self.session.bind_metrics(self.metrics)
        # Batched transports export their own I/O tallies (per-wakeup
        # datagram histogram, burst counters); duck-typed so wrappers
        # (FaultyTransport) pass the call through to the real socket.
        transport_bind = getattr(transport, "bind_metrics", None)
        if transport_bind is not None:
            transport_bind(self.metrics)
        if overlay is not None:
            try:
                overlay.set_local_address(self.local_address)
            except ConfigurationError:
                pass  # address-less transport; gossip omits the self record
            overlay.bind_metrics(self.metrics)
            self._relay_hops_histogram = self.metrics.histogram(
                "repro_relay_hops",
                bounds=(1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0),
            )
            # Origin clock vs local clock: only meaningful where the two
            # share a time base (process-local swarms) — see PROTOCOL §10.
            self._relay_latency_histogram = self.metrics.histogram(
                "repro_relay_coverage_seconds"
            )
        self._bind_node_metrics()

    def _bind_node_metrics(self) -> None:
        """Pull collector for the node-level tallies (store, liveness,
        codec, per-table sizes) — the structs stay authoritative, the
        registry mirrors."""
        store_evictions = self.metrics.counter("repro_store_evictions_total")
        store_unservable = self.metrics.counter("repro_store_unservable_total")
        store_size = self.metrics.gauge("repro_store_size")
        decode_errors = self.metrics.counter("repro_decode_errors_total")
        quarantines = self.metrics.counter("repro_liveness_quarantines_total")
        resumes = self.metrics.counter("repro_liveness_resumes_total")
        suppressed = self.metrics.counter("repro_heartbeats_suppressed_total")
        stale = self.metrics.counter("repro_stale_frames_total")
        # Anti-entropy's ledger (RepairStats).
        repair_counters = {
            name: self.metrics.counter(f"repro_{series}_total")
            for name, series in (
                ("repairs_sent", "antientropy_repairs_sent"),
                ("repair_duplicates", "antientropy_repair_duplicates"),
                ("resync_fallbacks", "antientropy_resync_fallbacks"),
                ("gap_pulls_armed", "gap_pulls_armed"),
                ("gap_pulls", "gap_pulls"),
                ("gap_pulls_unneeded", "gap_pulls_unneeded"),
            )
        }
        # Share of remote deliveries the relay wave itself brought (the
        # rest waited for anti-entropy); overlay mode only.
        push_coverage = (
            self.metrics.gauge("repro_overlay_push_coverage")
            if self.overlay is not None else None
        )
        # Delta health: the share of arriving deltas that bounced off a
        # reference this node no longer holds.
        delta_miss_ratio = self.metrics.gauge("repro_delta_ref_miss_ratio")
        # Codec tallies: the message codec (this node's) and the
        # session's frame codec each keep slotted ints; export their
        # sum per field as repro_codec_*_total.
        codec_names = type(self._codec.counters).__slots__
        codec_counters = {
            name: self.metrics.counter(f"repro_codec_{name}_total")
            for name in codec_names
        }

        def collect() -> None:
            store_evictions.set(self.store.stats.evictions)
            store_unservable.set(self.store.stats.unservable_requests)
            store_size.set(len(self.store))
            decode_errors.set(self._decode_errors)
            if self.liveness is not None:
                quarantines.set(self.liveness.quarantines)
                resumes.set(self.liveness.resumes)
            suppressed.set(self._heartbeats_suppressed)
            stale.set(self._stale_frames)
            for name, counter in repair_counters.items():
                counter.set(getattr(self.repair_stats, name))
            if push_coverage is not None:
                delivered = self.endpoint.stats.delivered
                push_coverage.set(
                    self.overlay.stats.relay_first_intake / delivered
                    if delivered else 0.0
                )
            links = self.session.all_stats().values()
            delta_miss_ratio.set(
                _delta_miss_ratio(
                    sum(link.delta_ref_misses for link in links),
                    sum(link.delta_received for link in links),
                )
            )
            for table, size in self.state_sizes().items():
                self.metrics.gauge(f"repro_state_entries_{table}").set(size)
            message_tallies = self._codec.counters
            frame_tallies = self.session.codec_counters
            for name, counter in codec_counters.items():
                counter.set(
                    getattr(message_tallies, name) + getattr(frame_tallies, name)
                )

        self.metrics.register_collector(collect)

    def _now(self) -> float:
        """Monotonic protocol time: the event-loop clock when one is
        running (what every other timer in the stack uses), the system
        monotonic clock otherwise (e.g. synchronous test drivers).
        Overridable — the fake-clock regression tests monkeypatch it."""
        try:
            return asyncio.get_running_loop().time()
        except RuntimeError:
            return time.monotonic()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> "ReliableCausalNode":
        """Start the retransmit timer, anti-entropy, liveness, and
        metrics-export loops (and the Prometheus endpoint, if any)."""
        self.session.start()
        loop = asyncio.get_running_loop()
        if self._anti_entropy_interval > 0 and self._anti_entropy_task is None:
            self._anti_entropy_task = loop.create_task(self._anti_entropy_loop())
        if self.liveness is not None and self._liveness_task is None:
            self._liveness_task = loop.create_task(self._liveness_loop())
        if self._metrics_path is not None and self._exporter is None:
            self._exporter = JsonlExporter(self._metrics_path)
            self._export_task = loop.create_task(self._export_loop())
        if self._metrics_port is not None and self.metrics_server is None:
            self.metrics_server = MetricsHttpServer(
                self.metrics, port=self._metrics_port
            )
            await self.metrics_server.start()
        if self.membership is not None:
            self.membership.start()
        if self.adaptive is not None:
            self.adaptive.start()
        return self

    async def close(self) -> None:
        """Stop background tasks and release the transport.

        Deliberately no journal snapshot: the recovery path must work
        from whatever the WAL holds (crash-only design), and a graceful
        close taking a different path would leave the crash path
        untested in production.
        """
        if self.membership is not None:
            self.membership.stop()
        if self.adaptive is not None:
            await self.adaptive.stop()
        for task in (self._anti_entropy_task, self._liveness_task,
                     self._export_task):
            if task is not None:
                task.cancel()
        self._anti_entropy_task = None
        self._liveness_task = None
        self._export_task = None
        for task in list(self._heal_tasks):
            task.cancel()
        self._heal_tasks.clear()
        if self._gap_pull_timer is not None:
            self._gap_pull_timer.cancel()
            self._gap_pull_timer = None
        if self.metrics_server is not None:
            await self.metrics_server.close()
            self.metrics_server = None
        await self.session.close()
        if self.journal is not None:
            self.journal.close()
        if self._exporter is not None:
            # One final line so even a run shorter than the export
            # interval leaves a complete snapshot behind.
            self._exporter.export(self.metrics.snapshot(), ts=self._now())
            self._exporter.close()
            self._exporter = None

    async def _export_loop(self) -> None:
        while True:
            await asyncio.sleep(self._metrics_interval)
            self._exporter.export(self.metrics.snapshot(), ts=self._now())

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------

    def add_peer(self, address: Address) -> None:
        """Start broadcasting to ``address`` (idempotent).

        Also clears any eviction mark on the address: a node that left
        and rejoined is a member again, not a stale-frame source.  A new
        peer's next broadcast from here goes full: a joiner's transferred
        coverage records this node's past without its bytes, so a delta
        naming it would be a miss.
        """
        if address not in self._peers:
            self._peers.append(address)
            self.reset_delta_reference()
        if self.overlay is not None:
            self.overlay.add(address)
        readmitted = self._evicted_peers.pop(address, None)
        self._stale_warned.discard(address)
        if readmitted is not None:
            self._stale_senders_warned.discard(readmitted)

    def remove_peer(self, address: Address) -> None:
        """Stop broadcasting to ``address`` and purge its per-peer state.

        Without the purge, the peer's unacked retransmission queue,
        per-peer stats and NACK pacing would linger in the session
        forever (and its pending frames would keep being retransmitted
        into the void).  Missing addresses are fine.
        """
        if address in self._peers:
            self._peers.remove(address)
        if self.overlay is not None:
            self.overlay.discard(address)
        self.session.forget(address)
        if self.liveness is not None:
            self.liveness.forget(address)
        self._delta_miss_warned.discard(address)

    def evict_peer(self, address: Address, sender_id: Optional[str] = None) -> None:
        """Expel a peer from this node's runtime state (view eviction).

        On top of :meth:`remove_peer`, purges the departed sender's
        message-store bookkeeping, its reference slot and its parked
        deltas (``sender_id``, when known) and marks
        the address so late frames from it are dropped with a log-once
        warning instead of silently re-creating per-peer session state.

        Deliberately *not* purged: the endpoint's seen-filter entries
        for the departed sender.  They cost O(1) per sender, and
        dropping them would re-deliver that sender's messages if a peer
        relays them later — correctness over a few bytes.
        """
        self.remove_peer(address)
        if sender_id is not None:
            sender = str(sender_id)
            self.store.purge_sender(sender)
            self._ref_newest.pop(sender, None)
            for key in [key for key in self._parked if key[0] == sender]:
                del self._parked[key]
        self._evicted_peers[address] = str(sender_id) if sender_id is not None else ""
        while len(self._evicted_peers) > _EVICTION_WINDOW:
            stale_addr, stale_sender = self._evicted_peers.popitem(last=False)
            self._stale_warned.discard(stale_addr)
            self._stale_senders_warned.discard(stale_sender)

    def _drop_if_evicted(self, addr: Address, kind: str) -> bool:
        """True (and count/trace/warn-once) when ``addr`` was evicted."""
        if addr not in self._evicted_peers:
            return False
        self._stale_frames += 1
        if addr not in self._stale_warned:
            self._stale_warned.add(addr)
            logger.warning(
                "dropping %s from evicted peer %r; it is no longer in the "
                "group view (it must re-join to be heard again)",
                kind, addr,
            )
        self.trace.emit("stale_frame", ts=self._now(), peer=str(addr), frame=kind)
        # The session auto-creates per-peer state for any sender; do not
        # let a chatty evicted peer re-grow it.
        self.session.forget(addr)
        return True

    def _handle_membership_frame(self, frame, addr: Address) -> None:
        if self.membership is not None:
            self.membership.handle_frame(frame, addr)

    def _sender_in_view(self, sender: str) -> bool:
        """Whether a message's *origin* is still a group member.

        Frames arriving from an evicted address are dropped earlier by
        :meth:`_drop_if_evicted`; this guards the other door, a live
        peer relaying a departed sender's messages after the purge.
        Without a membership layer (or before one installs a view)
        every sender is admitted.
        """
        membership = self.membership
        if membership is None:
            return True
        view = membership.view
        if view is None or str(self.node_id) == sender:
            return True
        if view.get(sender) is not None:
            return True
        return any(str(member.node_id) == sender for member in view.members)

    def _data_plane_admitted(self) -> bool:
        """Session data gate: a node with a membership layer ingests no
        DATA/DIGEST until it is a group member.  Anything pushed at it
        mid-JOIN (an anti-entropy round racing the handshake) would void
        the pristine state transfer; the sender's retransmits re-offer
        it all once the view admits us."""
        return self.membership is None or self.membership.joined

    @property
    def peers(self) -> Sequence[Address]:
        """Addresses this node currently broadcasts to."""
        return tuple(self._peers)

    @property
    def node_id(self) -> Hashable:
        """This node's identity."""
        return self._node_id

    @property
    def transport(self) -> Transport:
        """The underlying datagram transport."""
        return self._transport

    @property
    def codec_counters(self) -> "CodecCounters":
        """Decode tallies of this node's message codec (messages and
        deltas decoded, full-encoding bytes stored); the frame codec's
        are :attr:`ReliableSession.codec_counters`."""
        return self._codec.counters

    @property
    def epoch(self) -> int:
        """The clock-sizing epoch currently stamped on outgoing frames
        (low 8 bits ride the wire header; PROTOCOL.md §11)."""
        return self._codec.epoch

    def set_epoch(self, epoch: int) -> None:
        """Stamp subsequent encodings with ``epoch``.

        Called by the membership layer on every view install so that
        mixed-epoch frames are tellable apart while an (R, K) bump
        drains through the group; decoding stays epoch-agnostic (a
        mismatch only bumps ``codec_epoch_mismatches``).
        """
        self._codec.epoch = epoch

    def reset_delta_reference(self) -> None:
        """Drop the send-side reference: the next broadcast goes full.

        Must be called whenever this node's own key set changes while
        the session is live (an epoch bump or a re-admission grant):
        a delta carries no keys — the receiver rebuilds it with those
        of the message it names — so post-rekey deltas may only name
        messages sent under the new set, starting with the next
        broadcast.
        """
        self._previous = None

    @property
    def local_address(self) -> Address:
        """The transport's bound address (where peers should send).

        Raises :class:`ConfigurationError` for transports that have no
        notion of a bound address.
        """
        address = getattr(self._transport, "local_address", None)
        if address is None:
            address = getattr(self._transport, "address", None)
        if address is None:
            raise ConfigurationError(
                f"{type(self._transport).__name__} exposes no local address"
            )
        return address

    # ------------------------------------------------------------------
    # sending / receiving
    # ------------------------------------------------------------------

    async def broadcast(self, payload: Any = None) -> Message:
        """Timestamp, self-deliver, store, and reliably send to all peers.

        Quarantined peers are skipped — their copy arrives through the
        anti-entropy exchange when they resume.
        """
        # Real monotonic time, not the 0.0 default: the refined
        # detector's recent-window eviction is keyed on it (a frozen
        # clock silently disables Algorithm 5's time bound).
        message = self.endpoint.broadcast(payload, now=self._now())
        # With a journal the delivery upcall inside endpoint.broadcast()
        # already encoded the message for the WAL; reuse those bytes.
        data, self._wal_encoding = self._wal_encoding, None
        if data is None:
            data = self._codec.encode(message)
        self.store.add(str(message.sender), message.seq, data)
        wire = self._wire_body(message, data)
        if self.overlay is not None:
            # Overlay mode: one RELAY envelope to `fanout` view targets;
            # the receivers' relays and the anti-entropy backstop do the
            # rest.  Wire cost here is O(fanout), not O(N).
            self.overlay.stats.relay_pushes += 1
            self._relay_push(
                str(message.sender), message.seq, wire, hops=0, sent_at=self._now()
            )
            return message
        # Mesh mode: the body is packed once and shared across every
        # per-peer DATA frame — only the link-seq header differs.
        body = self.session.data_body(wire)
        peers = self._live_peers()
        for address in peers:
            self._tally_sent(address, wire)
        await asyncio.gather(
            *(self.session.send(address, wire, shared_body=body) for address in peers)
        )
        return message

    def _wire_body(self, message: Message, full: bytes) -> bytes:
        """The one body an own broadcast (o, s) travels in, on every
        mesh link and relay hop: a delta against (o, s − 1) when that is
        the smaller, else ``full``.  No ack is needed: a receiver must
        hold (o, s − 1) before it may deliver (o, s) anyway; one that
        meets the delta first parks it until (o, s − 1) is admitted."""
        previous, self._previous = self._previous, (message.seq, message.timestamp.vector)
        if not self._wire_delta or previous is None:
            return full
        delta = self._codec.encode_delta(message, *previous)
        return delta if len(delta) < len(full) else full

    def _live_peers(self) -> List[Address]:
        if self.liveness is None:
            return list(self._peers)
        return [
            address
            for address in self._peers
            if not self.liveness.is_quarantined(address)
        ]

    # ------------------------------------------------------------------
    # overlay dissemination (PROTOCOL.md §10)
    # ------------------------------------------------------------------

    def _overlay_live(self, address: Address) -> bool:
        """Push-target filter: never relay at evicted or quarantined
        addresses (their copy arrives via anti-entropy on return)."""
        if address in self._evicted_peers:
            return False
        if self.liveness is not None and self.liveness.is_quarantined(address):
            return False
        return True

    def _relay_push(
        self,
        origin: str,
        seq: int,
        payload: bytes,
        hops: int,
        sent_at: float,
        exclude: Tuple[Address, ...] = (),
    ) -> int:
        """Push one RELAY envelope to ``fanout`` targets.

        Used for both origin pushes (``hops=0``) and forwards.  Each copy
        is tallied by the encoding of its body, and carries the view
        sample only if it wins the view's merge coin.
        """
        overlay = self.overlay
        targets = overlay.push_targets(exclude=exclude, live_filter=self._overlay_live)
        if not targets:
            return 0
        carriers, bare = [], []
        for target in targets:
            self._tally_sent(target, payload)
            (carriers if overlay.carries_sample() else bare).append(target)

        frame = RelayFrame(origin=origin, seq=seq, hops=hops, sent_at=sent_at, payload=payload)
        # Serialized at most twice: without the view sample, and with it
        # for the copies that won the coin.
        sent = self.session.send_relay(bare, frame)
        if carriers:
            sent += self.session.send_relay(
                carriers, replace(frame, sample=overlay.gossip_sample())
            )
        return sent

    def _handle_relay(self, frame: RelayFrame, addr: Address) -> None:
        """Intake one RELAY envelope: merge the view sample, dedup on
        the envelope header, admit the body, and forward it *verbatim*
        on first intake only (infect-and-die).  A delta body names the
        origin's previous broadcast, which every receiver needs before
        it may deliver this one anyway; one parked waiting for it is
        forwarded all the same (downstream may hold the reference)."""
        if self._drop_if_evicted(addr, "relay"):
            return
        overlay = self.overlay
        overlay.merge_sample(frame.sample)
        message_id = (frame.origin, frame.seq)
        if self.endpoint.has_seen(message_id) or self._is_parked(message_id):
            # The SeenFilter (and the park) absorb gossip redundancy
            # without paying for a payload decode — the envelope header
            # is enough.
            overlay.stats.relay_duplicates += 1
            return
        if not self._admit(frame.payload, addr, envelope_id=message_id):
            return
        self._tally_received(addr, frame.payload)
        overlay.stats.relay_first_intake += 1
        if message_id not in self._delivered:
            self._arm_gap_pull(message_id, addr)
        elif self._gap_pull_open is not None:
            self._close_gap_pull(by_relay=True)
        self._relay_hops_histogram.observe(float(frame.hops))
        if frame.sent_at > 0.0:
            latency = self._now() - frame.sent_at
            if latency >= 0.0:
                # Negative deltas mean origin and receiver do not share
                # a clock; the histogram only tracks comparable pairs.
                self._relay_latency_histogram.observe(latency)
        if frame.hops < _MAX_HOPS:
            sent = self._relay_push(
                frame.origin, frame.seq, frame.payload,
                hops=frame.hops + 1, sent_at=frame.sent_at,
                exclude=(addr,),
            )
            if sent:
                overlay.stats.relay_forwarded += 1

    def _tally_sent(self, address: Address, data: bytes) -> None:
        """Count which encoding of a message crossed the link to
        ``address``."""
        stats = self.session.peer_stats(address)
        if MessageCodec.is_delta(data):
            stats.delta_sent += 1
        else:
            stats.full_sent += 1

    def _tally_received(self, addr: Address, data: bytes) -> None:
        """Count which encoding of an admitted message crossed the link
        from ``addr`` (the denominator of its reference-miss ratio)."""
        stats = self.session.peer_stats(addr)
        if MessageCodec.is_delta(data):
            stats.delta_received += 1
        else:
            stats.full_received += 1

    def _handle_wire_message(self, data: bytes, addr: Address) -> None:
        """Intake one DATA payload off a reliable link — direct sends,
        retransmissions and anti-entropy pushes alike — and tally which
        encoding crossed the link."""
        if self._drop_if_evicted(addr, "data"):
            return
        duplicates = self.endpoint.stats.duplicates
        if self._admit(data, addr):
            self._tally_received(addr, data)
            if self.endpoint.stats.duplicates != duplicates:
                # A link delivers each frame once, so a message seen
                # before came by another route: a repair nobody needed.
                self.repair_stats.repair_duplicates += 1
            elif self._gap_pull_open is not None:
                self._close_gap_pull(by_relay=False)

    def _admit(
        self,
        data: bytes,
        addr: Address,
        envelope_id: Optional[Tuple[str, int]] = None,
    ) -> bool:
        """The one intake: decode ``data`` (full or delta), check it
        against ``envelope_id`` and the group view, store it, and hand
        it to the endpoint — then admit, in turn, each parked delta that
        was waiting for the message just admitted.

        A delta whose reference this node never recorded is parked
        (True).  Returns False when the message was dropped and
        accounted for here: undecodable, not this group's vector size,
        contradicting its envelope, a delta whose reference was recorded
        but is no longer held (or that found the park full), a departed
        sender.
        """
        released: List[Tuple[bytes, Address]] = []
        admitted = self._admit_one(data, addr, envelope_id, released)
        # A loop, not recursion: a parked chain can be _PARK_LIMIT long.
        while released:
            self._admit_one(*released.pop(), None, released)
        return admitted

    def _admit_one(
        self,
        data: bytes,
        addr: Address,
        envelope_id: Optional[Tuple[str, int]],
        released: List[Tuple[bytes, Address]],
    ) -> bool:
        """:meth:`_admit` for one message; appends to ``released`` the
        parked delta this admission made decodable."""
        codec = self._codec
        reference: Optional[_Reference] = None
        if MessageCodec.is_delta(data):
            try:
                origin, seq, ref_seq = codec.delta_header(data)
            except Exception:
                self._note_decode_error(addr)
                return False
            reference = self._reference(origin, ref_seq)
            if reference is None:
                return self._park(data, addr, envelope_id, origin, seq, ref_seq)
        try:
            if reference is not None:
                # The store must hold the full encoding: anti-entropy
                # serves third parties that may not hold this message's
                # reference.
                message, full = codec.decode_delta(data, reference[1], reference[2])
            else:
                message = codec.decode(data)
                full = data
                # Bytes of full encodings the store takes from the wire.
                # Keep the name: benchmarks/e2e reads it as
                # codec.retained_bytes_per_delivery, the overlay's
                # full-copy signal (ROADMAP item 1).
                codec.counters.retained_bytes += len(full)
        except Exception:
            # A malformed datagram must never take the node down.
            self._note_decode_error(addr)
            return False
        if message.timestamp.size != self.endpoint.clock.r:
            # Another group's geometry: the clock would refuse it, but
            # only after the store and the reference slot had taken it.
            self._note_decode_error(addr)
            return False
        sender = str(message.sender)
        if envelope_id is not None and (sender, message.seq) != envelope_id:
            # Envelope header contradicting its payload: corrupt or
            # forged; believing the header would poison the SeenFilter.
            self._note_decode_error(addr)
            return False
        if not self._sender_in_view(sender):
            self._note_stale_sender(sender)
            return False
        newest = self._ref_newest.get(sender)
        if newest is None or message.seq > newest[0]:
            self._ref_newest[sender] = (
                message.seq, message.timestamp.vector, message.timestamp.sender_keys
            )
        self.store.add(sender, message.seq, full)
        # One real timestamp for every receive path (it used to default
        # to 0.0, which froze the refined detector's eviction clock).
        self.endpoint.on_receive(message, now=self._now())
        successor = self._parked.pop((sender, message.seq), None)
        if successor is not None and not self.endpoint.has_seen((sender, message.seq + 1)):
            released.append(successor)
        return True

    def _park(
        self,
        data: bytes,
        addr: Address,
        envelope_id: Optional[Tuple[str, int]],
        origin: str,
        seq: int,
        ref_seq: int,
    ) -> bool:
        """A delta whose reference is not here.  If this node never
        recorded it — and it is the sender's previous broadcast, the
        only reference a node names — it is in flight or lost, and the
        delta waits for it (True).  One recorded but no longer held (a
        restart, an eviction), or no room left, is a counted miss; a
        delta of a message already seen is a duplicate (True)."""
        if envelope_id is not None and (origin, seq) != envelope_id:
            self._note_decode_error(addr)
            return False
        if self.endpoint.has_seen((origin, seq)):
            # A copy of a message seen before (a frame retransmitted to
            # a restarted node): a duplicate, whatever it names.
            return True
        if not self._sender_in_view(origin):
            self._note_stale_sender(origin)
            return False
        key = (origin, ref_seq)
        if (
            ref_seq != seq - 1
            or self.store.knows(origin, ref_seq)
            or (key not in self._parked and len(self._parked) >= _PARK_LIMIT)
        ):
            self._note_reference_miss(addr, origin, ref_seq)
            return False
        self._parked[key] = (data, addr)
        return True

    def _is_parked(self, message_id: Tuple[str, int]) -> bool:
        """Whether a delta of ``message_id`` waits for its reference."""
        sender, seq = message_id
        return (sender, seq - 1) in self._parked

    def _note_stale_sender(self, sender: str) -> None:
        """A live peer relayed state from a sender the view has since
        expelled (an anti-entropy round or a relay wave racing the
        purge): dropped, since admitting it would resurrect exactly the
        store state the eviction just removed; warned about once."""
        self._stale_frames += 1
        if sender not in self._stale_senders_warned:
            if len(self._stale_senders_warned) >= _EVICTION_WINDOW:
                # Marks for senders this node never peered with have
                # no eviction record to age out with.
                self._stale_senders_warned.clear()
            self._stale_senders_warned.add(sender)
            logger.warning(
                "dropping relayed message from departed sender %r; "
                "it is no longer in the group view", sender,
            )
        self.trace.emit("stale_sender", ts=self._now(), sender=sender)

    def _reference(self, sender: str, ref_seq: int) -> Optional[_Reference]:
        """The message a delta names (``None``: not here): the sender's
        newest admitted message (the hot path — a delta names its
        sender's previous broadcast), else the stored encoding decoded
        on demand (a delta that arrived after a later message)."""
        newest = self._ref_newest.get(sender)
        if newest is not None and newest[0] == ref_seq:
            return newest
        stored = self.store.get(sender, ref_seq)
        if stored is None:
            return None
        timestamp = self._codec.decode(stored).timestamp
        return (ref_seq, timestamp.vector, timestamp.sender_keys)

    def _note_reference_miss(self, addr: Address, sender: str, ref_seq: int) -> None:
        """A delta named a reference this node recorded but no longer
        holds (it restarted, the store rolled over) or found the park
        full: count it on the link, ask for an immediate anti-entropy
        exchange — which re-delivers the message full — and warn once
        per link whose deltas keep bouncing (a healthy one misses only
        after a restart)."""
        stats = self.session.peer_stats(addr)
        stats.delta_ref_misses += 1
        self.trace.emit(
            "delta_ref_miss", ts=self._now(),
            peer=str(addr), sender=sender, ref_seq=ref_seq,
        )
        self._request_resync(addr)
        arrived = stats.delta_ref_misses + stats.delta_received
        if arrived < _DELTA_MISS_WARN_AFTER or addr in self._delta_miss_warned:
            return
        ratio = _delta_miss_ratio(stats.delta_ref_misses, stats.delta_received)
        if ratio > _DELTA_MISS_WARN_RATIO:
            self._delta_miss_warned.add(addr)
            logger.warning(
                "%.0f%% of %d delta timestamps from %r named a reference "
                "this node does not hold; each is re-shipped full by "
                "anti-entropy (see repro_delta_ref_miss_ratio)",
                100.0 * ratio, arrived, addr,
            )

    def _note_decode_error(self, addr: Address) -> None:
        self._decode_errors += 1
        self.trace.emit("decode_error", ts=self._now(), peer=str(addr))

    def _request_resync(self, addr: Address) -> bool:
        """Rate-limited out-of-band digest to ``addr`` — after a
        reference miss, or for a relay gap the grace did not close (one
        per address per ``_RESYNC_INTERVAL``, however many ask); True
        when one was sent.

        An address that cannot be digested — a relay pusher the bounded
        view does not hold, a quarantined or evicted one — is replaced
        by the round's next partner: the gap is real whoever reported
        it.  Only an address a digest goes to gets a mark, and marks
        expire with the interval they enforce.
        """
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return False
        if not self._digestible(addr):
            addr = self._next_partner()
            if addr is None:
                return False
            self.repair_stats.resync_fallbacks += 1
        now = loop.time()
        marks = self._resync_last
        if now - marks.get(addr, -1e18) < _RESYNC_INTERVAL:
            return False
        for stale in [a for a, at in marks.items() if now - at >= _RESYNC_INTERVAL]:
            del marks[stale]
        marks[addr] = now
        self._spawn_heal(addr)
        return True

    def _arm_gap_pull(
        self, message_id: Tuple[str, int], pusher: Address, tries: int = 0
    ) -> None:
        """A relay push arrived ahead of its causal past (pended, or
        parked behind its reference).  Usually the rest is in flight on
        a longer path; if ``message_id`` is still undelivered after the
        grace, ask ``pusher`` — it forwarded the message on first
        intake, so it most likely holds what came before it too.  At
        most one timer per node: one digest names every gap this node
        has.  ``tries``: pulls this arming has already sent."""
        if self._gap_pull_timer is not None:
            return
        rtt = self.session.stats_for(pusher).rtt
        grace = _GAP_PULL_GRACE if rtt is None else max(_GAP_PULL_GRACE, 2.0 * rtt)
        if not tries:
            self.repair_stats.gap_pulls_armed += 1
        self._gap_pull_timer = asyncio.get_running_loop().call_later(
            grace, self._gap_pull, message_id, pusher, tries
        )

    def _gap_pull(self, message_id: Tuple[str, int], pusher: Address, tries: int) -> None:
        self._gap_pull_timer = None
        if message_id in self._delivered:
            # The wave closed this gap.  A push that arrived ahead of its
            # past while the timer ran armed nothing (one timer per
            # node): give the oldest message still waiting a grace of
            # its own, or its gap waits for the next anti-entropy round.
            if self.endpoint.pending_count:
                self._arm_gap_pull(self.endpoint.pending_messages()[0].message_id, pusher)
            elif self._parked:
                (sender, ref_seq), (_, parked_by) = next(iter(self._parked.items()))
                self._arm_gap_pull((sender, ref_seq + 1), parked_by)
            return
        waiting = self._is_parked(message_id) or self.endpoint.has_seen(message_id)
        if not waiting or not self._sender_in_view(message_id[0]):
            # Purged with its sender, or dropped: nothing to pull for.
            return
        if self._request_resync(pusher):
            self.repair_stats.gap_pulls += 1
            self._gap_pull_open = message_id
        # The pusher may lack the gap too (with exact per-sender order it
        # often parked the same delta): while the message waits, ask the
        # next partner a grace later — one pass over the digest targets,
        # then the periodic round takes over, so a gap nobody can close
        # costs a few digests, not a stream.  Backing off instead left
        # heal-burst gaps open longer, and the concurrent traffic
        # meanwhile raised ε (EXPERIMENTS.md, "One delta rule").
        if tries + 1 < len(self._anti_entropy_targets()):
            partner = self._next_partner()
            if partner is not None:
                self._arm_gap_pull(message_id, partner, tries + 1)

    def _close_gap_pull(self, by_relay: bool) -> None:
        """An arrival delivered something: if that released the message
        the last pull is waiting on, the pull is settled — unneeded when
        a relay push, not the pull's answer, did it."""
        if self._gap_pull_open in self._delivered:
            self._gap_pull_open = None
            if by_relay:
                self.repair_stats.gap_pulls_unneeded += 1

    def _handle_digest(self, frontiers: Frontiers, addr: Address) -> None:
        if self._drop_if_evicted(addr, "digest"):
            return
        for data in self.store.missing_for(frontiers):
            # Reliable push: goes through the normal ack/retransmit path.
            self.repair_stats.repairs_sent += 1
            self.session.push(addr, data)

    def _anti_entropy_targets(self) -> List[Address]:
        """The candidates a round's digest partner is drawn from: the
        live peer list in mesh mode, the live partial view in overlay
        mode (transitivity covers the rest of the swarm)."""
        if self.overlay is not None:
            return self.overlay.digest_targets(live_filter=self._overlay_live)
        return self._live_peers()

    def _next_partner(self) -> Optional[Address]:
        """The next digest partner: the targets in a shuffled order,
        rotated, so any ``len(targets)`` consecutive rounds digest every
        live target once — a bound an independent draw per round would
        not give.  Departed targets drop out of the rotation; new ones
        enter it at a random position."""
        targets = self._anti_entropy_targets()
        rotation = [address for address in self._partner_rotation if address in targets]
        for address in targets:
            if address not in rotation:
                rotation.insert(
                    self._anti_entropy_rng.randrange(len(rotation) + 1), address
                )
        self._partner_rotation = rotation
        if not rotation:
            return None
        partner = rotation.pop(0)
        rotation.append(partner)
        return partner

    async def _anti_entropy_loop(self) -> None:
        while True:
            # Jittered: uniform over [0.5, 1.5) x interval, mean
            # preserved.  A fixed timer would have a co-started swarm
            # digesting in lockstep — N datagrams in one tick, idle the
            # rest of the interval.
            await asyncio.sleep(
                self._anti_entropy_interval
                * (0.5 + self._anti_entropy_rng.random())
            )
            partner = self._next_partner()
            if partner is not None:
                await self._heal_peer(partner)

    async def _liveness_loop(self) -> None:
        interval = self._liveness_policy.heartbeat_interval
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(interval)
            now = loop.time()
            self._heartbeat_count += 1
            beacon_targets = (
                self.overlay.addresses() if self.overlay is not None
                else list(self._peers)
            )
            for address in beacon_targets:
                # Heartbeats flow to quarantined peers too: that is what
                # resolves a mutual quarantine once the partition lifts.
                self.liveness.track(address, now)
                last = self.session.last_send_time(address)
                if last >= 0.0 and now - last < interval:
                    # Any recent datagram already proves we are alive;
                    # the beacon would be pure overhead on a busy link.
                    self._heartbeats_suppressed += 1
                    continue
                try:
                    await self.session.send_heartbeat(address, self._heartbeat_count)
                except Exception:
                    continue
            for address in self.liveness.sweep(loop.time()):
                if address in self._peers:
                    self.session.quarantine(address)
                    self.trace.emit(
                        "quarantine", ts=loop.time(), peer=str(address)
                    )
                else:
                    # Activity from a non-member primed the monitor;
                    # nothing to pause for it.
                    self.liveness.forget(address)

    def _handle_peer_activity(self, address: Address) -> None:
        # Called synchronously from the datagram path for *every*
        # datagram; must stay cheap.
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:
            return
        if self.liveness.touch(address, now):
            self.session.resume(address)
            self.trace.emit("resume", ts=now, peer=str(address))
            # Heal immediately rather than waiting for the next
            # anti-entropy round: exchange digests both ways.
            self._spawn_heal(address)

    def _digestible(self, address: Address) -> bool:
        """Whether a digest may go to ``address``: a peer or view member
        that is neither evicted nor quarantined."""
        return (
            address in self._peers
            or (self.overlay is not None and address in self.overlay)
        ) and self._overlay_live(address)

    def _digest(self) -> Frontiers:
        """What this node holds, for a digest: the store's coverage plus
        every parked delta.  A parked message is here — only its
        reference is missing — and a digest that named it as missing
        would draw it again."""
        frontiers = self.store.frontiers()
        parked: Dict[str, Set[int]] = {}
        for sender, ref_seq in self._parked:
            parked.setdefault(sender, set()).add(ref_seq + 1)
        for sender, seqs in parked.items():
            contiguous, extras = frontiers.get(sender, (0, ()))
            frontiers[sender] = (contiguous, tuple(sorted(seqs.union(extras))))
        return frontiers

    def _spawn_heal(self, address: Address) -> None:
        task = asyncio.get_running_loop().create_task(self._heal_peer(address))
        self._heal_tasks.add(task)
        task.add_done_callback(self._heal_tasks.discard)

    async def _heal_peer(self, address: Address) -> None:
        """Send ``address`` this node's digest; it pushes back whatever
        the digest lacks."""
        if not self._digestible(address):
            # Scheduled before remove_peer()/evict_peer() ran: a digest
            # now would re-create the session state just purged.
            return
        try:
            await self.session.send_digest(address, self._digest())
        except Exception:
            # A digest that fails to send is retried next round.
            pass

    def _handle_delivery(self, record: DeliveryRecord) -> None:
        message = record.message
        self._delivered.add((str(message.sender), message.seq))
        if self.journal is not None:
            if record.local:
                # WAL-before-wire: this runs inside endpoint.broadcast(),
                # before broadcast() puts the message on any link.
                data = self._codec.encode(message)
                self.journal.record_send(message.seq, data)
                self._wal_encoding = data
            else:
                self.journal.record_delivery(
                    str(message.sender),
                    message.seq,
                    message.timestamp.sender_keys,
                    alert=record.alert,
                )
            if self.journal.snapshot_due:
                clock = self.endpoint.clock
                detector_stats = self.endpoint.detector.stats
                self.journal.write_snapshot(
                    clock.snapshot(),
                    clock.send_count,
                    self.session.link_states(),
                    detector=(detector_stats.checks, detector_stats.alerts),
                )
                self.trace.emit(
                    "journal_snapshot", ts=self._now(),
                    number=self.journal.snapshots_written,
                )
        self._deliveries.append(record)
        if self._on_delivery is not None:
            self._on_delivery(record)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def deliveries(self) -> List[DeliveryRecord]:
        """The most recent deliveries, in order (local self-deliveries
        included): a window of the last ``_RECENT_DELIVERIES`` records,
        not a history.  Exact totals are ``endpoint.stats.sent`` (own)
        plus ``endpoint.stats.delivered`` (remote); an application that
        needs every record takes them from ``on_delivery``."""
        return list(self._deliveries)

    def delivered_frontiers(self) -> Frontiers:
        """Per-sender ``(contiguous, extras)`` coverage of everything this
        node has *delivered* (own broadcasts included).  This — not the
        store's received coverage — is what a join state transfer pairs
        with the clock vector."""
        return self._delivered.frontiers()

    def adopt_coverage(self, frontiers: Frontiers) -> None:
        """Adopt transferred per-sender coverage: the one way in for
        journal recovery and the join state transfer alike.

        The endpoint's duplicate filter, the store's coverage (the whole
        range marked evicted — the bytes stayed behind) and the
        delivered coverage take the same ``frontiers`` together or not
        at all: O(senders), instead of one ``mark_seen()`` per
        historical message.  Only valid before this node has received or
        delivered anything.
        """
        if (
            self.endpoint.seen_frontiers()
            or self.store.frontiers()
            or self._delivered.sender_count
        ):
            raise ConfigurationError(
                "adopt_coverage() requires a node that has seen no traffic"
            )
        # The first call checks the shape before it touches anything
        # (SeenFilter.restore is all-or-nothing); the other two cannot
        # fail on coverage it accepted.
        self.endpoint.restore_seen(frontiers)
        self.store.restore_frontiers(frontiers)
        self._delivered.restore(frontiers)

    @property
    def stale_frames(self) -> int:
        """Frames dropped because their source was evicted from the view."""
        return self._stale_frames

    def delivered_payloads(self, include_local: bool = True) -> List[Any]:
        """Payloads of the :attr:`deliveries` window, in delivery order
        (``include_local=False`` filters within the window)."""
        return [
            record.message.payload
            for record in self._deliveries
            if include_local or not record.local
        ]

    @property
    def decode_errors(self) -> int:
        """Datagrams dropped because they failed to decode."""
        return self._decode_errors

    @property
    def heartbeats_suppressed(self) -> int:
        """Heartbeat beacons skipped because the link had recent traffic."""
        return self._heartbeats_suppressed

    def state_sizes(self) -> Dict[str, int]:
        """Entries held per table — the census of what this node
        remembers (``repro_state_entries_<table>`` gauges).  Every table
        is bounded by senders, peers, a window or what is in flight;
        none grows with the number of messages delivered."""
        journal, membership = self.journal, self.membership
        sizes = {
            "recent_deliveries": len(self._deliveries),
            "store_messages": len(self.store),
            **_coverage_sizes("store", self.store.frontiers()),
            **_coverage_sizes("seen", self.endpoint.seen_frontiers()),
            **_coverage_sizes("delivered", self._delivered.frontiers()),
            **_coverage_sizes(
                "journal",
                journal.delivered_frontiers() if journal is not None else {},
            ),
            "pending": self.endpoint.pending_count,
            "reference_slots": len(self._ref_newest),
            "parked_deltas": len(self._parked),
            "evicted_peers": len(self._evicted_peers),
            "stale_warned": len(self._stale_warned),
            "stale_senders_warned": len(self._stale_senders_warned),
            "delta_miss_warned": len(self._delta_miss_warned),
            "leave_noted": (
                membership.leave_noted_count if membership is not None else 0
            ),
            "heal_tasks": len(self._heal_tasks),
            "resync_marks": len(self._resync_last),
            "partner_rotation": len(self._partner_rotation),
        }
        for table, size in self.session.state_sizes().items():
            sizes[f"session_{table}"] = size
        return sizes

    def stats(self) -> NodeStats:
        """One coherent :class:`NodeStats` snapshot of this node."""
        return NodeStats(
            node_id=str(self._node_id),
            endpoint=self.endpoint.stats,
            detector=self.endpoint.detector.stats,
            wire=self.session.total_stats(),
            store=self.store.stats,
            pending=self.endpoint.pending_count,
            decode_errors=self._decode_errors,
            quarantines=self.liveness.quarantines if self.liveness else 0,
            resumes=self.liveness.resumes if self.liveness else 0,
            snapshot=self.metrics.snapshot(),
        )

    def transport_stats(self, address: Optional[Address] = None) -> TransportStats:
        """Wire counters: one peer's, or all peers merged when ``None``."""
        if address is not None:
            return self.session.stats_for(address)
        return self.session.total_stats()

    def transport_stats_by_peer(self) -> Dict[Address, TransportStats]:
        """Per-peer wire counters."""
        return self.session.all_stats()
