"""A deployable causal broadcast node: endpoint + codec + reliable session.

This is the networked counterpart of the simulator's node — the piece the
ROADMAP's "runnable networked system" needs.  It stacks, bottom-up:

* any :class:`~repro.net.peer.Transport` (UDP, the in-process bus, or a
  fault-injecting wrapper),
* a :class:`~repro.net.session.ReliableSession` (acks, NACK-driven
  retransmission, backoff, backpressure),
* a :class:`~repro.net.repair.Repair` — the message store, digests,
  anti-entropy rounds and the gap pull: everything that fetches a
  message that never arrived,
* the :class:`~repro.core.protocol.CausalBroadcastEndpoint` (Algorithms
  1–2 + detector) and the binary :class:`~repro.core.codec.MessageCodec`.

Every message, however it travelled — a DATA payload off a reliable
link, an anti-entropy push, the body of a RELAY envelope — enters through
:meth:`ReliableCausalNode._admit`: decode (full or delta), check it
against the clock's vector size and the group view, store
the body as it arrived, hand it to the endpoint.  The mesh and relay handlers
add only what is theirs.

On the wire every broadcast (o, s) is encoded once (``_wire_body``): as
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
:mod:`repro.net.repair` handles the rest.

Construct nodes with :func:`repro.api.create_node` rather than by hand.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import OrderedDict
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.clocks import ProbabilisticCausalClock
from repro.core.codec import CodecCounters, MessageCodec, RelayFrame, TreeFrame
from repro.core.detector import detector_class
from repro.core.errors import ConfigurationError
from repro.core.protocol import CausalBroadcastEndpoint, DeliveryRecord, Message
from repro.net.journal import NodeJournal, RecoveredState
from repro.net.peer import Transport
from repro.net.repair import Frontiers, MessageStore, Repair
from repro.net.session import ReliableSession, TransportStats
from repro.obs import JsonlExporter, MetricsHttpServer, MetricsRegistry, TraceRing

if TYPE_CHECKING:
    from repro.api import NodeConfig

__all__ = ["ReliableCausalNode"]

logger = logging.getLogger(__name__)

Address = Hashable
DeliveryHandler = Callable[[DeliveryRecord], None]


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
# Eviction records (and the warn-once marks that hang off them) kept
# before the oldest ages out.
_EVICTION_WINDOW = 256
# A link whose deltas bounce this often has lost its reference for good
# (warned about once, after _DELTA_MISS_WARN_AFTER deltas).
_DELTA_MISS_WARN_RATIO = 0.05
_DELTA_MISS_WARN_AFTER = 100


def _delta_miss_ratio(misses: int, decoded: int) -> float:
    """Share of arriving deltas that named an unknown reference."""
    arrived = misses + decoded
    return misses / arrived if arrived else 0.0


class ReliableCausalNode:
    """One networked participant with reliable dissemination.

    The public surface is broadcast / add_peer / ``on_delivery`` plus
    lifecycle (:meth:`start`, :meth:`close`) and wire observability
    (:meth:`transport_stats`).  What a node holds is O(senders + peers)
    plus what is in flight, never O(messages delivered): a delivered
    record goes to ``on_delivery`` and is not kept (exact counts live in
    ``endpoint.stats``), what was received is recorded once — the
    endpoint's :class:`~repro.core.pending.SeenFilter`, which the store
    digests and whose ids less the pending ones are what was delivered
    — and :meth:`state_sizes` counts the entries of every table.

    Args:
        node_id: this node's identity (the message sender id).
        config: the :class:`~repro.api.NodeConfig` whose layers, intervals,
            detector, journal, dissemination and metrics settings
            this node runs with.  With ``data_dir`` set the constructor
            replays any prior journal state (clock, delivered frontiers,
            link seqs) before a single datagram can arrive, and every
            send and delivery is logged ahead of the wire; that needs a
            pristine ``clock``.
        clock: its (n, r, k) clock; its keys are static, so a delta
            takes them from its reference.
        transport: datagram substrate; the node's session owns it.
        on_delivery: synchronous callback per delivery.
    """

    def __init__(
        self,
        node_id: Hashable,
        config: NodeConfig,
        clock: ProbabilisticCausalClock,
        transport: Transport,
        on_delivery: Optional[DeliveryHandler] = None,
    ) -> None:
        self._node_id = node_id
        self._config = config
        self._codec = MessageCodec()
        self._on_delivery = on_delivery
        self._peers: List[Address] = []
        self._decode_errors = 0
        # Delta wire state.  Sending: the vector of this node's previous
        # broadcast — the one reference for every link and relay hop.
        # Receiving: the store's per-sender references, and the deltas
        # that outran their reference, parked by the (sender, seq) of
        # that reference as (data, address) until it is admitted.
        self._previous: Optional[np.ndarray] = None
        self._parked: Dict[Tuple[str, int], Tuple[bytes, Address]] = {}
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
        # Attached by GroupMembership.attach(); duck-typed to avoid an
        # import cycle with repro.net.membership.
        self.membership = None
        # Set by repro.api.create_node when --adaptive is on; duck-typed
        # for the same reason (repro.net.adaptive imports nothing from
        # here, but the assembly order is api's business).
        self.adaptive = None
        journal = None
        if config.data_dir is not None:
            journal = NodeJournal(
                data_dir=config.data_dir,
                node_id=node_id,
                r=clock.r,
                own_keys=clock.own_keys,
                snapshot_interval=config.journal_snapshot_interval,
                fsync=config.journal_fsync,
            )
        self.journal = journal
        overlay = self.overlay = (
            config.build_overlay(node_id) if config.dissemination == "overlay" else None
        )

        # Observability: every node owns a registry (with a ``node=<id>``
        # label; collectors are free until snapshotted) and a trace ring;
        # the exporter and HTTP endpoint are armed in start() when
        # configured.
        self.metrics = MetricsRegistry(labels={"node": str(node_id)})
        self.trace = TraceRing()
        self._exporter: Optional[JsonlExporter] = None
        self._export_task: Optional[asyncio.Task] = None
        self.metrics_server: Optional[MetricsHttpServer] = None

        # Recovery runs strictly before the session exists: by the time
        # a datagram can arrive, the clock, the seen filter and the link
        # seqs already reflect the pre-crash state.
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
            detector=detector_class(config.detector).build(window=config.detector_window),
            deliver_callback=self._handle_delivery,
        )
        self.endpoint.bind_metrics(self.metrics, self.trace)
        self.repair = Repair(self, config.anti_entropy_interval)
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
            policy=config.retransmit,
            liveness=config.liveness,
            on_liveness=self._handle_liveness,
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
        self._bind_node_metrics()

    def _bind_node_metrics(self) -> None:
        """Collector for the node-level tallies (store, liveness, codec,
        per-table sizes), read off the structs that keep them."""
        repair_series = [
            (f"repro_{series}_total", name)
            for name, series in (
                ("repairs_sent", "antientropy_repairs_sent"),
                ("repair_duplicates", "antientropy_repair_duplicates"),
                ("resync_fallbacks", "antientropy_resync_fallbacks"),
                ("gap_pulls_armed", "gap_pulls_armed"),
                ("gap_pulls", "gap_pulls"),
                ("gap_pulls_unneeded", "gap_pulls_unneeded"),
            )
        ]
        # The message codec (this node's) and the session's frame codec
        # each keep slotted ints; their sum per field is exported.
        codec_series = [
            (f"repro_codec_{name}_total", name)
            for name in type(self._codec.counters).__slots__
        ]

        def collect() -> dict:
            session = self.session
            values = {
                "repro_store_evictions_total": self.store.stats.evictions,
                "repro_store_unservable_total": self.store.stats.unservable_requests,
                "repro_store_size": len(self.store),
                "repro_decode_errors_total": self._decode_errors,
                "repro_liveness_quarantines_total": session.quarantines,
                "repro_liveness_resumes_total": session.resumes,
                "repro_heartbeats_suppressed_total": session.heartbeats_suppressed,
                "repro_stale_frames_total": self._stale_frames,
            }
            for name, attr in repair_series:
                values[name] = getattr(self.repair.stats, attr)
            if self.overlay is not None:
                # Share of remote deliveries the relay wave itself
                # brought (the rest waited for anti-entropy).
                delivered = self.endpoint.stats.delivered
                values["repro_overlay_push_coverage"] = (
                    self.overlay.stats.relay_first_intake / delivered
                    if delivered else 0.0
                )
            # Delta health: the share of arriving deltas that bounced
            # off a reference this node no longer holds.
            links = self.session.all_stats().values()
            values["repro_delta_ref_miss_ratio"] = _delta_miss_ratio(
                sum(link.delta_ref_misses for link in links),
                sum(link.delta_received for link in links),
            )
            repairs = self.repair.stats  # counted where they land / leave: exact fleet-wide
            values["repro_antientropy_repair_duplicate_ratio"] = (
                repairs.repair_duplicates / repairs.repairs_sent if repairs.repairs_sent else 0.0)
            for table, size in self.state_sizes().items():
                values[f"repro_state_entries_{table}"] = size
            message_tallies = self._codec.counters
            frame_tallies = self.session.codec_counters
            for name, attr in codec_series:
                values[name] = getattr(message_tallies, attr) + getattr(frame_tallies, attr)
            return values

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
        """Start the retransmit timer, heartbeats, anti-entropy and
        metrics-export loops (and the Prometheus endpoint, if any)."""
        self.session.start()
        self.repair.start()
        self.session.start_heartbeats(
            lambda: self.overlay.digest_targets() if self.overlay is not None else list(self._peers)
        )
        loop = asyncio.get_running_loop()
        if self._config.metrics_path is not None and self._exporter is None:
            self._exporter = JsonlExporter(self._config.metrics_path)
            self._export_task = loop.create_task(self._export_loop())
        if self._config.metrics_port is not None and self.metrics_server is None:
            self.metrics_server = MetricsHttpServer(
                self.metrics, port=self._config.metrics_port
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
        self.repair.close()
        if self._export_task is not None:
            self._export_task.cancel()
            self._export_task = None
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
            await asyncio.sleep(self._config.metrics_interval)
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
        self._delta_miss_warned.discard(address)

    def evict_peer(self, address: Address, sender_id: Optional[str] = None) -> None:
        """Expel a peer from this node's runtime state (view eviction).

        On top of :meth:`remove_peer`, purges the departed sender's
        stored bytes and reference, its tree and its parked deltas
        (``sender_id``, when known) and marks the address so late
        frames from it are dropped with a log-once warning instead of
        silently re-creating per-peer session state.

        Deliberately *not* purged: the sender's coverage in the
        endpoint's seen filter.  It costs O(1) per sender, and dropping
        it would re-deliver that sender's messages if a peer relays
        them later — correctness over a few bytes.  The digest leaves
        out senders outside the view instead (:meth:`Repair.digest`).
        """
        self.remove_peer(address)
        if sender_id is not None:
            sender = str(sender_id)
            self.store.purge_sender(sender)
            if self.overlay is not None:
                self.overlay.trees.pop(sender, None)
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
    def store(self) -> MessageStore:
        """The repair path's message store (:attr:`Repair.store`)."""
        return self.repair.store

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
        mismatch only bumps ``codec_epoch_mismatches``, which counts
        full forms: once per sender per bump, as a new epoch's first
        broadcast goes full so no delta chain spans two epochs).
        """
        if epoch != self._codec.epoch:
            self._codec.epoch = epoch
            self.reset_delta_reference()

    def reset_delta_reference(self) -> None:
        """Drop the send-side reference: the next broadcast goes full.

        Must be called whenever this node's own key set or epoch
        changes while the session is live (a re-tiling view, a
        re-admission grant, :meth:`set_epoch`):
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
        anti-entropy exchange when they resume.  A mesh broadcast queues
        its frame on every link with room in the caller's turn, awaits
        only links at ``_SEND_BUFFER`` (holding back no other) and yields
        once, so closed-loop callers interleave; an overlay one never does.
        """
        # Real monotonic time, not the 0.0 default: the refined
        # detector's recent-window eviction is keyed on it (a frozen
        # clock silently disables Algorithm 5's time bound).
        message = self.endpoint.broadcast(payload, now=self._now())
        # With a journal the delivery upcall inside endpoint.broadcast()
        # already encoded the message for the WAL; reuse those bytes.
        full, self._wal_encoding = self._wal_encoding, None
        wire = self._wire_body(message, full)
        self.store.add(str(message.sender), message.seq, wire, message.timestamp, self.epoch & 0xFF)
        if self.overlay is not None:
            # Overlay mode: one RELAY envelope to `fanout` view targets;
            # the receivers' relays and the anti-entropy backstop do the
            # rest.  Wire cost here is O(fanout), not O(N).
            self.overlay.stats.relay_pushes += 1
            self._relay_push(RelayFrame(hops=0, payload=wire))
            return message
        # Mesh mode: the body is packed once and shared across every
        # per-peer DATA frame — only the link-seq header differs.
        session, body, full = self.session, self.session.data_body(wire), []
        for address in self._live_targets():
            self._tally_sent(address, wire)
            if session.try_send(address, wire, body) is None:
                full.append(session.send(address, wire, shared_body=body))
        if full:
            await asyncio.gather(*full)
        await asyncio.sleep(0)
        return message

    def _wire_body(self, message: Message, full: Optional[bytes]) -> bytes:
        """The one body an own broadcast (o, s) travels in, on every
        mesh link and relay hop: a delta against (o, s − 1) when that is
        the smaller, else the full form (``full`` when not None).  No ack
        is needed: a receiver must hold (o, s − 1) before it may deliver
        (o, s) anyway; one that meets the delta first parks it."""
        previous, self._previous = self._previous, message.timestamp.vector
        delta = self._codec.encode_delta(message, previous) if previous is not None else None
        # Under any full form's size less its payload (26 bytes, the
        # sender, 4 per key, 1 per entry): the smaller, none is built.
        stamp, sender = message.timestamp, str(message.sender).encode("utf-8")
        if delta is not None and len(delta) < 26 + len(sender) + 4 * len(stamp.sender_keys) + stamp.size:
            return delta
        full = full or self._codec.encode(message)
        return delta if delta is not None and len(delta) < len(full) else full

    def _live(self, address: Address) -> bool:
        """Whether anything may be sent to ``address`` on this node's
        own account: neither evicted nor quarantined (a quarantined
        peer's copy arrives via anti-entropy on its return)."""
        return address not in self._evicted_peers and not self.session.is_quarantined(address)

    def _live_targets(self) -> List[Address]:
        """The live peers (mesh) or the live view (overlay): where mesh
        broadcasts, digest rounds and overlay announcements go."""
        if self.overlay is not None:
            return self.overlay.digest_targets(live_filter=self._live)
        return [address for address in self._peers if self._live(address)]

    # ------------------------------------------------------------------
    # overlay dissemination (PROTOCOL.md §10)
    # ------------------------------------------------------------------

    def _relay_push(self, frame: RelayFrame, exclude: Optional[Address] = None) -> int:
        """Push a sample-free RELAY envelope down its origin's eager tree.

        Used for both origin pushes (``hops=0``) and forwards.  Each copy
        is tallied by the encoding of its body, and carries the view
        sample only if it wins the view's merge coin.
        """
        overlay = self.overlay
        self.repair.note_push(frame.origin, frame.seq)
        targets = overlay.eager_targets(frame.origin, exclude, live_filter=self._live)
        if not targets:
            return 0
        carriers, bare = [], []
        for target in targets:
            self._tally_sent(target, frame.payload)
            (carriers if overlay.carries_sample() else bare).append(target)

        # Serialized at most twice: without the view sample, and with it
        # for the copies that won the coin.
        sent = self.session.send_relay(bare, frame)
        if carriers:
            sent += self.session.send_relay(
                carriers, replace(frame, sample=overlay.gossip_sample())
            )
        return sent

    def _handle_relay(self, frame: RelayFrame | TreeFrame, addr: Address) -> None:
        """Intake one RELAY envelope: merge the view sample, dedup on
        the body's header, admit the body, and forward it *verbatim*
        down the origin's eager tree on first intake only.  A duplicate
        prunes its pusher from that tree.  A delta body names the
        origin's previous broadcast, which every receiver needs before
        it may deliver this one anyway; one parked waiting for it is
        forwarded all the same (downstream may hold the reference).
        A PRUNE or GRAFT edits the tree."""
        if self._drop_if_evicted(addr, "relay"):
            return
        overlay = self.overlay
        if isinstance(frame, TreeFrame):
            overlay.edit_tree(frame.origin, addr, frame.graft)
            return
        overlay.merge_sample(frame.sample)
        message_id = (frame.origin, frame.seq)
        if self.endpoint.has_seen(message_id) or self._is_parked(message_id):
            # The SeenFilter (and the park) absorb the copies a tree not
            # yet pruned still pushes, without paying for a payload
            # decode — the body's header is enough.
            overlay.stats.relay_duplicates += 1
            if overlay.prune(frame.origin, addr, own=frame.origin == str(self.node_id)):
                self.session.send_control(addr, TreeFrame(origin=frame.origin))
            return
        delivered = self._admit(frame.payload, addr)
        if delivered is None:
            return
        self._tally_received(addr, frame.payload)
        overlay.stats.relay_first_intake += 1
        overlay.first_copy(frame.origin, addr)
        self.repair.relay_admitted(message_id, addr, delivered)
        self._relay_hops_histogram.observe(float(frame.hops))
        if frame.hops < _MAX_HOPS:
            sent = self._relay_push(
                RelayFrame(hops=frame.hops + 1, payload=frame.payload), exclude=addr
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
        if self._admit(data, addr) is not None:
            self._tally_received(addr, data)
            if self.endpoint.stats.duplicates != duplicates:
                # A link delivers each frame once, so a message seen
                # before came by another route: a repair nobody needed.
                self.repair.stats.repair_duplicates += 1
                return
            overlay = self.overlay
            if overlay is not None:
                # A repair brought what the trees missed: graft the
                # repairer, both ways, for every origin.
                overlay.edit_tree("", addr, graft=True)
                overlay.stats.grafts_sent += 1
                self.session.send_control(addr, TreeFrame(graft=True))
            self.repair.data_admitted(data, addr)

    def _admit(self, data: bytes, addr: Address) -> Optional[bool]:
        """The one intake: decode ``data`` (full or delta), check it
        against the group view, store it, and hand it to the endpoint —
        then admit, in turn, each parked delta that was waiting for the
        message just admitted.

        Returns whether the message was delivered (False: it pends, is
        a duplicate, or waits parked for a reference never recorded —
        the parked deltas it releases cannot deliver it, they need it
        first), or None when it was dropped and accounted for here:
        undecodable, not this group's vector size, a delta whose
        reference was recorded but is no longer held (or that found the
        park full), a departed sender.
        """
        released: List[Tuple[bytes, Address]] = []
        admitted = self._admit_one(data, addr, released)
        # A loop, not recursion: a parked chain can be _PARK_LIMIT long.
        while released:
            self._admit_one(*released.pop(), released)
        return admitted

    def _admit_one(
        self,
        data: bytes,
        addr: Address,
        released: List[Tuple[bytes, Address]],
    ) -> Optional[bool]:
        """:meth:`_admit` for one message; appends to ``released`` the
        parked delta this admission made decodable."""
        codec = self._codec
        reference = None
        if MessageCodec.is_delta(data):
            try:
                header = codec.delta_header(data)
            except Exception:
                self._note_decode_error(addr)
                return None
            origin, seq, _ = header
            # The newest recorded (the hot path), else a held one.
            reference = self.store.references.get(origin)
            if reference is None or reference[0] != seq - 1:
                reference = self.store.reference(origin, seq - 1)
            if reference is None:
                return self._park(data, addr, origin, seq)
        try:
            if reference is not None:
                message = codec.decode_delta(data, reference[1], reference[2], header)
            else:
                message = codec.decode(data)
        except Exception:
            # A malformed datagram must never take the node down.
            self._note_decode_error(addr)
            return None
        if message.timestamp.size != self.endpoint.clock.r:
            # Another group's geometry: the clock would refuse it, but
            # only after the store and the reference slot had taken it.
            self._note_decode_error(addr)
            return None
        sender = str(message.sender)
        if not self._sender_in_view(sender):
            self._note_stale_sender(sender)
            return None
        # A delta carries no epoch: its chain's full form's is its own.
        epoch = MessageCodec.epoch_of(data) if reference is None else reference[3]
        if self.endpoint.has_seen((sender, message.seq)):
            # Still what the sender's next delta may name (a copy after
            # a restart, whose coverage came without the bytes).
            self.store.note(sender, message.seq, message.timestamp, epoch)
        else:
            if reference is None:
                # Bytes of full encodings the store takes from the wire.
                # Keep the name: benchmarks/e2e reads it as
                # codec.retained_bytes_per_delivery, the overlay's
                # full-copy signal (ROADMAP item 1).
                codec.counters.retained_bytes += len(data)
            self.store.add(sender, message.seq, data, message.timestamp, epoch)
        # One real timestamp for every receive path (it used to default
        # to 0.0, which froze the refined detector's eviction clock).
        delivered = bool(self.endpoint.on_receive(message, now=self._now()))
        successor = self._parked.pop((sender, message.seq), None)
        if successor is not None:
            if not self._parked:
                self._parked = {}  # an emptied dict keeps its peak size
            if not self.endpoint.has_seen((sender, message.seq + 1)):
                released.append(successor)
        return delivered

    def _park(
        self,
        data: bytes,
        addr: Address,
        origin: str,
        seq: int,
    ) -> Optional[bool]:
        """A delta whose reference, the sender's previous broadcast, is
        not here.  If this node never recorded it, it is in flight or
        lost, and the delta waits for it (False, like any message held
        undelivered).  One recorded but no longer held (a restart, an
        eviction), or no room left, is a counted miss (None); a delta of
        a message already seen is a duplicate (False)."""
        if self.endpoint.has_seen((origin, seq)):
            # A copy of a message seen before (a frame retransmitted to
            # a restarted node): a duplicate, whatever it names.
            return False
        if not self._sender_in_view(origin):
            self._note_stale_sender(origin)
            return None
        key = (origin, seq - 1)
        if self.endpoint.has_seen(key) or (key not in self._parked and len(self._parked) >= _PARK_LIMIT):
            self._note_reference_miss(addr, origin, seq - 1)
            return None
        self._parked[key] = (data, addr)
        return False

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
        self.repair.request(addr)
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

    def _handle_digest(self, frontiers: Frontiers, addr: Address) -> None:
        if not self._drop_if_evicted(addr, "digest"):
            self.repair.answer(frontiers, addr)

    def _handle_liveness(self, address: Address, alive: bool) -> bool:
        """The session's verdicts: a quarantined peer is back (heal it
        now: exchange digests both ways, not at the next round), or one
        fell silent — unlinked, and quarantined when it is a peer (a
        silent gossip-learned view entry has nothing to pause)."""
        now = self._now()
        if alive:
            self.trace.emit("resume", ts=now, peer=str(address))
            self.repair.request(address, paced=False)
            return True
        if self.overlay is not None:
            self.overlay.unlink(address)
        if address not in self._peers:
            return False
        self.trace.emit("quarantine", ts=now, peer=str(address))
        return True

    def _handle_delivery(self, record: DeliveryRecord) -> None:
        message = record.message
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
                    self.delivered_frontiers(),
                    self.session.link_states(),
                    detector=(detector_stats.checks, detector_stats.alerts),
                )
                self.trace.emit(
                    "journal_snapshot", ts=self._now(),
                    number=self.journal.snapshots_written,
                )
        if self._on_delivery is not None:
            self._on_delivery(record)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def delivered_frontiers(self) -> Frontiers:
        """Per-sender ``(contiguous, extras)`` coverage of everything this
        node has *delivered* (own broadcasts included): the seen filter
        less the pending ids.  This — not the received coverage — is
        what a join state transfer pairs with the clock vector and a
        journal snapshot persists; a pending message counted as covered
        would wedge whoever adopts it."""
        frontiers = self.endpoint.seen_frontiers()
        pending: Dict[str, Set[int]] = {}
        for message in self.endpoint.pending_messages():
            pending.setdefault(message.sender, set()).add(message.seq)
        for sender, seqs in pending.items():
            contiguous, extras = frontiers[sender]
            low = min(min(seqs) - 1, contiguous)
            extras = (*range(low + 1, contiguous + 1), *extras)
            frontiers[sender] = (low, tuple(seq for seq in extras if seq not in seqs))
        return {sender: entry for sender, entry in frontiers.items() if entry != (0, ())}

    def adopt_coverage(self, frontiers: Frontiers) -> None:
        """Adopt transferred per-sender coverage: the one way in for
        journal recovery and the join state transfer alike.

        One restore of the endpoint's seen filter — all or nothing, and
        only valid before this node has received or delivered anything —
        O(senders), instead of one seen-filter add per historical
        message.  The store marks the whole range evicted: the bytes
        stayed behind.
        """
        self.endpoint.restore_seen(frontiers)
        self.store.mark_evicted(frontiers)

    @property
    def stale_frames(self) -> int:
        """Frames dropped because their source was evicted from the view."""
        return self._stale_frames

    @property
    def decode_errors(self) -> int:
        """Datagrams dropped because they failed to decode."""
        return self._decode_errors

    def state_sizes(self) -> Dict[str, int]:
        """Entries held per table — the census of what this node
        remembers (``repro_state_entries_<table>`` gauges).  Every table
        is bounded by senders, peers, a window or what is in flight;
        none grows with the number of messages delivered."""
        membership = self.membership
        seen = self.endpoint.seen_frontiers()
        sizes = {
            "seen_senders": len(seen),
            "seen_tail": sum(len(tail) for _, tail in seen.values()),
            "pending": self.endpoint.pending_count,
            "parked_deltas": len(self._parked),
            "evicted_peers": len(self._evicted_peers),
            "stale_warned": len(self._stale_warned),
            "stale_senders_warned": len(self._stale_senders_warned),
            "delta_miss_warned": len(self._delta_miss_warned),
            "leave_noted": (
                membership.leave_noted_count if membership is not None else 0
            ),
            **self.repair.state_sizes(),
        }
        if self.overlay is not None:
            sizes.update(self.overlay.tree_sizes())
        for table, size in self.session.state_sizes().items():
            sizes[f"session_{table}"] = size
        return sizes

    def transport_stats(self, address: Optional[Address] = None) -> TransportStats:
        """Wire counters: one peer's, or all peers merged when ``None``."""
        if address is not None:
            return self.session.stats_for(address)
        return self.session.total_stats()
