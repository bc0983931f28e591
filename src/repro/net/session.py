"""Reliable delivery over an unreliable datagram transport.

The paper assumes the dissemination substrate eventually gets every
message to every process (its Algorithm 5 explicitly tolerates *late*
messages, not permanently lost ones).  Plain UDP does not provide that,
so this module adds the classic reliability machinery between a
:class:`~repro.net.peer.Transport` and the causal layer:

* **per-peer sequence tracking** — every datagram sent to a peer carries
  a per-link sequence number (independent of the causal ``(sender, seq)``
  ids, which identify *messages*, not transmissions);
* **positive acks** — receivers acknowledge cumulatively plus a bounded
  selective-ack list, so one ACK datagram confirms many frames;
* **NACK-driven retransmission** — a receiver that observes a sequence
  gap immediately requests the missing frames instead of waiting for the
  sender's timer;
* **timer-driven retransmission** with exponential backoff and jitter,
  bounded by ``_MAX_RETRIES`` (after which the frame is *dropped* and
  counted — anti-entropy, one layer up, recovers the message);
* **a bounded send buffer with backpressure** — ``send`` suspends when a
  peer has too many unacknowledged frames in flight, so a dead peer
  cannot make the sender accumulate unbounded state;
* **frame coalescing** — outgoing frames queue per peer and flush as one
  BATCH datagram when they fill the ``_COALESCE_MTU`` budget, when the
  session's one flush timer fires (``_FLUSH_INTERVAL`` after the first
  frame queued since the last firing; it flushes every peer with queued
  frames), or on an explicit :meth:`flush`;
  retransmissions, digests and heartbeats ride the same queue, so a
  steady stream costs a fraction of the datagrams (and syscalls);
* **held cumulative acks that ride the data** — received DATA marks the
  link's ack pending; any datagram flushed toward that peer carries it
  in its BATCH header, and only an ack no reverse traffic picked up
  within two retransmit ticks (``2 * _TICK_INTERVAL``) leaves alone, so
  one cumulative ACK covers a burst and bidirectional traffic sends no
  standalone ACKs at all;
* **anti-entropy plumbing** — digest frames (per-sender ``(sender, seq)``
  frontiers) are encoded/dispatched here; deciding *what* is missing is
  the message-store's job (see :mod:`repro.net.node`);
* **liveness plumbing** — HEARTBEAT frames are sent/counted here, every
  incoming datagram is reported through ``on_peer_activity``, and a peer
  the failure detector declares dead can be **quarantined**: its pending
  retransmissions are dropped (counted in ``quarantine_drops``) and its
  backpressure budget released, so a dead peer burns neither timers nor
  sender memory.  :meth:`resume` re-arms the peer; anti-entropy heals
  whatever was dropped while it was away (see :mod:`repro.net.liveness`);
* **crash recovery plumbing** — per-link sequence state can be exported
  (:meth:`link_states`) and re-imported (:meth:`restore_peer`) by the
  journal, and ``on_link_seq`` fires *before* a fresh sequence number
  first hits the wire so the journal can lease seq ranges ahead of use
  (see :mod:`repro.net.journal`).

Everything observable is surfaced through per-peer
:class:`TransportStats` (sends, retransmits, nacks, drops, a smoothed
RTT estimate) so benchmarks and soak tests can watch the wire.

The session is transport-agnostic: it runs over real UDP
(:class:`~repro.net.udp.BatchedUdpTransport`), the in-process bus
(:class:`~repro.net.bus.LocalAsyncBus`) or a fault-injecting wrapper
(:class:`~repro.net.faults.FaultyTransport`).
"""

from __future__ import annotations

import asyncio
import random
from collections import OrderedDict
from dataclasses import dataclass, fields
from typing import Callable, Dict, Hashable, List, Optional, Set, Tuple

from repro.core.codec import (
    AckFrame,
    BatchFrame,
    CodecError,
    DataFrame,
    DigestFrame,
    Frame,
    FrameCodec,
    HeartbeatFrame,
    JoinAckFrame,
    JoinFrame,
    LeaveFrame,
    NackFrame,
    RelayFrame,
    ViewFrame,
    varint_size,
)
from repro.core.errors import ConfigurationError
from repro.net.peer import Transport

__all__ = ["RetransmitPolicy", "TransportStats", "ReliableSession"]

Address = Hashable
MessageHandler = Callable[[bytes, Address], None]
DigestHandler = Callable[[Dict[str, Tuple[int, Tuple[int, ...]]], Address], None]
ActivityHandler = Callable[[Address], None]
LinkSeqHandler = Callable[[Address, int], None]
MembershipHandler = Callable[[Frame, Address], None]
RelayHandler = Callable[[RelayFrame, Address], None]

# Acked-at-first-send RTT smoothing (Jacobson/Karels constants).
_RTT_ALPHA = 0.125
_RTT_BETA = 0.25


# The session's tuning.  Only ``RetransmitPolicy.initial_timeout`` is a
# knob; these are read at call time, so a test may monkeypatch them.
# Each retransmission doubles the frame's timeout, so a dead or
# congested peer gets geometrically fewer resends.
_BACKOFF_FACTOR = 2.0
# Ceiling on a frame's timeout and the adaptive RTO (s): 0.05 s doubled
# ten times would wait 51 s.
_MAX_TIMEOUT = 2.0
# Resend times spread by up to this fraction of the timeout, so peers
# that lost the same datagram do not resend in lockstep.
_JITTER = 0.25
# Resends per frame before it is dropped and left to anti-entropy:
# 13–16 s of backoff from the 0.05 s default.
_MAX_RETRIES = 10
# Unacked frames per peer before ``send`` suspends: two seconds of a
# link at the loopback closed loop's ~500 broadcasts/s.
_SEND_BUFFER = 1024
# Period of the retransmit scan (s); it also ages held acks, so an ack
# waits for reverse traffic at most two ticks (20 ms).
_TICK_INTERVAL = 0.01
# Minimum delay between two NACKs for one missing frame (s), so a gap
# that every later datagram exposes asks for its frame once, not per
# arrival.
_NACK_INTERVAL = 0.04
# Frame-coalescing budget per datagram (bytes): under a 1,500-byte
# Ethernet MTU with room for IP, UDP and tunnel headers.
_COALESCE_MTU = 1400
# How long a queued frame waits for company before the outbox flushes
# (s): what a lone frame pays for batching, a twentieth of the ack hold.
_FLUSH_INTERVAL = 0.001


@dataclass(frozen=True)
class RetransmitPolicy:
    """Tuning of the retransmission state machine.

    Attributes:
        initial_timeout: first retransmit timeout (seconds) before any
            RTT estimate exists; also the floor of the adaptive RTO.  A
            held ack may wait two retransmit ticks (``2 *
            _TICK_INTERVAL``, 20 ms), so it may not be shorter, and the
            ceiling ``_MAX_TIMEOUT`` (2 s) caps it.
    """

    initial_timeout: float = 0.05

    def __post_init__(self) -> None:
        if self.initial_timeout <= 0:
            raise ConfigurationError(f"initial_timeout must be > 0, got {self.initial_timeout}")
        if self.initial_timeout < 2 * _TICK_INTERVAL:
            # A held ack may wait two ticks; the RTO floor must cover it.
            raise ConfigurationError(
                f"initial_timeout ({self.initial_timeout}) must be >= 2 * the retransmit "
                f"tick ({_TICK_INTERVAL})"
            )
        if self.initial_timeout > _MAX_TIMEOUT:
            raise ConfigurationError(
                f"initial_timeout ({self.initial_timeout}) must be <= the timeout "
                f"ceiling ({_MAX_TIMEOUT})"
            )


@dataclass
class TransportStats:
    """Per-peer wire counters (one instance per remote address).

    Attributes:
        data_sent: first transmissions of DATA frames.
        retransmits: re-transmissions (timer- or NACK-driven).
        drops: frames abandoned after ``_MAX_RETRIES`` (anti-entropy's job).
        data_received: new DATA frames received (duplicates excluded).
        duplicates: DATA frames received more than once.
        acks_sent / acks_received: ACK frame counts.
        nacks_sent / nacks_received: NACK frame counts.
        digests_sent / digests_received: anti-entropy digest counts.
        heartbeats_sent / heartbeats_received: liveness beacon counts.
        quarantine_drops: pending frames discarded when the failure
            detector quarantined this peer (anti-entropy re-sends the
            messages they carried once the peer returns).
        datagrams_sent / datagrams_received: transport-level sends and
            arrivals (one BATCH counts once, however many frames it
            carries; datagrams that fail to decode count too).
        bytes_sent / bytes_received: wire bytes of those datagrams.
        frames_sent / frames_received: session frames crossing the wire
            (inner frames of a batch counted individually), so frames
            per datagram is ``frames_sent / datagrams_sent``.
        batches_sent / batches_received: BATCH container datagrams.
        acks_piggybacked: acknowledgements that rode an outgoing batch
            instead of costing a standalone datagram (subset of
            ``acks_sent``; standalone = sent − piggybacked).
        delta_sent / delta_received: messages that crossed this link in
            the O(K) DELTA encoding (counted by the node layer).
        full_sent / full_received: messages in the full-vector encoding.
        delta_ref_misses: delta messages dropped because the receiver
            no longer holds the reference it once recorded (a crash
            restart, store eviction) or had no room to park the delta;
            each miss triggers an anti-entropy resync that re-delivers
            them full.
        control_sent / control_received: membership control frames
            (VIEW/JOIN/JOIN_ACK/LEAVE) crossing this link.
        relay_sent / relay_received: overlay RELAY envelopes crossing
            this link (fire-and-forget gossip pushes; anti-entropy is
            the loss backstop, so they are never retransmitted).
        rtt: smoothed round-trip estimate in seconds (None until the
            first clean ack of a never-retransmitted frame).
        rtt_samples: clean RTT samples folded into the estimate — the
            weight of ``rtt`` when merging across peers.
        rtt_min / rtt_max: extreme raw samples (None until the first),
            so a merged view preserves the spread the mean hides.
    """

    data_sent: int = 0
    retransmits: int = 0
    drops: int = 0
    data_received: int = 0
    duplicates: int = 0
    acks_sent: int = 0
    acks_received: int = 0
    nacks_sent: int = 0
    nacks_received: int = 0
    digests_sent: int = 0
    digests_received: int = 0
    heartbeats_sent: int = 0
    heartbeats_received: int = 0
    quarantine_drops: int = 0
    datagrams_sent: int = 0
    datagrams_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    frames_sent: int = 0
    frames_received: int = 0
    batches_sent: int = 0
    batches_received: int = 0
    acks_piggybacked: int = 0
    delta_sent: int = 0
    delta_received: int = 0
    full_sent: int = 0
    full_received: int = 0
    delta_ref_misses: int = 0
    control_sent: int = 0
    control_received: int = 0
    relay_sent: int = 0
    relay_received: int = 0
    rtt: Optional[float] = None
    rtt_samples: int = 0
    rtt_min: Optional[float] = None
    rtt_max: Optional[float] = None

    def merge(self, other: "TransportStats") -> "TransportStats":
        """Elementwise sum, for totals.

        The merged ``rtt`` is the sample-count-weighted mean of the known
        estimates: a peer whose estimate rests on one early ack must not
        pull the aggregate as hard as a peer with thousands of samples
        behind it (the unweighted average used to let one idle link skew
        the fleet view).  An estimate that somehow exists with zero
        recorded samples still counts with weight one rather than
        vanishing.  ``rtt_min``/``rtt_max`` take the elementwise extreme
        so the spread survives aggregation.
        """
        merged = TransportStats()
        estimates = [
            (estimate, max(samples, 1))
            for estimate, samples in (
                (self.rtt, self.rtt_samples),
                (other.rtt, other.rtt_samples),
            )
            if estimate is not None
        ]
        if estimates:
            weight = sum(samples for _, samples in estimates)
            merged.rtt = sum(e * s for e, s in estimates) / weight
        mins = [m for m in (self.rtt_min, other.rtt_min) if m is not None]
        merged.rtt_min = min(mins) if mins else None
        maxes = [m for m in (self.rtt_max, other.rtt_max) if m is not None]
        merged.rtt_max = max(maxes) if maxes else None
        for stats_field in fields(TransportStats):
            if stats_field.name in ("rtt", "rtt_min", "rtt_max"):
                continue
            setattr(
                merged,
                stats_field.name,
                getattr(self, stats_field.name) + getattr(other, stats_field.name),
            )
        return merged


@dataclass(slots=True)
class _Pending:
    """One unacknowledged frame awaiting ack or retransmission."""

    data: bytes
    first_sent: float
    next_due: float
    timeout: float
    sends: int = 1


class _PeerState:
    """Everything the session tracks about one remote address."""

    def __init__(self, policy: RetransmitPolicy) -> None:
        self.next_seq = 1
        self.unacked: "OrderedDict[int, _Pending]" = OrderedDict()
        self.space = asyncio.Event()
        self.space.set()
        self.recv_cumulative = 0
        self.recv_out_of_order: Set[int] = set()
        self.nack_last: Dict[int, float] = {}
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.stats = TransportStats()
        self.quarantined = False
        # Coalescing outbox: encoded frames awaiting a BATCH flush, and
        # their wire cost (frame bytes + per-frame length varints).
        self.outbox: List[bytes] = []
        self.outbox_bytes = 0
        # Held-ack state, aged by the retransmit tick (pending -> aged ->
        # sent); the ack itself is built at emission time so it is always
        # maximally cumulative.
        self.ack_pending = False
        self.ack_aged = False
        # Event-loop time of the last datagram sent to this peer (lets
        # the liveness layer skip heartbeats when traffic already flows).
        self.last_send = -1.0
        self._policy = policy

    def rto(self) -> float:
        """Current retransmission timeout (adaptive once RTT is known)."""
        if self.srtt is None:
            return self._policy.initial_timeout
        rto = self.srtt + 4.0 * (self.rttvar or 0.0)
        return min(max(rto, self._policy.initial_timeout), _MAX_TIMEOUT)

    def observe_rtt(self, sample: float) -> None:
        """Fold one clean (never-retransmitted) RTT sample in."""
        if self.srtt is None:
            self.srtt = sample
            self.rttvar = sample / 2.0
        else:
            self.rttvar = (1 - _RTT_BETA) * self.rttvar + _RTT_BETA * abs(self.srtt - sample)
            self.srtt = (1 - _RTT_ALPHA) * self.srtt + _RTT_ALPHA * sample
        self.stats.rtt = self.srtt
        self.stats.rtt_samples += 1
        if self.stats.rtt_min is None or sample < self.stats.rtt_min:
            self.stats.rtt_min = sample
        if self.stats.rtt_max is None or sample > self.stats.rtt_max:
            self.stats.rtt_max = sample

    def note_received(self, seq: int) -> bool:
        """Record an incoming DATA seq; True when it was new."""
        if seq <= self.recv_cumulative or seq in self.recv_out_of_order:
            return False
        self.recv_out_of_order.add(seq)
        while self.recv_cumulative + 1 in self.recv_out_of_order:
            self.recv_cumulative += 1
            self.recv_out_of_order.discard(self.recv_cumulative)
            self.nack_last.pop(self.recv_cumulative, None)
        return True

    def missing_seqs(self, limit: int = 64) -> List[int]:
        """Gaps below the highest out-of-order seq received."""
        if not self.recv_out_of_order:
            return []
        highest = max(self.recv_out_of_order)
        gaps = []
        for seq in range(self.recv_cumulative + 1, highest):
            if seq not in self.recv_out_of_order:
                gaps.append(seq)
                if len(gaps) >= limit:
                    break
        return gaps


class ReliableSession:
    """Ack/retransmit/anti-entropy machinery over one transport.

    Args:
        transport: the datagram substrate; the session installs itself as
            its receiver.
        on_message: upcall ``(payload, addr)`` invoked exactly once per
            *new* DATA frame (duplicates are absorbed here).  A
            datagram that is not a session frame is a counted
            ``frame_errors``, like any other undecodable one.
        on_digest: upcall ``(frontiers, addr)`` for anti-entropy digests;
            the owner answers by re-sending whatever the digest lacks.
        on_peer_activity: upcall ``(addr)`` for every incoming datagram,
            whatever its kind — the liveness monitor's evidence stream.
        on_link_seq: upcall ``(addr, seq)`` invoked *before* a fresh DATA
            sequence number is first transmitted, so a journal can lease
            seq ranges ahead of use (write-ahead ordering).
        on_membership: upcall ``(frame, addr)`` for membership control
            frames (VIEW/JOIN/JOIN_ACK/LEAVE); without it they are
            counted and dropped.
        on_relay: upcall ``(frame, addr)`` for overlay RELAY envelopes;
            without it they are counted and dropped (a mesh-mode node
            receiving strays from an overlay peer stays unaffected —
            anti-entropy still carries the messages).
        data_gate: optional admission predicate for the data plane.
            While it returns False, inbound DATA and DIGEST frames are
            dropped *unacknowledged* (the sender's retransmit timer
            keeps them alive); membership control and pure wire frames
            still flow.  A node mid-JOIN uses this so no state reaches
            its store before the handshake's state transfer lands.
        policy: retransmission tuning; defaults to :class:`RetransmitPolicy`.
        seed: seeds the jitter generator (jitter needs no determinism,
            but a fixed seed keeps tests reproducible).
    """

    def __init__(
        self,
        transport: Transport,
        on_message: MessageHandler,
        on_digest: Optional[DigestHandler] = None,
        on_peer_activity: Optional[ActivityHandler] = None,
        on_link_seq: Optional[LinkSeqHandler] = None,
        on_membership: Optional[MembershipHandler] = None,
        on_relay: Optional[RelayHandler] = None,
        data_gate: Optional[Callable[[], bool]] = None,
        policy: Optional[RetransmitPolicy] = None,
        seed: int = 0,
    ) -> None:
        self._transport = transport
        self._on_message = on_message
        self._on_digest = on_digest
        self._on_peer_activity = on_peer_activity
        self._on_link_seq = on_link_seq
        self._on_membership = on_membership
        self._on_relay = on_relay
        self._data_gate = data_gate
        self._policy = policy if policy is not None else RetransmitPolicy()
        self._codec = FrameCodec()
        self._random = random.Random(seed)
        self._peers: Dict[Address, _PeerState] = {}
        # Peers with queued frames, flushed together when the session's
        # one flush timer fires.
        self._dirty: Dict[Address, _PeerState] = {}
        self._flush_handle: Optional[asyncio.TimerHandle] = None
        self._tick_task: Optional[asyncio.Task] = None
        self._tasks: Set[asyncio.Task] = set()
        self._closed = False
        self.frame_errors = 0
        self.gated_frames = 0
        self._rtt_histogram = None  # set by bind_metrics()
        # Batched-transport fast paths, detected on the transport's
        # *class* deliberately: FaultyTransport proxies unknown attribute
        # reads to its inner transport via __getattr__, and resolving
        # send_now through the proxy would silently bypass fault
        # injection.  A wrapper that wants the fast path must define the
        # methods itself.
        transport_cls = type(transport)
        self._transport_send_now = (
            transport.send_now if hasattr(transport_cls, "send_now") else None
        )
        transport.set_receiver(self._handle_datagram)
        if hasattr(transport_cls, "set_batch_receiver"):
            transport.set_batch_receiver(self._handle_datagram_batch)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the retransmit timer (requires a running event loop)."""
        if self._tick_task is None:
            self._tick_task = asyncio.get_running_loop().create_task(self._tick_loop())

    async def close(self) -> None:
        """Stop timers, cancel in-flight sends, close the transport."""
        self._closed = True
        if self._tick_task is not None:
            self._tick_task.cancel()
            self._tick_task = None
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        for address, state in self._peers.items():
            self._disarm(address, state)
        for task in list(self._tasks):
            task.cancel()
        self._tasks.clear()
        await self._transport.close()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Attach a metrics registry (``repro.obs``).

        Every integer field of :class:`TransportStats` becomes a
        ``repro_wire_<field>_total`` counter, synced from
        :meth:`total_stats` by a pull collector at snapshot time — the
        per-datagram paths keep mutating the plain dataclass they always
        mutated, and the registry mirrors it exactly (the differential
        suite holds the two views equal).  The only push instrument is
        the raw RTT-sample histogram, one observe per clean ack.
        """
        self._rtt_histogram = registry.histogram("repro_wire_rtt_seconds")
        skip = ("rtt", "rtt_min", "rtt_max")
        counters = {
            stats_field.name: registry.counter(f"repro_wire_{stats_field.name}_total")
            for stats_field in fields(TransportStats)
            if stats_field.name not in skip
        }
        rtt_mean = registry.gauge("repro_wire_rtt_mean_seconds")
        peer_count = registry.gauge("repro_wire_peers")

        def collect() -> None:
            total = self.total_stats()
            for name, counter in counters.items():
                counter.set(getattr(total, name))
            rtt_mean.set(total.rtt if total.rtt is not None else 0.0)
            peer_count.set(len(self._peers))

        registry.register_collector(collect)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats_for(self, address: Address) -> TransportStats:
        """Per-peer wire counters (zeros for a never-seen address)."""
        state = self._peers.get(address)
        return state.stats if state is not None else TransportStats()

    def all_stats(self) -> Dict[Address, TransportStats]:
        """Snapshot of every peer's counters."""
        return {address: state.stats for address, state in self._peers.items()}

    def total_stats(self) -> TransportStats:
        """All peers' counters merged into one."""
        total = TransportStats()
        for state in self._peers.values():
            total = total.merge(state.stats)
        return total

    def unacked_count(self, address: Address) -> int:
        """Frames awaiting acknowledgement from ``address``."""
        state = self._peers.get(address)
        return len(state.unacked) if state is not None else 0

    def peer_stats(self, address: Address) -> TransportStats:
        """Live (mutable) counters for ``address``, created on demand.

        Unlike :meth:`stats_for` this never hands back a detached zero
        object, so upper layers can count on it directly (the node layer
        records delta/full encoding choices here).
        """
        return self._peer(address).stats

    def last_send_time(self, address: Address) -> float:
        """Event-loop time of the last datagram sent to ``address``
        (-1.0 before the first); lets liveness suppress heartbeats on
        links that already carry traffic."""
        state = self._peers.get(address)
        return state.last_send if state is not None else -1.0

    @property
    def codec_counters(self):
        """The frame codec's decode tallies
        (:class:`repro.core.codec.CodecCounters`)."""
        return self._codec.counters

    def state_sizes(self) -> Dict[str, int]:
        """Entries held across all peers, per table (the node's
        ``state_sizes()`` census): each is bounded by ``_SEND_BUFFER``,
        the reordering depth or the flush tick, per peer."""
        peers = self._peers.values()
        return {
            "peers": len(self._peers),
            "unacked": sum(len(state.unacked) for state in peers),
            "out_of_order": sum(len(state.recv_out_of_order) for state in peers),
            "nack_marks": sum(len(state.nack_last) for state in peers),
            "outbox": sum(len(state.outbox) for state in peers),
            "tasks": len(self._tasks),
        }

    def link_states(self) -> Dict[Address, Tuple[int, int, Tuple[int, ...]]]:
        """Per-peer link-sequence state for journal snapshots.

        Maps each address to ``(tx_next, rx_cumulative, rx_out_of_order)``.
        """
        return {
            address: (
                state.next_seq,
                state.recv_cumulative,
                tuple(sorted(state.recv_out_of_order)),
            )
            for address, state in self._peers.items()
        }

    # ------------------------------------------------------------------
    # peer lifecycle (quarantine / crash recovery / purge)
    # ------------------------------------------------------------------

    def quarantine(self, address: Address) -> int:
        """Park an unresponsive peer; returns the pending frames dropped.

        Its unacked buffer is discarded (counted in ``quarantine_drops``;
        anti-entropy re-delivers those messages on resume), blocked
        senders are released, and the retransmit timer skips it — a dead
        peer stops costing memory and wire traffic.  Idempotent.
        """
        state = self._peers.get(address)
        if state is None or state.quarantined:
            return 0
        state.quarantined = True
        dropped = len(state.unacked)
        state.stats.quarantine_drops += dropped
        state.unacked.clear()
        self._disarm(address, state)
        state.space.set()
        return dropped

    def resume(self, address: Address) -> bool:
        """Lift a quarantine (the peer showed signs of life); True if it
        was actually quarantined."""
        state = self._peers.get(address)
        if state is None or not state.quarantined:
            return False
        state.quarantined = False
        return True

    def is_quarantined(self, address: Address) -> bool:
        """Whether ``address`` is currently quarantined."""
        state = self._peers.get(address)
        return state is not None and state.quarantined

    def forget(self, address: Address) -> bool:
        """Purge all per-peer state for ``address`` (membership removal).

        Drops pending retransmissions, receive bookkeeping and stats, and
        wakes any sender blocked on the peer's backpressure (their
        in-flight frames complete against the discarded state and are
        never retransmitted).  Returns True when state existed.
        """
        state = self._peers.pop(address, None)
        if state is None:
            return False
        state.unacked.clear()
        self._disarm(address, state)
        state.space.set()
        return True

    def restore_peer(
        self,
        address: Address,
        next_seq: int = 1,
        recv_cumulative: int = 0,
        recv_out_of_order: Tuple[int, ...] = (),
    ) -> None:
        """Re-import journaled link state after a crash restart.

        ``next_seq`` comes from the journal's seq lease, guaranteeing a
        restarted node never reuses a link sequence number its peer saw
        before the crash.  Receive-side state may lag the true pre-crash
        value (it is only snapshotted periodically); the regression is
        harmless — re-accepted duplicates are absorbed by the causal
        layer's ``(sender, seq)`` duplicate suppression.
        """
        state = self._peer(address)
        state.next_seq = max(state.next_seq, int(next_seq))
        state.recv_cumulative = max(state.recv_cumulative, int(recv_cumulative))
        state.recv_out_of_order.update(
            int(seq) for seq in recv_out_of_order if int(seq) > state.recv_cumulative
        )

    # ------------------------------------------------------------------
    # sending
    # ------------------------------------------------------------------

    @staticmethod
    def data_body(payload: bytes) -> bytes:
        """Pre-pack the seq-independent part of a DATA frame once.

        A broadcast fan-out sends the same payload to every peer; only
        the per-link seq in the header differs.  The node layer builds
        this body once per broadcast and passes it to every
        :meth:`send`, so an N-peer fan-out packs the payload a single
        time instead of N times.
        """
        return FrameCodec.encode_data_body(payload)

    async def send(
        self,
        destination: Address,
        payload: bytes,
        shared_body: Optional[bytes] = None,
    ) -> int:
        """Reliably send ``payload``; returns the link sequence number.

        Suspends (backpressure) while ``destination`` already has
        ``_SEND_BUFFER`` unacknowledged frames in flight.
        ``shared_body`` is an optional pre-packed :meth:`data_body` of
        the same payload, shared across a fan-out.
        """
        state = self._peer(destination)
        while len(state.unacked) >= _SEND_BUFFER:
            state.space.clear()
            await state.space.wait()
        seq = state.next_seq
        state.next_seq += 1
        if self._on_link_seq is not None:
            # Write-ahead: the journal leases the seq before it hits the wire.
            self._on_link_seq(destination, seq)
        if shared_body is None:
            shared_body = FrameCodec.encode_data_body(payload)
        frame = FrameCodec.encode_data_with_body(seq, shared_body)
        now = asyncio.get_running_loop().time()
        timeout = state.rto()
        state.unacked[seq] = _Pending(
            data=frame, first_sent=now, next_due=now + self._jittered(timeout), timeout=timeout
        )
        state.stats.data_sent += 1
        self._transmit(destination, state, frame)
        return seq

    def push(self, destination: Address, payload: bytes) -> None:
        """Schedule a reliable :meth:`send` from synchronous context
        (e.g. inside a receive upcall answering an anti-entropy digest)."""
        self._post(self.send(destination, payload))

    async def send_digest(
        self, destination: Address, frontiers: Dict[str, Tuple[int, Tuple[int, ...]]]
    ) -> None:
        """Fire-and-forget an anti-entropy digest (loss is harmless —
        the next periodic round repeats it)."""
        state = self._peer(destination)
        state.stats.digests_sent += 1
        self._transmit(destination, state, self._codec.encode(DigestFrame(frontiers)))

    async def send_heartbeat(self, destination: Address, count: int) -> None:
        """Fire-and-forget a liveness beacon (never acked or retransmitted)."""
        state = self._peer(destination)
        state.stats.heartbeats_sent += 1
        self._transmit(destination, state, self._codec.encode(HeartbeatFrame(count=count)))

    def send_control(self, destination: Address, frame: Frame) -> None:
        """Fire-and-forget a membership control frame (VIEW/JOIN/JOIN_ACK/
        LEAVE).  Reliability is the membership layer's job: JOIN retries
        with backoff, VIEW is periodically re-announced, a lost LEAVE is
        backstopped by quarantine eviction."""
        state = self._peer(destination)
        state.stats.control_sent += 1
        self._transmit(destination, state, self._codec.encode(frame))

    def send_relay(self, destinations: List[Address], frame: RelayFrame) -> int:
        """Encode a RELAY envelope once and push it to every destination.

        Fire-and-forget, like digests: a lost push is healed by the
        other relay copies and ultimately by anti-entropy, so relays
        never enter the ack/retransmit machinery (an overlay of N nodes
        would otherwise rebuild exactly the per-peer session cost the
        overlay exists to avoid).  Returns the number of pushes.
        """
        if not destinations:
            return 0
        data = self._codec.encode(frame)
        for destination in destinations:
            state = self._peer(destination)
            state.stats.relay_sent += 1
            self._transmit(destination, state, data)
        return len(destinations)

    # ------------------------------------------------------------------
    # coalescing wire path
    # ------------------------------------------------------------------

    def _transmit(self, addr: Address, state: _PeerState, frame_bytes: bytes) -> None:
        """Put an encoded frame on the wire via the coalescing outbox,
        which flushes as one BATCH datagram when the budget fills, when
        the session's flush timer fires, or on an explicit :meth:`flush`.
        """
        cost = varint_size(len(frame_bytes)) + len(frame_bytes)
        if state.outbox and state.outbox_bytes + cost > _COALESCE_MTU:
            self._flush_peer(addr, state)
        state.outbox.append(frame_bytes)
        state.outbox_bytes += cost
        if state.outbox_bytes >= _COALESCE_MTU:
            # Budget full (or a single oversized frame): no point waiting.
            self._flush_peer(addr, state)
            return
        self._dirty[addr] = state
        if self._flush_handle is None:
            self._flush_handle = asyncio.get_running_loop().call_later(
                _FLUSH_INTERVAL, self._flush_dirty
            )

    def _flush_dirty(self) -> None:
        """The flush timer: emit every peer's queued frames."""
        self._flush_handle = None
        for addr, state in list(self._dirty.items()):
            self._flush_peer(addr, state)

    def _flush_peer(self, addr: Address, state: _PeerState) -> None:
        """Emit the peer's outbox as one datagram, piggybacking any
        pending held ack."""
        self._dirty.pop(addr, None)
        frames = state.outbox
        if not frames and not state.ack_pending:
            return
        state.outbox = []
        state.outbox_bytes = 0
        ack = self._take_ack(state)
        if ack is not None:
            state.stats.acks_sent += 1
        if not frames:
            # Only the held ack: an explicit flush, or the hold ran out.
            self._send_datagram(addr, state, self._codec.encode(ack), frames=1)
            return
        if len(frames) == 1 and ack is None:
            # A lone frame needs no container.
            self._send_datagram(addr, state, frames[0], frames=1)
            return
        if ack is not None:
            state.stats.acks_piggybacked += 1
        state.stats.batches_sent += 1
        data = self._codec.encode(BatchFrame(frames=tuple(frames), ack=ack))
        self._send_datagram(addr, state, data, frames=len(frames))

    def _take_ack(self, state: _PeerState) -> Optional[AckFrame]:
        """Consume the pending held ack, built maximally cumulative
        at this moment (not at the moment the data arrived)."""
        if not state.ack_pending:
            return None
        state.ack_pending = state.ack_aged = False
        return AckFrame(
            cumulative=state.recv_cumulative,
            sacks=tuple(sorted(state.recv_out_of_order)[:64]),
        )

    def _send_datagram(
        self, addr: Address, state: _PeerState, data: bytes, frames: int
    ) -> None:
        state.stats.datagrams_sent += 1
        state.stats.bytes_sent += len(data)
        state.stats.frames_sent += frames
        state.last_send = asyncio.get_running_loop().time()
        if self._transport_send_now is not None:
            # Batched transport: enqueue synchronously, no task per
            # datagram — the transport flushes the tick's sends in one
            # burst.  Oversize rejection matches the async path, where
            # the failed task's exception was swallowed by _reap.
            try:
                self._transport_send_now(addr, data)
            except ConfigurationError:
                pass
            return
        self._post(self._transport.send(addr, data))

    def flush(self, address: Optional[Address] = None) -> None:
        """Flush queued frames (and pending held acks) immediately.

        With no address every peer is flushed.  Latency-sensitive
        callers use this instead of waiting out ``_FLUSH_INTERVAL``.
        """
        targets = [address] if address is not None else list(self._peers)
        for addr in targets:
            state = self._peers.get(addr)
            if state is not None and (state.outbox or state.ack_pending):
                self._flush_peer(addr, state)

    # ------------------------------------------------------------------
    # receiving
    # ------------------------------------------------------------------

    def _handle_datagram_batch(self, batch) -> None:
        """One receive upcall for a whole wakeup's worth of datagrams."""
        handle = self._handle_datagram
        for data, addr in batch:
            handle(data, addr)

    def _handle_datagram(self, data: bytes, addr: Address) -> None:
        if self._on_peer_activity is not None:
            # Any datagram — data, ack, digest, heartbeat, even one that
            # fails to decode — is evidence the address is alive.
            self._on_peer_activity(addr)
        state = self._peer(addr)
        state.stats.datagrams_received += 1
        state.stats.bytes_received += len(data)
        try:
            frame = self._codec.decode(data)
        except CodecError:
            self.frame_errors += 1
            return
        self._dispatch(frame, addr)

    def _dispatch(self, frame: Frame, addr: Address) -> None:
        state = self._peer(addr)
        now = asyncio.get_running_loop().time()
        if isinstance(frame, BatchFrame):
            state.stats.batches_received += 1
            if frame.ack is not None:
                # Piggybacked ack: processed exactly like a standalone one.
                self._on_ack(state, frame.ack, now)
            for inner_bytes in frame.frames:
                try:
                    inner = self._codec.decode(inner_bytes)
                except CodecError:
                    self.frame_errors += 1
                    continue
                self._dispatch(inner, addr)
            return
        state.stats.frames_received += 1
        if (
            isinstance(frame, (DataFrame, DigestFrame, RelayFrame))
            and self._data_gate is not None
            and not self._data_gate()
        ):
            # Not admitted to the data plane (e.g. mid-JOIN): drop
            # without acking so the sender keeps the frame alive.
            self.gated_frames += 1
            return
        if isinstance(frame, DataFrame):
            self._on_data(state, frame, addr, now)
        elif isinstance(frame, AckFrame):
            self._on_ack(state, frame, now)
        elif isinstance(frame, NackFrame):
            self._on_nack(state, frame, addr, now)
        elif isinstance(frame, DigestFrame):
            state.stats.digests_received += 1
            if self._on_digest is not None:
                self._on_digest(frame.frontiers, addr)
        elif isinstance(frame, HeartbeatFrame):
            state.stats.heartbeats_received += 1
        elif isinstance(frame, RelayFrame):
            state.stats.relay_received += 1
            if self._on_relay is not None:
                self._on_relay(frame, addr)
        elif isinstance(frame, (ViewFrame, JoinFrame, JoinAckFrame, LeaveFrame)):
            state.stats.control_received += 1
            if self._on_membership is not None:
                self._on_membership(frame, addr)

    def _on_data(self, state: _PeerState, frame: DataFrame, addr: Address, now: float) -> None:
        if state.note_received(frame.seq):
            state.stats.data_received += 1
            self._on_message(frame.payload, addr)
        else:
            state.stats.duplicates += 1
        # Always acknowledge — the duplicate may be a retransmission whose
        # previous ack was lost, and only an ack stops the sender's timer
        # — but held: the next datagram toward this peer carries it, and
        # the retransmit tick sends it alone if none leaves in two ticks.
        state.ack_pending = True
        self._maybe_nack(state, addr, now)

    def _maybe_nack(self, state: _PeerState, addr: Address, now: float) -> None:
        gaps = [
            seq
            for seq in state.missing_seqs()
            if now - state.nack_last.get(seq, -1e18) >= _NACK_INTERVAL
        ]
        if not gaps:
            return
        for seq in gaps:
            state.nack_last[seq] = now
        state.stats.nacks_sent += 1
        self._transmit(addr, state, self._codec.encode(NackFrame(tuple(gaps))))

    def _on_ack(self, state: _PeerState, frame: AckFrame, now: float) -> None:
        state.stats.acks_received += 1
        sacked = set(frame.sacks)
        for seq in [
            s for s in state.unacked if s <= frame.cumulative or s in sacked
        ]:
            pending = state.unacked.pop(seq)
            if pending.sends == 1:
                # Karn's rule: only never-retransmitted frames give a
                # trustworthy RTT sample.
                sample = now - pending.first_sent
                state.observe_rtt(sample)
                if self._rtt_histogram is not None:
                    self._rtt_histogram.observe(sample)
        if len(state.unacked) < _SEND_BUFFER:
            state.space.set()

    def _on_nack(self, state: _PeerState, frame: NackFrame, addr: Address, now: float) -> None:
        state.stats.nacks_received += 1
        for seq in frame.missing:
            pending = state.unacked.get(seq)
            if pending is not None and pending.sends <= _MAX_RETRIES:
                self._retransmit(state, addr, seq, pending, now)

    # ------------------------------------------------------------------
    # retransmission
    # ------------------------------------------------------------------

    async def _tick_loop(self) -> None:
        while not self._closed:
            await asyncio.sleep(_TICK_INTERVAL)
            now = asyncio.get_running_loop().time()
            for address, state in self._peers.items():
                if not state.quarantined:
                    due = [
                        (seq, pending)
                        for seq, pending in state.unacked.items()
                        if pending.next_due <= now
                    ]
                    for seq, pending in due:
                        if pending.sends > _MAX_RETRIES:
                            state.unacked.pop(seq, None)
                            state.stats.drops += 1
                            if len(state.unacked) < _SEND_BUFFER:
                                state.space.set()
                        else:
                            self._retransmit(state, address, seq, pending, now)
                if state.ack_aged:
                    # Two ticks and no datagram toward the peer picked the
                    # ack up: send it, with whatever this tick queued.
                    self._flush_peer(address, state)
                elif state.ack_pending:
                    state.ack_aged = True

    def _retransmit(
        self, state: _PeerState, addr: Address, seq: int, pending: _Pending, now: float
    ) -> None:
        pending.sends += 1
        pending.timeout = min(
            pending.timeout * _BACKOFF_FACTOR, _MAX_TIMEOUT
        )
        pending.next_due = now + self._jittered(pending.timeout)
        state.stats.retransmits += 1
        self._transmit(addr, state, pending.data)

    def _jittered(self, timeout: float) -> float:
        return timeout * (1.0 + _JITTER * self._random.random())

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _disarm(self, address: Address, state: _PeerState) -> None:
        """Drop a peer's queued-but-unsent wire state (outbox, its place
        in the flush set, held ack) — for quarantine, purge and shutdown."""
        state.outbox.clear()
        state.outbox_bytes = 0
        state.ack_pending = state.ack_aged = False
        self._dirty.pop(address, None)

    def _peer(self, address: Address) -> _PeerState:
        state = self._peers.get(address)
        if state is None:
            state = _PeerState(self._policy)
            self._peers[address] = state
        return state

    def _post(self, coroutine) -> None:
        """Run an async send from sync context, tracking the task."""
        if self._closed:
            coroutine.close()
            return
        task = asyncio.get_running_loop().create_task(coroutine)
        self._tasks.add(task)
        task.add_done_callback(self._reap)

    def _reap(self, task: asyncio.Task) -> None:
        self._tasks.discard(task)
        if not task.cancelled():
            # Retrieve (and swallow) any exception: a failed background
            # send is a transport hiccup that retransmission or
            # anti-entropy covers, and must not spam the event loop.
            task.exception()
