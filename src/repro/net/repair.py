"""Repair: how a node gets the messages that never reached it.

Algorithm 2 holds a message until its causal past is delivered, so one
lost message holds back everything after it.  Retransmission handles a
datagram lost on one link; this module decides everything else:

* the :class:`MessageStore` of bodies digests are answered from;
* the **anti-entropy round**: each round a node digests its per-sender
  coverage (parked deltas included) to **one** partner, the next in a
  shuffled rotation of its live peers (mesh) or view (overlay), which
  pushes back what the digest lacks and no link still owes.  One partner
  per round prices repair by damage, not by time × peers, and since
  stored messages are relayed on request it heals *transitive* gaps too;
* the rate-limited **out-of-band digest** after a reference miss or a
  liveness resume, and the **gap pull**: a relay push still undelivered
  ``_GAP_PULL_GRACE`` after it arrived sends its pusher a digest;
* the overlay's two **lazy-path rules** (PROTOCOL.md §10).

A :class:`~repro.net.node.ReliableCausalNode` owns one :class:`Repair`
and calls it; the repair object reads the node's session, endpoint,
parked deltas and live targets.
"""

from __future__ import annotations

import asyncio
import logging
import random
import zlib
from collections import deque
from dataclasses import dataclass
from itertools import takewhile
from typing import Deque, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.clocks import Timestamp
from repro.core.codec import MessageCodec
from repro.core.errors import ConfigurationError
from repro.core.pending import SeenFilter

__all__ = ["StoreStats", "RepairStats", "MessageStore", "Repair"]

logger = logging.getLogger(__name__)

Address = Hashable
Frontiers = Dict[str, Tuple[int, Tuple[int, ...]]]
# A message a delta may name: (message seq, vector, sender keys, the
# epoch byte of its chain's full form).
_Reference = Tuple[int, np.ndarray, Tuple[int, ...], int]

# A stored key is seq << 32 | the sender's slot.
_SEQ = 1 << 32
_SLOT = _SEQ - 1
# Encoded messages a node keeps to answer digests, evicted FIFO beyond
# it: about four seconds of the 4-node loopback closed loop (4 × ~500
# broadcasts/s); an older gap heals only from a third node.
_STORE_LIMIT = 8192
# Stored messages one digest is answered with; a partner further behind
# gets the rest on its next digest, so one answer cannot flood a link.
_REPAIRS_PER_DIGEST = 256
# Minimum spacing of out-of-band digests to one address (seconds).
_RESYNC_INTERVAL = 0.05
# How long a relay push that arrived ahead of its causal past may stay
# undelivered before its pusher is asked for the gap (seconds; twice the
# link's smoothed RTT when that is longer).  Not zero: mid-wave the
# missing messages are usually in flight on a longer relay path, and a
# digest sent then claims them all as missing — the answers load a loop
# that has not yet read the originals (EXPERIMENTS.md, "Anti-entropy
# priced by damage": the immediate pull collapses into a retransmit storm).
# A pull that leaves the gap open is repeated, so the first need not
# race the wave (EXPERIMENTS.md, "One delta rule": 30 ms sent 25 % more
# repairs for a 5 % shorter settle).  Also how long a push counts as
# carried by the trees, an answered digest as waiting and, on the mesh,
# a message admitted here as still owed by its origin's link.
_GAP_PULL_GRACE = 0.04


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


def _covers(frontiers: Frontiers, sender: str, seq: int) -> bool:
    """Whether a digest's frontiers cover ``(sender, seq)``."""
    contiguous, extras = frontiers.get(sender, (0, ()))
    return seq <= contiguous or seq in extras


def _cover(frontiers: Frontiers, sender: str, seq: int) -> bool:
    """Add ``(sender, seq)`` to a digest's frontiers (its extras
    unsorted); False when they already covered it."""
    if _covers(frontiers, sender, seq):
        return False
    contiguous, extras = frontiers.get(sender, (0, ()))
    frontiers[sender] = (contiguous, extras + (seq,))
    return True


class MessageStore:
    """Bounded store of encoded messages keyed by causal ``(sender, seq)``.

    It keeps bytes only: what was ever recorded is the endpoint's
    :class:`~repro.core.pending.SeenFilter` (``coverage``, read, never
    written) — per sender, the *contiguous frontier* plus any
    out-of-order extras, exactly the shape of the anti-entropy digest.
    Old message *bytes* are evicted FIFO beyond ``_STORE_LIMIT`` (the
    coverage stays, so digests remain truthful; evicted messages simply
    can no longer be served).

    Each body is kept as it arrived — a delta when (o, s − 1) is held,
    else the full form — under one int packing (seq, sender slot); a
    delta's full form is built (counted by ``codec``) only to serve it.

    Per sender it also keeps the newest message recorded
    (:attr:`references`): what that sender's next delta names, which
    the receive path resolves without a walk — for a quiet sender, even
    once its bytes were evicted.  A reference, like a floor, keeps the
    epoch byte of its chain's full form, which a delta does not carry.

    **Sizing tradeoff**: the limit bounds memory, but an evicted message
    is silently unservable to anti-entropy — a peer that missed it and
    lost every retransmission can then only be healed by a *third* node
    that still holds the bytes.  :attr:`stats` counts evictions and
    digest requests that hit the evicted range, and the first such
    unservable request is logged as a warning.
    """

    def __init__(self, coverage: SeenFilter, codec: Optional[MessageCodec] = None) -> None:
        # Bodies and their keys in admission order; each sender's slot;
        # per sender, the newest message recorded; evicted key ->
        # (vector, keys, epoch) while a held delta names it.
        self._data: Dict[int, bytes] = {}
        self._order: Deque[int] = deque()
        self._slots: Dict[str, int] = {}
        self.references: Dict[str, _Reference] = {}
        self._floors: Dict[int, Tuple[np.ndarray, Tuple[int, ...], int]] = {}
        self._coverage = coverage
        self._codec = codec if codec is not None else MessageCodec()
        self._evicted_high: Dict[int, int] = {}  # by slot
        self._warned_unservable = False
        self.stats = StoreStats()

    def __len__(self) -> int:
        return len(self._data)

    def _key(self, sender: str, seq: int, new: bool = False) -> int:
        """The int ``(sender, seq)`` is stored under (-1: a sender never
        stored, unless ``new`` gives it a slot)."""
        if new:
            self._slots.setdefault(sender, len(self._slots))
        return seq << 32 | self._slots.get(sender, -1)

    def note(self, sender: str, seq: int, timestamp: Timestamp, epoch: int) -> None:
        """Record ``(sender, seq)``, of a chain whose full form carried
        ``epoch``, as the message the sender's next delta names, when it
        is the newest recorded."""
        newest = self.references.get(sender)
        if newest is None or seq > newest[0]:
            self.references[sender] = (seq, timestamp.vector, timestamp.sender_keys, epoch)

    def add(
        self, sender: str, seq: int, data: bytes, timestamp: Optional[Timestamp] = None,
        epoch: int = 0,
    ) -> None:
        """Hold one message, once (the endpoint rejects duplicates), and
        note it from ``timestamp`` and ``epoch``; a delta whose (sender,
        seq − 1) is gone is held full."""
        key = self._key(sender, seq, new=True)
        if MessageCodec.is_delta(data) and key - _SEQ not in self._data:
            data = self._codec.full_from_delta(data, timestamp.vector, timestamp.sender_keys, epoch)
        self._data[key] = data
        self._order.append(key)
        newest = self.references.get(sender, (-1, None, (), 0))
        if newest[0] == seq - 1 and not MessageCodec.is_delta(data) and MessageCodec.is_delta(
            self._data.get(key - _SEQ, b"")
        ):
            # A full body cut the sender's run: keep the tip below it
            # for late deltas (and copies) that still name the tip.
            self._floors[key - _SEQ] = (np.array(newest[1], dtype=np.int64), *newest[2:])
        if timestamp is not None:
            self.note(sender, seq, timestamp, epoch)
        while len(self._data) > _STORE_LIMIT:
            key = self._order.popleft()
            body = self._data.pop(key)
            self.stats.evictions += 1
            if key >> 32 > self._evicted_high.get(key & _SLOT, 0):
                self._evicted_high[key & _SLOT] = key >> 32
            # A floor for a held delta naming it: a vector add, no encode.
            floor = self._floors.pop(key - _SEQ, None)
            if MessageCodec.is_delta(self._data.get(key + _SEQ, b"")):
                if MessageCodec.is_delta(body):
                    MessageCodec.apply_delta(body, floor[0])
                else:
                    floor = MessageCodec.timestamp_of(body)
                self._floors[key] = floor

    def get(self, sender: str, seq: int) -> Optional[bytes]:
        """The full encoding, or None if unknown or evicted."""
        body = self._data.get(self._key(sender, seq))
        if body is None or not MessageCodec.is_delta(body):
            return body
        return self._codec.full_from_delta(body, *self.reference(sender, seq)[1:])

    def reference(
        self, sender: str, seq: int, below: Optional[_Reference] = None
    ) -> Optional[_Reference]:
        """``(seq, vector, keys, epoch)`` of a held message, or None; no payload
        is decoded.  Every held delta names its predecessor, so the
        vector is walked to: down from the sender's newest, taking each
        delta back off, when no ``below`` is given and only deltas lie
        between; else up from ``below`` (a reference under ``seq``: the
        last one a repair walked to), a full body or a floor, adding each."""
        key = self._key(sender, seq)
        if key not in self._data:
            return None
        newest = self.references.get(sender, (-1, None, (), 0))
        if newest[0] == seq:
            return newest
        down = below is None and newest[0] > seq
        above = range(key + (newest[0] - seq) * _SEQ, key, -_SEQ) if down else ()
        steps = list(takewhile(MessageCodec.is_delta, (self._data.get(at, b"") for at in above)))
        if down and len(steps) == len(above):
            base, sign = newest[1:], -1
        else:
            below = below or (-1, None, (), 0)
            steps, cursor, sign = [], key, 1
            while (
                cursor >> 32 != below[0] and cursor not in self._floors
                and MessageCodec.is_delta(body := self._data.get(cursor, b""))
            ):
                steps.append(body)
                cursor -= _SEQ
            steps.reverse()
            if cursor >> 32 == below[0]:
                base = below[1:]
            else:
                base = self._floors.get(cursor) or MessageCodec.timestamp_of(body)
        vector = np.array(base[0], dtype=np.int64)
        for body in steps:
            MessageCodec.apply_delta(body, vector, sign)
        return (seq, vector, *base[1:])

    def frontiers(self) -> Frontiers:
        """Per-sender ``(contiguous, extras)`` of the coverage."""
        return self._coverage.frontiers()

    def missing_for(self, remote: Frontiers, ceiling: Optional[Dict[str, int]] = None) -> Iterator[bytes]:
        """Full encodings of the stored messages the remote digest does
        not cover (oldest first, at most ``_REPAIRS_PER_DIGEST``) and,
        with a ``ceiling``, no newer than the sender's in it (0 if none).

        Also detects (heuristically, via the per-sender evicted high-water
        mark) a request reaching into the evicted range: counted in
        :attr:`stats` and warned about once, because such gaps can only
        be healed by another node.
        """
        for sender, slot in self._slots.items():
            high = self._evicted_high.get(slot, 0)
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
            self._slots[sender]: sender
            for sender, (contiguous, extras) in self._coverage.frontiers().items()
            if sender in self._slots
            and remote.get(sender, (0, ()))[0] < max((contiguous, *extras))
            and (ceiling is None or remote.get(sender, (0, ()))[0] < ceiling.get(sender, 0))
        }
        if not behind:
            return
        served = 0
        # Per sender, the last reference walked to: the next body served
        # is usually its successor, one step up.
        walked: Dict[str, _Reference] = {}
        for key in self._order:
            if key & _SLOT not in behind:
                continue
            if served >= _REPAIRS_PER_DIGEST:
                return
            sender, seq = behind[key & _SLOT], key >> 32
            if _covers(remote, sender, seq) or ceiling is not None and seq > ceiling.get(sender, 0):
                continue
            served += 1
            body = self._data[key]
            if MessageCodec.is_delta(body):
                walked[sender] = reference = self.reference(sender, seq, walked.get(sender))
                body = self._codec.full_from_delta(body, *reference[1:])
            yield body

    def mark_evicted(self, frontiers: Frontiers) -> None:
        """Mark adopted coverage (journal recovery, a join state
        transfer) as evicted: the node knows these ids, but their bytes
        stayed behind — peers keep the copies."""
        for sender, (contiguous, extras) in frontiers.items():
            high = max((contiguous, *extras))
            if high > 0:
                self._evicted_high[self._slots.setdefault(sender, len(self._slots))] = high

    def restore_message(self, sender: str, seq: int, data: bytes) -> None:
        """Re-stock the full encoding of an id the adopted coverage
        holds (own WAL-journalled broadcasts), making it servable.  The
        evicted mark falls below the re-stocked top of the range."""
        key = self._key(sender, seq, new=True)
        if key in self._data:
            return
        if (sender, seq) not in self._coverage:
            raise ConfigurationError(
                f"restore_message() is for recovered ids; {(sender, seq)} is unknown"
            )
        self._data[key] = data
        self._order.append(key)
        high = self._evicted_high.get(key & _SLOT, 0)
        while self._key(sender, high) in self._data:
            high -= 1
        if high:
            self._evicted_high[key & _SLOT] = high
        else:
            self._evicted_high.pop(key & _SLOT, None)

    def purge_sender(self, sender: str) -> int:
        """Drop one sender's bytes and reference (view eviction);
        returns how many bodies.

        An evicted peer stops occupying store budget.  Its coverage
        stays in the endpoint's filter — the node's digest leaves out
        senders outside the view.  Peers that still hold the departed
        sender's messages may push a few back until their own views
        catch up; the node drops them at intake.
        """
        slot = self._slots.get(sender)
        dropped = 0
        for key in [key for key in self._data if key & _SLOT == slot]:
            del self._data[key]
            dropped += 1
        if dropped:
            self._order = deque(key for key in self._order if key & _SLOT != slot)
        for key in [key for key in self._floors if key & _SLOT == slot]:
            del self._floors[key]
        self.references.pop(sender, None)
        self._evicted_high.pop(slot, None)
        return dropped


class Repair:
    """One node's repair path (see the module docstring).

    Args:
        node: the :class:`~repro.net.node.ReliableCausalNode` it serves,
            its endpoint built.  Read of it: ``endpoint``, ``session``,
            ``overlay``, ``node_id``, ``_codec``, ``_parked``, ``_peers``,
            ``_now()``, ``_sender_in_view()``, ``_live()``, ``_live_targets()``.
        interval: seconds between digest rounds; 0 disables the
            periodic exchange (retransmission-only mode).
    """

    def __init__(self, node, interval: float) -> None:
        self._node = node
        self._interval = interval
        self.store = MessageStore(node.endpoint.seen, node._codec)
        self.stats = RepairStats()
        # Digest rounds are spread uniformly over [0.5, 1.5) x interval
        # (mean preserved): a swarm of nodes started together must not
        # fire synchronized digest storms every interval forever.
        self._rng = random.Random(zlib.crc32(str(node.node_id).encode("utf-8")) ^ 0x5EED)
        self._task: Optional[asyncio.Task] = None
        # The digest partners in visiting order; the head is next.
        self._rotation: List[Address] = []
        self._resync_last: Dict[Address, float] = {}
        # The one armed grace timer, and the message the last pull it
        # sent is waiting on (None once that message was delivered).
        self._gap_pull_timer: Optional[asyncio.TimerHandle] = None
        self._gap_pull_open: Optional[Tuple[str, int]] = None
        # Overlay mode: the last grace's relay pushes, (time, origin,
        # seq), and the digests answered in it: address -> (time,
        # frontiers as answered).
        self._pushed: Deque[Tuple[float, str, int]] = deque()
        self._answered: Dict[Address, Tuple[float, Frontiers]] = {}
        # Mesh mode: per sender, the newest seq a grace ago and in the last sample.
        self._settled: Dict[str, int] = {}
        self._sampled: Tuple[float, Dict[str, int]] = (float("-inf"), {})

    def start(self) -> None:
        """Start the digest rounds (requires a running event loop)."""
        if self._interval > 0 and self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._rounds())

    def close(self) -> None:
        """Cancel the rounds and the gap pull (the session cancels the
        out-of-band digests it runs)."""
        if self._task is not None:
            self._task.cancel()
            self._task = None
        if self._gap_pull_timer is not None:
            self._gap_pull_timer.cancel()
            self._gap_pull_timer = None

    def state_sizes(self) -> Dict[str, int]:
        """Entries of the repair path's tables, for ``state_sizes()``."""
        sizes = {
            "store_messages": len(self.store),
            "reference_slots": len(self.store.references),
            "resync_marks": len(self._resync_last),
            "partner_rotation": len(self._rotation),
        }
        if self._node.overlay is not None:
            sizes["overlay_recent_pushes"] = len(self._pushed)
            sizes["overlay_answered_digests"] = len(self._answered)
        return sizes

    # ------------------------------------------------------------------
    # digests
    # ------------------------------------------------------------------

    def digest(self) -> Frontiers:
        """What this node holds, for a digest: the coverage of every
        sender still in the view plus every parked delta.  A parked
        message is here — only its reference is missing — and a digest
        that named it as missing would draw it again.  A departed
        sender's coverage stays in the seen filter but leaves the
        digest, so nobody is asked for it."""
        node = self._node
        frontiers = {
            sender: entry
            for sender, entry in self.store.frontiers().items()
            if node._sender_in_view(sender)
        }
        for sender, ref_seq in node._parked:
            _cover(frontiers, sender, ref_seq + 1)
        return {
            sender: (contiguous, tuple(sorted(extras)))
            for sender, (contiguous, extras) in frontiers.items()
        }

    def answer(self, frontiers: Frontiers, addr: Address) -> None:
        """Push ``addr`` the stored messages its digest lacks, over the
        reliable session (the normal ack/retransmit path) — on the mesh,
        less what another party still owes ``addr``: an id in a DATA
        frame to it still unacked (once acked, only a repair brings it),
        and another origin's message admitted less than a grace ago (its
        origin's link carries it; ``addr``'s next digest asks again).  In
        overlay mode the digest is read as covering what this node pushed in the
        last grace — on their way down the trees, answering with them
        was most of what a digest drew twice — and kept a grace, for
        :meth:`data_admitted`."""
        node, ceiling, frontiers = self._node, None, dict(frontiers)
        if node.overlay is not None:
            now = node._now()
            self._expire(now)
            for _, origin, seq in self._pushed:
                _cover(frontiers, origin, seq)
            self._answered[addr] = (now, frontiers)
        else:
            self._roll(node._now())
            ceiling = {**self._settled, str(node.node_id): _SEQ}
            for body in node.session.unacked_payloads(addr):
                _cover(frontiers, *MessageCodec.message_id(body))
        for data in self.store.missing_for(frontiers, ceiling):
            self.stats.repairs_sent += 1
            node.session.push(addr, data)

    def request(self, address: Address, paced: bool = True) -> bool:
        """Queue ``address`` this node's digest at once, riding the outbox
        with the ack of the batch being read (so a delta missing later in
        it is served); True unless pacing held it back.

        ``paced`` (after a reference miss, or for a relay gap the grace
        did not close): at most one per address per ``_RESYNC_INTERVAL``,
        however many ask, and an address that cannot be digested — a
        relay pusher the bounded view does not hold, a quarantined or
        evicted one — is replaced by the round's next partner: the gap
        is real whoever reported it.  Only an address a digest goes to
        gets a mark, and marks expire with the interval they enforce.
        """
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            return False
        if paced:
            if not self._digestible(address):
                address = self.next_partner()
                if address is None:
                    return False
                self.stats.resync_fallbacks += 1
            now, marks = loop.time(), self._resync_last
            if now - marks.get(address, -1e18) < _RESYNC_INTERVAL:
                return False
            for stale in [a for a, at in marks.items() if now - at >= _RESYNC_INTERVAL]:
                del marks[stale]
            marks[address] = now
        if self._digestible(address):
            self._node.session.enqueue_digest(address, self.digest())
        return True

    async def heal(self, address: Address) -> None:
        """Send ``address`` this node's digest (none to a purged peer: it
        would re-create its session state); it pushes back whatever the
        digest lacks.  On the mesh it leaves at once: a later ack, read
        first, would unmask frames it lacks for the answer to resend."""
        if self._digestible(address):
            await self._node.session.send_digest(address, self.digest())
            if self._node.overlay is None:
                self._node.session.flush(address)

    def _digestible(self, address: Address) -> bool:
        """Whether a digest may go to ``address``: a live peer or view
        member."""
        node = self._node
        return node._live(address) and (
            address in node._peers or (node.overlay is not None and address in node.overlay)
        )

    # ------------------------------------------------------------------
    # the anti-entropy round
    # ------------------------------------------------------------------

    def next_partner(self) -> Optional[Address]:
        """The next digest partner: the live targets in a shuffled
        order, rotated, so any ``len(targets)`` consecutive rounds digest
        every live target once — a bound an independent draw per round
        would not give.  Departed targets drop out of the rotation; new
        ones enter it at a random position."""
        targets = self._node._live_targets()
        rotation = [address for address in self._rotation if address in targets]
        for address in targets:
            if address not in rotation:
                rotation.insert(self._rng.randrange(len(rotation) + 1), address)
        self._rotation = rotation
        if not rotation:
            return None
        partner = rotation.pop(0)
        rotation.append(partner)
        return partner

    async def _rounds(self) -> None:
        while True:
            # Jittered: uniform over [0.5, 1.5) x interval, mean
            # preserved.  A fixed timer would have a co-started swarm
            # digesting in lockstep — N datagrams in one tick, idle the
            # rest of the interval.
            await asyncio.sleep(self._interval * (0.5 + self._rng.random()))
            partner = self.next_partner()
            if partner is not None:
                await self.heal(partner)

    # ------------------------------------------------------------------
    # intake hooks: the gap pull and the overlay's lazy path
    # ------------------------------------------------------------------

    def note_push(self, origin: str, seq: int) -> None:
        """One relay push of ``(origin, seq)``, kept a grace."""
        now = self._node._now()
        self._expire(now)
        self._pushed.append((now, origin, seq))

    def relay_admitted(self, message_id: Tuple[str, int], pusher: Address, delivered: bool) -> None:
        """A relay push was admitted: arm the gap pull if it waits for
        its causal past, else maybe settle the open pull."""
        if not delivered:
            self._arm_gap_pull(message_id, pusher)
        elif self._gap_pull_open is not None:
            self._close_gap_pull(by_relay=True)

    def data_admitted(self, data: bytes, repairer: Address) -> None:
        """A message off a reliable link, new here, was admitted: on the
        mesh it may take the grace sample (:meth:`_roll`).  In overlay
        mode it is a repair of what the trees missed: push it on to the
        senders of the digests answered in the last grace that lack it
        — most likely pulls from further down the same tree, asked while
        this node lacked it too."""
        node = self._node
        if node.overlay is None:
            self._roll(node._now(), admitting=True)
        else:
            origin, seq = MessageCodec.message_id(data)
            self._expire(node._now())
            for asker, (_, frontiers) in self._answered.items():
                if asker != repairer and _cover(frontiers, origin, seq):
                    self.stats.repairs_sent += 1
                    node.session.push(asker, data)
        if self._gap_pull_open is not None:
            self._close_gap_pull(by_relay=False)

    def _roll(self, now: float, admitting: bool = False) -> None:
        """Mesh mode: sample each sender's newest seq at most once a grace,
        at an admission or an answer; the sample before is the settled one
        (at an answer two graces after the last sample, this one)."""
        if now - self._sampled[0] >= _GAP_PULL_GRACE:
            newest = {sender: ref[0] for sender, ref in self.store.references.items()}
            quiet = not admitting and now - self._sampled[0] >= 2 * _GAP_PULL_GRACE
            self._settled = newest if quiet else self._sampled[1]
            self._sampled = (now, newest)

    def _expire(self, now: float) -> None:
        """Forget the pushes and the answered digests a grace old."""
        pushed, answered = self._pushed, self._answered
        while pushed and now - pushed[0][0] >= _GAP_PULL_GRACE:
            pushed.popleft()
        for stale in [a for a, (at, _) in answered.items() if now - at >= _GAP_PULL_GRACE]:
            del answered[stale]

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
        rtt = self._node.session.stats_for(pusher).rtt
        grace = _GAP_PULL_GRACE if rtt is None else max(_GAP_PULL_GRACE, 2.0 * rtt)
        if not tries:
            self.stats.gap_pulls_armed += 1
        self._gap_pull_timer = asyncio.get_running_loop().call_later(
            grace, self._gap_pull, message_id, pusher, tries
        )

    def _gap_pull(self, message_id: Tuple[str, int], pusher: Address, tries: int) -> None:
        self._gap_pull_timer = None
        node = self._node
        if self._is_delivered(message_id):
            # The wave closed this gap.  A push that arrived ahead of its
            # past while the timer ran armed nothing (one timer per
            # node): give the oldest message still waiting a grace of
            # its own, or its gap waits for the next anti-entropy round.
            if node.endpoint.pending_count:
                self._arm_gap_pull(node.endpoint.pending_messages()[0].message_id, pusher)
            elif node._parked:
                (sender, ref_seq), (_, parked_by) = next(iter(node._parked.items()))
                self._arm_gap_pull((sender, ref_seq + 1), parked_by)
            return
        waiting = node._is_parked(message_id) or node.endpoint.has_seen(message_id)
        if not waiting or not node._sender_in_view(message_id[0]):
            # Purged with its sender, or dropped: nothing to pull for.
            return
        if self.request(pusher):
            self.stats.gap_pulls += 1
            self._gap_pull_open = message_id
        # The pusher may lack the gap too (with exact per-sender order it
        # often parked the same delta): while the message waits, ask the
        # next partner a grace later — one pass over the digest targets,
        # then the periodic round takes over, so a gap nobody can close
        # costs a few digests, not a stream.  Backing off instead left
        # heal-burst gaps open longer, and the concurrent traffic
        # meanwhile raised ε (EXPERIMENTS.md, "One delta rule").
        if tries + 1 < len(node._live_targets()):
            partner = self.next_partner()
            if partner is not None:
                self._arm_gap_pull(message_id, partner, tries + 1)

    def _close_gap_pull(self, by_relay: bool) -> None:
        """An arrival delivered something: if that released the message
        the last pull is waiting on, the pull is settled — unneeded when
        a relay push, not the pull's answer, did it."""
        if self._is_delivered(self._gap_pull_open):
            self._gap_pull_open = None
            if by_relay:
                self.stats.gap_pulls_unneeded += 1

    def _is_delivered(self, message_id: Tuple[str, int]) -> bool:
        """Seen by the endpoint and no longer pending."""
        endpoint = self._node.endpoint
        return endpoint.has_seen(message_id) and all(
            message.message_id != message_id for message in endpoint.pending_messages()
        )
