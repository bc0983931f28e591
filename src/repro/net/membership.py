"""Dynamic group membership: live view, join/leave handshake, eviction.

The paper pitches the (R, K) scheme for "large and *dynamic*" systems —
a joiner draws a key set with no global coordination — yet until this
layer the live runtime assumed a static peer list wired up by hand.
:class:`GroupMembership` closes that gap with four fire-and-forget wire
frames (see ``docs/PROTOCOL.md`` §9):

* **VIEW** — a versioned membership announcement ``(view_id, members)``.
  View ids are strictly monotonic; receivers install a view only when
  its id exceeds the one they hold, so the coordinator's periodic
  re-announcement doubles as the loss-healing mechanism and is
  idempotent.  The *acting coordinator* is decided by a deterministic
  rule — the smallest ``node_id`` among members this node does not
  currently hold in quarantine — so a dead coordinator's successor
  starts announcing (and can evict the corpse) without an election.
* **JOIN / JOIN_ACK** — the joining handshake.  The joiner sends JOIN to
  its seed peers and retries with exponential backoff
  (``join_timeout`` · ``_JOIN_BACKOFF``ⁿ, up to ``join_retries``
  retries).  The acting coordinator admits it: grants a
  :class:`~repro.core.keyspace.KeyAssignment` (recycling sets released
  by departed members), installs the bumped view, and replies with a
  JOIN_ACK carrying the clock geometry ``(R, K)``, the granted keys,
  the membership, and a consistent state-transfer pair — the
  coordinator's clock vector together with its **delivered** frontiers,
  read atomically in the synchronous frame handler.  *Delivered*, not
  received: marking a seen-but-undelivered message as covered would
  wedge the joiner's pending queue forever.  A non-coordinator answers
  with a rejection ack that still carries the members, so the joiner
  re-targets the coordinator on the next attempt; a duplicate JOIN from
  an existing member is answered idempotently with its recorded keys
  (that is what heals a lost JOIN_ACK).
* **LEAVE** — a graceful goodbye.  The coordinator removes the member,
  recycles its key set, and announces the new view.  LEAVE is lossy by
  design: the backstop for a crash (or a lost LEAVE) is **quarantine
  eviction** — when the session has kept a member quarantined
  (:meth:`~repro.net.session.ReliableSession.overdue`) past
  ``evict_after``, the acting coordinator expels it the same way.

Every member mirrors the view's assignments into its local
:class:`~repro.core.keyspace.KeyAssigner`, so whichever member the
coordinator rule promotes next already holds a correct ledger and
recycles keys exactly as the original would have.  Installed views and
rekeys are persisted through the node's journal, so a restarted node
rejoins with a consistent identity.

Split-brain note: two disjoint groups bootstrapped independently do not
merge (view ids are per-group); deploy with exactly one bootstrap node
and point every other node's ``seed_peers`` at running members.  Within
one group, a partitioned coordinator pair converges because announcements
carry strictly greater view ids — the higher id wins everywhere.
"""

from __future__ import annotations

import asyncio
import logging
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.codec import (
    Frame,
    JoinAckFrame,
    JoinFrame,
    LeaveFrame,
    MemberRecord,
    ViewFrame,
)
from repro.core.errors import ConfigurationError, MembershipError
from repro.core.keyspace import KeyAssigner, RandomKeyAssigner

__all__ = ["MembershipConfig", "GroupView", "GroupMembership"]

logger = logging.getLogger(__name__)

# How many spaced copies of a LEAVE announcement leave() emits; see its
# docstring for why one datagram is not enough on a lossy path.
_LEAVE_BURST = 3
# Seconds between leave()'s checks that its data has been acked.
_LEAVE_POLL = 0.01
# Multiplier on the JOIN timeout after each unanswered attempt: the
# default 1 s timeout and five retries wait 63 s in all.
_JOIN_BACKOFF = 2.0
# Seconds between the acting coordinator's VIEW re-announcements (the
# VIEW-loss healing mechanism) and eviction sweeps: a fifth of the
# default ``evict_after``, which a quarantined member thus outlives by
# at most one sweep.
_ANNOUNCE_INTERVAL = 2.0

Address = Hashable


@dataclass(frozen=True)
class MembershipConfig:
    """Tuning of the membership layer.

    Attributes:
        seed_peers: addresses of running members a joiner contacts first;
            empty for the bootstrap node.
        join_timeout: seconds to wait for a JOIN_ACK before retrying.
        join_retries: JOIN retransmissions after the first attempt (the
            timeout grows ``_JOIN_BACKOFF``-fold after each).
        evict_after: seconds a member may sit in liveness quarantine
            before the acting coordinator expels it from the view
            (0 disables forced eviction; the coordinator sweeps every
            ``_ANNOUNCE_INTERVAL``).
    """

    seed_peers: Tuple[Address, ...] = ()
    join_timeout: float = 1.0
    join_retries: int = 5
    evict_after: float = 10.0

    def __post_init__(self) -> None:
        if self.join_timeout <= 0:
            raise ConfigurationError(
                f"join_timeout must be > 0, got {self.join_timeout}"
            )
        if self.join_retries < 0:
            raise ConfigurationError(
                f"join_retries must be >= 0, got {self.join_retries}"
            )
        if self.evict_after < 0:
            raise ConfigurationError(
                f"evict_after must be >= 0, got {self.evict_after}"
            )


@dataclass(frozen=True)
class GroupView:
    """One immutable, versioned membership: ``(view_id, members, epoch)``.

    ``epoch`` is the clock-sizing generation of the key assignment the
    view carries.  It moves only when the acting coordinator re-tiles
    the keyspace to a new ``K`` (:meth:`GroupMembership.propose_epoch`);
    ordinary join/leave/evict view bumps keep it unchanged.  Every epoch
    bump rides a view bump, so the view id stays the only install-order
    authority.
    """

    view_id: int
    members: Tuple[MemberRecord, ...] = ()
    epoch: int = 0

    def k(self) -> Optional[int]:
        """The per-member key count this view's assignment tiles, or
        None for an empty view (members are always uniform-K)."""
        return len(self.members[0].keys) if self.members else None

    def get(self, node_id: str) -> Optional[MemberRecord]:
        """The member record for ``node_id``, or None."""
        for member in self.members:
            if member.node_id == node_id:
                return member
        return None

    def member_ids(self) -> Tuple[str, ...]:
        """All member node ids."""
        return tuple(member.node_id for member in self.members)

    def by_address(self, address: Address) -> Optional[MemberRecord]:
        """The member record reachable at ``address``, or None."""
        for member in self.members:
            if member.address == address:
                return member
        return None


class GroupMembership:
    """Live group-view manager for one :class:`~repro.net.node.
    ReliableCausalNode`.

    Construction attaches the manager to the node (``node.membership``),
    wiring the session's membership-frame upcall through it; the node's
    :meth:`~repro.net.node.ReliableCausalNode.start` starts the
    announce/evict loop and :meth:`~repro.net.node.ReliableCausalNode.
    close` stops it.  Then either :meth:`bootstrap` (first node) or
    ``await`` :meth:`join` (every other node) brings it into a group.

    Args:
        node: the owning node; must not already have a membership layer.
        config: tuning (see :class:`MembershipConfig`).
        assigner: the key-assignment ledger every member mirrors;
            defaults to a :class:`~repro.core.keyspace.RandomKeyAssigner`
            over the node clock's (R, K) — the paper's uncoordinated
            regime.  Pass a :class:`~repro.core.keyspace.
            PerfectKeyAssigner` for deterministic recycling in tests.
    """

    def __init__(
        self,
        node,
        config: Optional[MembershipConfig] = None,
        assigner: Optional[KeyAssigner] = None,
    ) -> None:
        if getattr(node, "membership", None) is not None:
            raise ConfigurationError("node already has a membership layer")
        self._node = node
        self.config = config if config is not None else MembershipConfig()
        clock = node.endpoint.clock
        self._assigner = (
            assigner if assigner is not None
            else RandomKeyAssigner(clock.r, clock.k)
        )
        if self._assigner.r != clock.r or self._assigner.k != clock.k:
            raise ConfigurationError(
                f"assigner geometry (R={self._assigner.r}, K={self._assigner.k}) "
                f"does not match the clock (R={clock.r}, K={clock.k})"
            )
        self._view: Optional[GroupView] = None
        self.joined = False
        self._join_future: Optional[asyncio.Future] = None
        self._loop_task: Optional[asyncio.Task] = None
        self.join_attempts = 0
        self.joins_admitted = 0
        self.leaves = 0
        self.evictions = 0
        # Leaver ids already counted, so a LEAVE burst tallies once.
        self._leave_noted: Set[Hashable] = set()
        # Members that arrived after this node's first broadcast -> its
        # send count then; leave() hands them those messages again.
        self._arrived: Dict[str, int] = {}
        self.view_changes = 0
        self.epoch_bumps = 0
        node.membership = self
        self.bind_metrics(node.metrics)
        # A journal-recovered node resumes the view it last installed:
        # its peers, keys, view id and epoch survive the restart, so it
        # rejoins consistently (and re-confirms with an idempotent JOIN).
        recovered = getattr(node, "recovered", None)
        if recovered is not None and recovered.view is not None:
            view_id, members, epoch = recovered.view
            records = tuple(
                MemberRecord(node_id=str(n), address=a, keys=tuple(k))
                for n, a, k in members
            )
            self._install(GroupView(view_id, records, epoch), persist=False)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def view(self) -> Optional[GroupView]:
        """The currently installed view (None before bootstrap/join)."""
        return self._view

    @property
    def assigner(self) -> KeyAssigner:
        """The mirrored key-assignment ledger."""
        return self._assigner

    @property
    def epoch(self) -> int:
        """The clock-sizing epoch of the installed view (0 before one)."""
        return self._view.epoch if self._view is not None else 0

    @property
    def node_id(self) -> str:
        return str(self._node.node_id)

    @property
    def leave_noted_count(self) -> int:
        """LEAVE dedup marks held (the node's ``state_sizes()`` census)."""
        return len(self._leave_noted)

    def acting_coordinator(self, exclude: Tuple[str, ...] = ()) -> Optional[str]:
        """The member this node currently holds responsible for views.

        Deterministic rule: the smallest ``node_id`` among members whose
        address this node does *not* hold in quarantine (so a dead
        coordinator's successor takes over after one quarantine delay).
        Transient disagreement between members is converged by the
        strictly-monotonic view id: the install rule accepts whichever
        announcement carries the higher id.
        """
        if self._view is None:
            return None
        session = self._node.session
        candidates = []
        for member in self._view.members:
            if member.node_id in exclude:
                continue
            if member.node_id != self.node_id and session.is_quarantined(member.address):
                continue
            candidates.append(member.node_id)
        return min(candidates) if candidates else None

    def is_coordinator(self) -> bool:
        """Whether this node believes it is the acting coordinator."""
        return self.joined and self.acting_coordinator() == self.node_id

    def bind_metrics(self, registry) -> None:
        """Export membership state through the node's metrics registry."""

        def collect() -> dict:
            view = self._view
            return {
                "repro_membership_view_id": view.view_id if view is not None else 0,
                "repro_membership_view_size": len(view.members) if view is not None else 0,
                "repro_membership_join_attempts_total": self.join_attempts,
                "repro_membership_joins_admitted_total": self.joins_admitted,
                "repro_membership_leaves_total": self.leaves,
                "repro_membership_evictions_total": self.evictions,
                "repro_membership_view_changes_total": self.view_changes,
                "repro_membership_epoch": self.epoch,
                "repro_membership_epoch_bumps_total": self.epoch_bumps,
            }

        registry.register_collector(collect)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the announce/evict loop (called by ``node.start()``)."""
        if self._loop_task is None:
            self._loop_task = asyncio.get_running_loop().create_task(self._loop())

    def stop(self) -> None:
        """Stop the loop (called by ``node.close()``)."""
        if self._loop_task is not None:
            self._loop_task.cancel()
            self._loop_task = None
        if self._join_future is not None and not self._join_future.done():
            self._join_future.cancel()

    def bootstrap(self) -> GroupView:
        """Found a group of one: this node becomes view 1's coordinator.

        A journal-recovered node that already holds a view keeps it
        instead (its old group is its group).
        """
        if self._view is not None:
            self.joined = True
            return self._view
        clock = self._node.endpoint.clock
        me = MemberRecord(
            node_id=self.node_id,
            address=self._node.local_address,
            keys=tuple(clock.own_keys),
        )
        self._install(GroupView(1, (me,)), persist=True)
        self.joined = True
        return self._view

    # ------------------------------------------------------------------
    # joining
    # ------------------------------------------------------------------

    async def join(self) -> GroupView:
        """Join a running group through ``config.seed_peers``.

        Retries with exponential backoff; raises
        :class:`~repro.core.errors.MembershipError` when every attempt
        times out.  On a journal-recovered node the handshake still runs
        (idempotent on the coordinator) so an eviction that happened
        while this node was down is healed by re-admission.
        """
        targets = [
            address
            for address in self.config.seed_peers
            if address != self._node.local_address
        ]
        if not targets:
            raise MembershipError("join() needs at least one seed peer")
        frame = self._join_frame()
        timeout = self.config.join_timeout
        loop = asyncio.get_running_loop()
        for attempt in range(self.config.join_retries + 1):
            self.join_attempts += 1
            self._join_future = loop.create_future()
            for target in targets:
                self._node.session.send_control(target, frame)
            self._node.trace.emit(
                "join_sent", ts=loop.time(),
                attempt=attempt, targets=[str(t) for t in targets],
            )
            try:
                ack, addr = await asyncio.wait_for(self._join_future, timeout)
            except asyncio.TimeoutError:
                timeout *= _JOIN_BACKOFF
                continue
            finally:
                self._join_future = None
            if ack.accepted:
                self._complete_join(ack)
                self._node.trace.emit(
                    "join_acked", ts=loop.time(),
                    view=ack.view_id, keys=list(ack.keys),
                )
                return self._view
            # Rejected — typically "not the coordinator".  The ack still
            # carries the membership: aim the next attempt at the
            # coordinator by the deterministic rule.
            if ack.members:
                coordinator = min(ack.members, key=lambda m: m.node_id)
                if coordinator.address != self._node.local_address:
                    targets = [coordinator.address]
        raise MembershipError(
            f"join failed: no acceptance after "
            f"{self.config.join_retries + 1} attempts"
        )

    def _join_frame(self) -> JoinFrame:
        # A rejoiner proposes its current keys so the coordinator can
        # re-adopt them; a fresh node proposes nothing.
        clock = self._node.endpoint.clock
        return JoinFrame(
            node_id=self.node_id,
            address=self._node.local_address,
            keys=tuple(clock.own_keys) if self._node.recovered is not None else (),
        )

    def _complete_join(self, ack: JoinAckFrame) -> None:
        node = self._node
        clock = node.endpoint.clock
        # R is immutable group identity.  K only has to match the
        # joiner's configuration while the group still runs its founding
        # geometry (epoch 0, where a K mismatch means misconfiguration);
        # once the group has renegotiated (epoch > 0) the granted keys
        # *define* this node's K — the rekey below adopts it.
        if ack.r != clock.r or (
            ack.epoch == 0 and ack.keys and len(ack.keys) != clock.k
        ):
            raise MembershipError(
                f"group geometry (R={ack.r}, K={ack.k}) does not match "
                f"this node's clock (R={clock.r}, K={clock.k})"
            )
        granted = tuple(ack.keys)
        pristine = (
            node.recovered is None
            and clock.send_count == 0
            and not any(clock.snapshot())
            and len(node.store) == 0
        )
        if pristine:
            # Atomic state transfer: keys, vector and delivered
            # frontiers adopted together or not at all — a vector
            # without its frontiers (or vice versa) corrupts the
            # delivery condition.
            if granted != tuple(clock.own_keys):
                if node.journal is not None:
                    # WAL-before-state: replay rekeys before any send.
                    node.journal.record_rekey(granted)
                clock.rekey(granted)
            if any(ack.vector):
                clock.initialize_from(ack.vector)
            if ack.frontiers:
                node.adopt_coverage(dict(ack.frontiers))
            if node.journal is not None:
                # Fold the transfer into an immediate snapshot so a
                # crash right after the join recovers post-transfer.
                node.journal.record_state_transfer(
                    granted,
                    clock.snapshot(),
                    node.delivered_frontiers(),
                    node.session.link_states(),
                )
        elif granted != tuple(clock.own_keys):
            # A re-admitted node keeps its state; the coordinator
            # granted different keys (e.g. its old set was recycled).
            if node.journal is not None:
                node.journal.record_rekey(granted)
            clock.rekey(granted)
            node.reset_delta_reference()
        self._install(
            GroupView(ack.view_id, ack.members, ack.epoch), persist=True
        )
        self.joined = True

    async def leave(self) -> None:
        """Gracefully announce departure and detach from the group.

        Fire-and-forget by design; if every LEAVE is lost the group
        evicts this node through the quarantine path instead.  The frame
        is repeated in a short spaced burst so one lossy instant does
        not routinely downgrade a graceful departure into an eviction —
        separate datagrams, because copies coalesced into one batch
        share its fate.

        The burst waits (at most ``join_timeout``) until every view
        peer holds this node's data, because on the LEAVE every member
        drops the leaver's data for good, and whatever causally follows
        a message one member never got then pends there forever.  Two
        ways to miss one: the acting coordinator evicts on the LEAVE,
        so data arriving after it is dropped; and a member that joined
        after this node sent a message got only what the coordinator
        had delivered when it was admitted.  So every message this node
        sent before a member arrived is handed to that member again
        (the copies it already holds are counted duplicates), and the
        burst waits until every view peer acked everything.
        """
        if not self.joined or self._view is None:
            return
        session, store = self._node.session, self._node.store
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.config.join_timeout
        while loop.time() < deadline:
            for member in self._view.members:
                for seq in range(1, self._arrived.pop(member.node_id, 0) + 1):
                    data = store.get(self.node_id, seq)
                    if data is not None:
                        session.push(member.address, data)
            session.flush()
            if not any(session.unacked_count(member.address)
                       for member in self._view.members):
                break
            await asyncio.sleep(_LEAVE_POLL)
        frame = LeaveFrame(node_id=self.node_id)
        for attempt in range(_LEAVE_BURST):
            for address in self._announce_targets():
                self._node.session.send_control(address, frame)
            self._node.session.flush()
            # The flushed datagrams ride background send tasks; yield so
            # they reach the wire before a typical ``leave(); close()``
            # sequence cancels them (close() cancels in-flight sends by
            # design).
            await asyncio.sleep(0)
            await asyncio.sleep(0)
            if attempt < _LEAVE_BURST - 1:
                await asyncio.sleep(0.02)
        self.joined = False
        self._node.trace.emit(
            "leave_sent", ts=self._node._now(), view=self._view.view_id
        )

    # ------------------------------------------------------------------
    # frame handling (synchronous, from the session's dispatch)
    # ------------------------------------------------------------------

    def handle_frame(self, frame: Frame, addr: Address) -> None:
        """Dispatch one membership frame (the session's upcall)."""
        if isinstance(frame, ViewFrame):
            self._on_view(frame, addr)
        elif isinstance(frame, JoinFrame):
            self._on_join(frame, addr)
        elif isinstance(frame, JoinAckFrame):
            self._on_join_ack(frame, addr)
        elif isinstance(frame, LeaveFrame):
            self._on_leave(frame, addr)

    def _on_view(self, frame: ViewFrame, addr: Address) -> None:
        if not self.joined:
            # A joiner must not adopt views before its state transfer
            # lands (the JOIN_ACK carries the view it needs).  A view
            # that already lists it means it was admitted and the
            # JOIN_ACK was lost: ask again now, not after the backoff.
            # Silent until then toward a coordinator tracking it as a
            # member, it could be evicted and its next JOIN admitted as
            # a new member.
            if self._join_future is not None and any(
                member.node_id == self.node_id for member in frame.members
            ):
                self._node.session.send_control(addr, self._join_frame())
            return
        if self._view is not None and frame.view_id <= self._view.view_id:
            return
        self._install(
            GroupView(frame.view_id, frame.members, frame.epoch), persist=True
        )
        # Overlay mode: announcements gossip like data.  A strictly
        # newer view is forwarded once to this node's push targets —
        # installed duplicates fail the view_id check above, so the
        # wave is infect-and-die over ``fanout`` random view targets.
        self._forward_control(frame, exclude=(addr,))

    def _forward_control(self, frame: Frame, exclude: Tuple[Address, ...] = ()) -> None:
        node = self._node
        if node.overlay is None:
            return
        for address in node.overlay.push_targets(exclude=exclude, live_filter=node._live):
            node.session.send_control(address, frame)

    def _on_join(self, frame: JoinFrame, addr: Address) -> None:
        if not self.joined or self._view is None:
            return
        if frame.node_id == self.node_id:
            return
        existing = self._view.get(frame.node_id)
        if existing is not None:
            # Already a member: idempotent accept (heals a lost ack).
            # Any member may answer — the recorded keys are in the view.
            self._send_join_ack(frame.address, True, existing.keys)
            return
        if self.acting_coordinator() != self.node_id:
            self._send_join_ack(
                frame.address, False, (),
                reason=f"not the coordinator (ask {self.acting_coordinator()!r})",
            )
            return
        try:
            keys = self._grant_keys(frame.node_id, frame.keys)
        except MembershipError as error:
            # e.g. a perfect assigner with every disjoint set in use.
            self._send_join_ack(frame.address, False, (), reason=str(error))
            return
        member = MemberRecord(
            node_id=frame.node_id, address=frame.address, keys=keys
        )
        new_view = GroupView(
            self._view.view_id + 1,
            self._view.members + (member,),
            self._view.epoch,
        )
        # Install before acking: if we crash after the install, the
        # announced view already contains the joiner and the successor
        # coordinator answers its JOIN retry idempotently.
        self._install(new_view, persist=True)
        self.joins_admitted += 1
        self._send_join_ack(frame.address, True, keys)
        self._announce()

    def _grant_keys(self, node_id: str, proposed: Tuple[int, ...]) -> Tuple[int, ...]:
        clock = self._node.endpoint.clock
        if node_id in self._assigner:
            # Stale ledger entry for a non-member id (e.g. it left while
            # we were partitioned): recycle it before granting afresh.
            self._assigner.release(node_id)
        if proposed and len(proposed) == clock.k:
            # A rejoiner asked for its previous set; re-adopt if free.
            try:
                return self._assigner.adopt(node_id, proposed).keys
            except (MembershipError, ConfigurationError):
                pass
        return self._assigner.assign(node_id).keys

    def _send_join_ack(
        self,
        addr: Address,
        accepted: bool,
        keys: Tuple[int, ...],
        reason: str = "",
    ) -> None:
        node = self._node
        clock = node.endpoint.clock
        view = self._view
        # Vector and delivered frontiers are read back-to-back in this
        # synchronous handler — no await can interleave a delivery
        # between them, so the pair is consistent by construction.
        frame = JoinAckFrame(
            accepted=accepted,
            view_id=view.view_id if view is not None else 0,
            r=clock.r,
            k=len(keys) if keys else clock.k,
            keys=tuple(keys),
            members=view.members if view is not None else (),
            frontiers=node.delivered_frontiers() if accepted else {},
            vector=clock.snapshot() if accepted else (),
            reason=reason,
            epoch=view.epoch if view is not None else 0,
        )
        node.session.send_control(addr, frame)
        node.session.flush(addr)

    def _on_join_ack(self, frame: JoinAckFrame, addr: Address) -> None:
        future = self._join_future
        if future is not None and not future.done():
            future.set_result((frame, addr))
        # Else: a duplicate ack (the coordinator re-answered a retried
        # JOIN after the first ack already completed) — nothing to do.

    def _on_leave(self, frame: LeaveFrame, addr: Address) -> None:
        if not self.joined or self._view is None:
            return
        if self._view.get(frame.node_id) is None:
            return
        if frame.node_id in self._leave_noted:
            # leave() bursts several copies for loss resilience; a
            # non-coordinator keeps the leaver in its view until the
            # next VIEW arrives, so dedup by id, not by view lookup.
            return
        self._leave_noted.add(frame.node_id)
        self.leaves += 1
        self._node.trace.emit(
            "member_left", ts=self._node._now(), member=frame.node_id
        )
        # Overlay mode: a LEAVE heard for the first time is forwarded so
        # it reaches the acting coordinator even when the leaver's
        # bounded view did not include it (dedup via _leave_noted).
        self._forward_control(frame, exclude=(addr,))
        # Only the acting coordinator rewrites the view; everyone else
        # waits for its announcement (eviction is the backstop if the
        # coordinator itself is the leaver's victim).
        if self.acting_coordinator(exclude=(frame.node_id,)) == self.node_id:
            self._remove_member(frame.node_id)

    # ------------------------------------------------------------------
    # coordinator duties
    # ------------------------------------------------------------------

    async def _loop(self) -> None:
        while True:
            await asyncio.sleep(_ANNOUNCE_INTERVAL)
            if not self.joined or self._view is None:
                continue
            if self.acting_coordinator() != self.node_id:
                continue
            node = self._node
            if self.config.evict_after > 0:
                now = asyncio.get_running_loop().time()
                for address in node.session.overdue(now, self.config.evict_after):
                    member = self._view.by_address(address)
                    if member is not None and member.node_id != self.node_id:
                        self.evictions += 1
                        node.trace.emit(
                            "member_evicted", ts=now, member=member.node_id
                        )
                        self._remove_member(member.node_id)
            self._announce()

    def _remove_member(self, node_id: str) -> None:
        if self._view is None or self._view.get(node_id) is None:
            return
        remaining = tuple(
            member for member in self._view.members if member.node_id != node_id
        )
        self._install(
            GroupView(self._view.view_id + 1, remaining, self._view.epoch),
            persist=True,
        )
        self._announce()

    def _announce_targets(self) -> List[Address]:
        """Where coordinator announcements (and LEAVE bursts) go.

        Mesh mode: every member directly — O(N) control datagrams.
        Overlay mode: the bounded partial view; receivers gossip newer
        views onward (see :meth:`_on_view`), so coverage is the relay
        wave's, not the coordinator's fanout."""
        node = self._node
        if node.overlay is not None and len(node.overlay) > 0:
            return node._live_targets()
        if self._view is None:
            return []
        return [
            member.address
            for member in self._view.members
            if member.node_id != self.node_id
        ]

    def _announce(self) -> None:
        if self._view is None:
            return
        frame = ViewFrame(
            view_id=self._view.view_id,
            members=self._view.members,
            epoch=self._view.epoch,
        )
        for address in self._announce_targets():
            self._node.session.send_control(address, frame)

    def propose_epoch(self, new_k: int) -> Optional[GroupView]:
        """Renegotiate the group's clock geometry to ``new_k`` keys.

        Coordinator-only (raises :class:`~repro.core.errors.
        MembershipError` elsewhere).  Re-tiles the keyspace through
        :meth:`~repro.core.keyspace.KeyAssigner.retile` — a fresh ledger
        at the new ``K``, every member re-assigned in ``node_id`` order
        so the outcome is deterministic for a given assigner — and
        installs the result as a bumped view carrying ``epoch + 1``.
        The view install rekeys the local clock; followers do the same
        when the announcement reaches them, and in-flight messages from
        either geometry stay deliverable because every message carries
        its sender's keys (see :meth:`~repro.core.clocks.
        EntryVectorClock.rekey`).

        Returns the new view, or ``None`` when ``new_k`` already is the
        current geometry (no epoch is spent on a no-op).
        """
        if not self.is_coordinator() or self._view is None:
            raise MembershipError(
                "only the acting coordinator proposes clock-sizing epochs"
            )
        clock = self._node.endpoint.clock
        if not 1 <= new_k <= clock.r:
            raise ConfigurationError(
                f"need 1 <= K <= R, got K={new_k}, R={clock.r}"
            )
        if new_k == (self._view.k() or self._assigner.k):
            return None
        fresh = self._assigner.retile(new_k)
        members = tuple(
            MemberRecord(
                node_id=member.node_id,
                address=member.address,
                keys=fresh.assign(member.node_id).keys,
            )
            for member in sorted(self._view.members, key=lambda m: m.node_id)
        )
        self._assigner = fresh
        new_view = GroupView(
            self._view.view_id + 1, members, self._view.epoch + 1
        )
        self.epoch_bumps += 1
        self._node.trace.emit(
            "epoch_proposed", ts=self._node._now(),
            epoch=new_view.epoch, view=new_view.view_id, k=new_k,
        )
        self._install(new_view, persist=True)
        self._announce()
        return new_view

    # ------------------------------------------------------------------
    # view installation
    # ------------------------------------------------------------------

    def _install(self, view: GroupView, persist: bool) -> None:
        """Adopt ``view`` as current: sync peers, ledger, and journal.

        The single choke point for view changes — coordinator-side
        bumps, remote VIEW frames, journal recovery, and join completion
        all land here, so the peer list, the mirrored assigner, the
        eviction marks and the persisted view can never diverge.
        """
        node = self._node
        previous = self._view
        self._view = view
        self.view_changes += 1
        current_ids = set(view.member_ids())
        # The marks dedup a LEAVE burst within one view: a member still
        # in this view may leave again, and _on_leave ignores the rest.
        self._leave_noted.clear()
        # An epoch bump re-tiled the keyspace at a new K; the mirrored
        # ledger is per-K, so rebuild it empty (the adopt loop below
        # refills it from the view, which is authoritative anyway).
        view_k = view.k()
        if view_k is not None and view_k != self._assigner.k:
            self._assigner = self._assigner.retile(view_k)
        # Departures first: release their keys (recycling) and purge
        # their runtime state.
        for process_id in list(self._assigner.assignments):
            if str(process_id) not in current_ids:
                try:
                    self._assigner.release(process_id)
                except MembershipError:
                    pass
        if previous is not None:
            for member in previous.members:
                if member.node_id in current_ids:
                    continue
                if member.node_id == self.node_id:
                    continue
                node.evict_peer(member.address, member.node_id)
        # Arrivals / survivors: mirror their assignments and peer them.
        sent = node.endpoint.clock.send_count
        known = set(previous.member_ids()) if previous is not None else current_ids
        self._arrived = {
            node_id: seq for node_id, seq in self._arrived.items() if node_id in current_ids
        }
        for member in view.members:
            if sent and member.node_id not in known:
                self._arrived[member.node_id] = sent
            try:
                existing = self._assigner.lookup(member.node_id)
                if tuple(existing.keys) != tuple(member.keys):
                    # The view is authoritative over a stale mirror.
                    self._assigner.release(member.node_id)
                    self._assigner.adopt(member.node_id, member.keys)
            except MembershipError:
                try:
                    self._assigner.adopt(member.node_id, member.keys)
                except (MembershipError, ConfigurationError):
                    logger.warning(
                        "could not mirror key assignment %r for %r",
                        member.keys, member.node_id,
                    )
            if member.node_id != self.node_id:
                node.add_peer(member.address)
                node.session.track(member.address, node._now())
        # The view is authoritative over this node's own key set too: a
        # higher-epoch view re-tiled it, so adopt the new keys before the
        # view is persisted (WAL order: rekey, then view — replay then
        # reproduces exactly this install).  Recovery installs
        # (persist=False) never rekey here; the node constructor already
        # restored the journal's own-key record.
        own = view.get(self.node_id)
        clock = node.endpoint.clock
        if (
            persist
            and own is not None
            and own.keys
            and tuple(own.keys) != tuple(clock.own_keys)
        ):
            if node.journal is not None:
                node.journal.record_rekey(tuple(own.keys))
            clock.rekey(own.keys)
            node.reset_delta_reference()
        if self.node_id not in current_ids and self.joined:
            # We were expelled (evicted while partitioned, most likely).
            self.joined = False
            logger.warning(
                "node %r is no longer in view %d; re-join required",
                self.node_id, view.view_id,
            )
        if persist and node.journal is not None:
            node.journal.record_view(
                view.view_id,
                [(m.node_id, m.address, m.keys) for m in view.members],
                epoch=view.epoch,
            )
        # Stamp subsequent encodings with the installed epoch so mixed-
        # epoch frames are tellable apart while the bump drains through.
        node.set_epoch(view.epoch)
        node.trace.emit(
            "view_install", ts=node._now(),
            view=view.view_id, size=len(view.members),
            members=list(current_ids), epoch=view.epoch,
        )
