"""Crash durability for a networked node: write-ahead log + snapshots.

The delivery condition (Algorithm 2) only holds if a process's vector
and per-peer sequence numbers survive the process itself: a node that
restarts with a zeroed clock re-issues ``(sender, seq)`` message ids,
and its vector no longer accounts for deliveries it already performed —
both silently violate causal order at every peer.  This module persists
exactly the state whose loss is unsafe:

* the **clock**: vector + send counter.  The WAL does not store vectors
  per record; it stores the *operations* (``send`` increments the own
  entries, ``dlv`` increments the recorded sender keys) and replays
  them over the last snapshot — the same fold the live clock performs.
* the **delivered frontiers**: per-sender ``(contiguous, extras)``
  coverage of everything this node has *delivered* (own broadcasts
  included).  After a restart these re-arm duplicate suppression and
  the anti-entropy digest.  Deliberately *delivered*, not received: a
  restarted node must not advertise coverage of messages it held
  pending at the crash and can no longer serve — peers simply push
  those again.  The journal keeps no live copy: a snapshot is handed
  the node's coverage like the vector and the links, and the WAL's
  records fold into it only while :meth:`NodeJournal.open` replays.
* the **link-sequence leases**: the reliable session's per-peer send
  seqs are reserved in blocks (``_SEQ_LEASE``) *before* first use, so a
  restarted node resumes past the lease and never reuses a link seq
  that a receiver may have already acked.
* the **own message bytes**: each ``send`` record carries the encoded
  message, so a restart can re-stock the anti-entropy store with its
  own unsnapshotted broadcasts and serve them to peers that missed
  them (remote bytes are not journalled — their original sender can
  always re-serve them).

Records are JSON lines appended to ``wal.log``; every
``snapshot_interval`` records the node folds its live state into
``snapshot.json`` (written atomically via rename) and truncates the
WAL.  Recovery tolerates a torn trailing line — the tail is discarded
and the file truncated back to the last complete record.  There is no
shutdown snapshot: the design is crash-only, so the recovery path is
the only path and gets exercised constantly.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.errors import ConfigurationError
from repro.core.pending import SeenFilter

__all__ = ["LinkState", "RecoveredState", "NodeJournal"]

Address = Hashable
Frontiers = Dict[str, Tuple[int, Tuple[int, ...]]]

_WAL_NAME = "wal.log"
_SNAPSHOT_NAME = "snapshot.json"
# Link seqs reserved per lease record: larger leases mean fewer WAL
# writes but a bigger seq gap after restart (gaps are harmless —
# receivers treat them as loss and the cumulative ack simply jumps).
_SEQ_LEASE = 1024


def _address_to_json(address: Address):
    """Addresses are tuples like ``("127.0.0.1", 9000)``; JSON has no
    tuples, so encode recursively as lists and mark plain lists apart
    by construction (addresses never *are* lists)."""
    if isinstance(address, tuple):
        return [_address_to_json(part) for part in address]
    return address


def _address_from_json(value) -> Address:
    if isinstance(value, list):
        return tuple(_address_from_json(part) for part in value)
    return value


@dataclass(frozen=True)
class LinkState:
    """Recovered per-peer reliable-session state.

    Attributes:
        tx_next: next link seq to use towards this peer (past any lease).
        rx_cumulative: highest contiguously received link seq (snapshot
            cadence only — may lag the pre-crash value; the causal
            layer's ``(sender, seq)`` dedup absorbs the re-accepted
            duplicates).
        rx_out_of_order: received-but-not-contiguous link seqs.
    """

    tx_next: int = 1
    rx_cumulative: int = 0
    rx_out_of_order: Tuple[int, ...] = ()


@dataclass(frozen=True)
class RecoveredState:
    """Everything :class:`NodeJournal.open` reconstructed.

    Attributes:
        vector: the clock vector at the crash (snapshot + WAL replay).
        send_seq: the clock's send counter at the crash.
        delivered: per-sender ``(contiguous, extras)`` delivery coverage.
        links: per-peer session state (see :class:`LinkState`).
        own_messages: encoded own broadcasts still in the WAL, by seq.
        wal_records: how many WAL records were replayed (load metric).
        detector_checks / detector_alerts: the alert detector's lifetime
            counters at the crash (snapshot baseline + one check per
            replayed delivery, alerts from the records' flags), so the
            alert *rate* survives restart accounting instead of
            resetting to a misleading zero.
        own_keys: the clock's *effective* entry set at the crash — the
            identity keys unless a membership rekey (join state transfer)
            changed them; empty means "identity keys" (pre-membership
            journals).  A restarting node rekeys its pristine clock to
            these before restoring the vector.
        view: the last persisted group view ``(view_id, members, epoch)``
            with members as ``(node_id, address, keys)`` tuples and
            ``epoch`` the clock-sizing generation (0 for pre-epoch
            journals), or ``None`` when the node never joined a dynamic
            group.
    """

    vector: Tuple[int, ...]
    send_seq: int
    delivered: Frontiers
    links: Dict[Address, LinkState] = field(default_factory=dict)
    own_messages: Dict[int, bytes] = field(default_factory=dict)
    wal_records: int = 0
    detector_checks: int = 0
    detector_alerts: int = 0
    own_keys: Tuple[int, ...] = ()
    view: Optional[
        Tuple[int, Tuple[Tuple[str, Address, Tuple[int, ...]], ...], int]
    ] = None


class NodeJournal:
    """Append-only WAL + periodic snapshots for one node's causal state.

    One journal owns one directory; one directory serves one node
    identity (validated on :meth:`open` — reusing a directory for a
    different node, R, or key set raises :class:`ConfigurationError`
    rather than silently corrupting causal state).

    Args:
        data_dir: directory for ``wal.log`` / ``snapshot.json``
            (created if missing).
        node_id: the owning node's identity.
        r: the clock's vector size (replay increments need it).
        own_keys: the clock's entry set ``f(p_i)``.
        snapshot_interval: WAL records between snapshots.
        fsync: fsync the WAL after every append.  Off by default: the
            write is flushed to the OS (surviving process crashes, the
            failure mode under test); fsync additionally survives
            machine crashes at a large latency cost.
    """

    def __init__(
        self,
        data_dir: str,
        node_id: Hashable,
        r: int,
        own_keys: Sequence[int],
        snapshot_interval: int = 256,
        fsync: bool = False,
    ) -> None:
        if snapshot_interval <= 0:
            raise ConfigurationError(
                f"snapshot_interval must be positive, got {snapshot_interval}"
            )
        self._dir = str(data_dir)
        self._node = str(node_id)
        self._r = int(r)
        # Identity keys: the constructor-time entry set, stable across
        # restarts (it is what _check_identity pins a directory to).
        # _own_keys is the *effective* set — identical until a membership
        # rekey record diverges them — and is what send-replay increments.
        self._identity_keys = tuple(int(k) for k in own_keys)
        self._own_keys = self._identity_keys
        self._view: Optional[
            Tuple[int, Tuple[Tuple[str, Address, Tuple[int, ...]], ...], int]
        ] = None
        self._interval = snapshot_interval
        self._fsync = fsync
        self._wal = None
        self._records_since_snapshot = 0
        self._leases: Dict[Address, int] = {}
        self.snapshots_written = 0
        self.appends = 0
        self.replayed_records = 0
        self.replay_seconds = 0.0
        self._detector_checks = 0
        self._detector_alerts = 0
        self._append_hist = None  # set by bind_metrics()
        self._snapshot_hist = None

    def bind_metrics(self, registry) -> None:
        """Attach a metrics registry (``repro.obs``).

        Append and snapshot latencies are push histograms (the write
        path's fsync cost is exactly the distribution worth watching);
        the rest are read at snapshot time.  Call before :meth:`open`
        to have the replay timing captured too.
        """
        self._append_hist = registry.histogram("repro_journal_append_seconds")
        self._snapshot_hist = registry.histogram("repro_journal_snapshot_seconds")
        registry.register_collector(lambda: {
            "repro_journal_appends_total": self.appends,
            "repro_journal_snapshots_total": self.snapshots_written,
            "repro_journal_replayed_records_total": self.replayed_records,
            "repro_journal_replay_seconds": self.replay_seconds,
        })

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    @property
    def wal_path(self) -> str:
        """Path of the append-only log."""
        return os.path.join(self._dir, _WAL_NAME)

    @property
    def snapshot_path(self) -> str:
        """Path of the last full snapshot."""
        return os.path.join(self._dir, _SNAPSHOT_NAME)

    def open(self) -> Optional[RecoveredState]:
        """Replay any prior state and arm the journal for appending.

        Returns the reconstructed :class:`RecoveredState`, or ``None``
        when the directory holds no prior state (first boot).
        """
        if self._wal is not None:
            raise ConfigurationError("journal is already open")
        os.makedirs(self._dir, exist_ok=True)

        vector = [0] * self._r
        send_seq = 0
        links: Dict[Address, LinkState] = {}
        # The delivered coverage the snapshot and the WAL add up to;
        # it lives only as long as the replay.
        delivered = SeenFilter()
        replay_start = time.perf_counter()
        had_snapshot = self._load_snapshot(vector, delivered, links)
        if had_snapshot:
            send_seq = self._snapshot_send_seq
        own_messages: Dict[int, bytes] = {}
        replayed = self._replay_wal(vector, delivered, own_messages)
        self.replay_seconds = time.perf_counter() - replay_start
        self.replayed_records = replayed
        if replayed:
            send_seq = max(send_seq, self._max_replayed_send)

        # Leases extend the snapshot's per-peer send seqs: resume past
        # the highest seq the crashed process may have put on the wire.
        for address, upper in self._leases.items():
            prior = links.get(address, LinkState())
            if upper + 1 > prior.tx_next:
                links[address] = LinkState(
                    tx_next=upper + 1,
                    rx_cumulative=prior.rx_cumulative,
                    rx_out_of_order=prior.rx_out_of_order,
                )

        fresh_wal = (
            not os.path.exists(self.wal_path)
            or os.path.getsize(self.wal_path) == 0
        )
        self._wal = open(self.wal_path, "a", encoding="utf-8")
        if fresh_wal:
            self._append({"t": "open", "node": self._node, "r": self._r,
                          "k": list(self._identity_keys)}, count=False)

        if not had_snapshot and not replayed:
            return None
        return RecoveredState(
            vector=tuple(vector),
            send_seq=send_seq,
            delivered=delivered.frontiers(),
            links=links,
            own_messages=own_messages,
            wal_records=replayed,
            detector_checks=self._detector_checks,
            detector_alerts=self._detector_alerts,
            own_keys=self._own_keys,
            view=self._view,
        )

    def _load_snapshot(
        self, vector: List[int], delivered: SeenFilter, links: Dict[Address, LinkState]
    ) -> bool:
        self._snapshot_send_seq = 0
        try:
            with open(self.snapshot_path, "r", encoding="utf-8") as handle:
                snap = json.load(handle)
        except FileNotFoundError:
            return False
        except (json.JSONDecodeError, OSError) as exc:
            # A torn snapshot cannot happen (atomic rename); a truly
            # corrupt one is an operator problem, not a silent restart.
            raise ConfigurationError(
                f"corrupt snapshot at {self.snapshot_path}: {exc}"
            ) from exc
        self._check_identity(snap, self.snapshot_path)
        if len(snap["vector"]) != self._r:
            raise ConfigurationError(
                f"snapshot vector has {len(snap['vector'])} entries, expected {self._r}"
            )
        vector[:] = [int(v) for v in snap["vector"]]
        self._snapshot_send_seq = int(snap["send_seq"])
        delivered.restore(
            {sender: (int(contiguous), extras)
             for sender, (contiguous, extras) in snap["delivered"].items()}
        )
        for address_json, state in snap["links"]:
            links[_address_from_json(address_json)] = LinkState(
                tx_next=int(state["tx"]),
                rx_cumulative=int(state["rx"]),
                rx_out_of_order=tuple(int(s) for s in state["ooo"]),
            )
        # Absent in pre-observability snapshots: .get keeps them loadable.
        checks, alerts = snap.get("detector", (0, 0))
        self._detector_checks = int(checks)
        self._detector_alerts = int(alerts)
        # Older snapshots also record the delta references the receiver
        # held; they are ignored, and a restarted receiver takes one
        # counted miss per live sender instead.
        # Absent in pre-membership snapshots: .get keeps them loadable.
        keys_now = snap.get("keys_now")
        if keys_now is not None:
            self._own_keys = tuple(int(k) for k in keys_now)
        view = snap.get("view")
        if view is not None:
            self._view = self._view_from_json(view)
        return True

    @staticmethod
    def _view_from_json(
        value,
    ) -> Tuple[int, Tuple[Tuple[str, Address, Tuple[int, ...]], ...], int]:
        # Pre-epoch records carry [view_id, members]; read them as
        # epoch 0 (the founding geometry) so old journals stay loadable.
        view_id, members = value[0], value[1]
        epoch = int(value[2]) if len(value) > 2 else 0
        return (
            int(view_id),
            tuple(
                (str(node_id), _address_from_json(address), tuple(int(k) for k in keys))
                for node_id, address, keys in members
            ),
            epoch,
        )

    @staticmethod
    def _view_to_json(
        view: Tuple[int, Tuple[Tuple[str, Address, Tuple[int, ...]], ...], int],
    ):
        view_id, members, epoch = view
        return [
            int(view_id),
            [
                [str(node_id), _address_to_json(address), [int(k) for k in keys]]
                for node_id, address, keys in members
            ],
            int(epoch),
        ]

    def _replay_wal(
        self, vector: List[int], delivered: SeenFilter, own_messages: Dict[int, bytes]
    ) -> int:
        self._max_replayed_send = 0
        try:
            with open(self.wal_path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return 0
        replayed = 0
        good_offset = 0
        offset = 0
        for line in raw.split(b"\n"):
            offset += len(line) + 1
            if not line:
                continue
            try:
                record = json.loads(line)
                replayed += self._apply_record(record, vector, delivered, own_messages)
            except ConfigurationError:
                # Identity mismatch is an operator error, never "torn
                # tail" (ConfigurationError is a ValueError subclass —
                # it must not fall into the clause below).
                raise
            except (ValueError, KeyError, TypeError, binascii.Error):
                # Torn tail from the crash: discard it and everything
                # after (nothing after a torn record is trustworthy).
                break
            good_offset = min(offset, len(raw))
        if good_offset < len(raw):
            with open(self.wal_path, "rb+") as handle:
                handle.truncate(good_offset)
        self._records_since_snapshot = replayed
        return replayed

    def _apply_record(
        self,
        record: dict,
        vector: List[int],
        delivered: SeenFilter,
        own_messages: Dict[int, bytes],
    ) -> int:
        kind = record["t"]
        if kind == "open":
            self._check_identity(record, self.wal_path)
            return 0
        # Replay is idempotent against the snapshot: a crash between the
        # snapshot rename and the WAL truncation leaves already-folded
        # records in the log, and they must not double-increment.
        if kind == "send":
            seq = int(record["q"])
            data = base64.b64decode(record["d"])
            if seq <= self._snapshot_send_seq:
                return 1
            for key in self._own_keys:
                vector[key] += 1
            self._max_replayed_send = max(self._max_replayed_send, seq)
            delivered.add((self._node, seq))
            own_messages[seq] = data
            return 1
        if kind == "dlv":
            sender = str(record["s"])
            seq = int(record["q"])
            if not delivered.add((sender, seq)):
                return 1
            for key in record["k"]:
                vector[int(key)] += 1
            # Every journalled remote delivery went through exactly one
            # detector check; the "a" flag marks the ones that alerted
            # (absent in pre-observability records).
            self._detector_checks += 1
            self._detector_alerts += int(record.get("a", 0))
            return 1
        if kind == "lease":
            address = _address_from_json(record["a"])
            upper = int(record["n"])
            if upper > self._leases.get(address, 0):
                self._leases[address] = upper
            return 1
        if kind == "rekey":
            # Membership granted a new entry set: subsequent send replays
            # increment the new keys (the record is written before any
            # send under the new set).
            self._own_keys = tuple(int(k) for k in record["k"])
            return 1
        if kind == "view":
            view = self._view_from_json(record["v"])
            if self._view is None or view[0] >= self._view[0]:
                self._view = view
            return 1
        raise ValueError(f"unknown WAL record type {kind!r}")

    def _check_identity(self, record: dict, path: str) -> None:
        found = (str(record["node"]), int(record["r"]),
                 tuple(int(k) for k in record["k"]))
        expected = (self._node, self._r, self._identity_keys)
        if found != expected:
            raise ConfigurationError(
                f"journal at {path} belongs to node={found[0]!r} "
                f"(R={found[1]}, keys={found[2]}); this node is "
                f"node={expected[0]!r} (R={expected[1]}, keys={expected[2]})"
            )

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------

    def record_send(self, seq: int, data: bytes) -> None:
        """Log one own broadcast (WAL-before-wire: call before sending)."""
        self._append({"t": "send", "q": seq,
                      "d": base64.b64encode(data).decode("ascii")})

    def record_delivery(
        self, sender: str, seq: int, keys: Sequence[int], alert: bool = False
    ) -> None:
        """Log one remote delivery with the sender's entry set.

        ``alert`` marks deliveries the detector flagged, so restart
        accounting reconstructs the alert rate (the flag is written only
        when set, keeping the common record compact).
        """
        self._detector_checks += 1
        self._detector_alerts += int(alert)
        record = {"t": "dlv", "s": str(sender), "q": seq,
                  "k": [int(k) for k in keys]}
        if alert:
            record["a"] = 1
        self._append(record)

    def record_rekey(self, keys: Sequence[int]) -> None:
        """Log a membership rekey: all later sends use the new entry set.

        Written *before* the clock rekeys (WAL-before-state), so a crash
        between the two replays sends correctly either way — no send can
        sit between the record and the rekey.
        """
        self._own_keys = tuple(int(k) for k in keys)
        self._append({"t": "rekey", "k": [int(k) for k in keys]})

    def record_view(
        self,
        view_id: int,
        members: Sequence[Tuple[str, Address, Sequence[int]]],
        epoch: int = 0,
    ) -> None:
        """Log an installed group view so a restart rejoins consistently.

        ``epoch`` is the view's clock-sizing generation; restarts resume
        on the persisted geometry (keys and epoch together), so a node
        that crashed mid-transition rejoins stamping the right epoch.
        """
        view = (
            int(view_id),
            tuple(
                (str(node_id), address, tuple(int(k) for k in keys))
                for node_id, address, keys in members
            ),
            int(epoch),
        )
        if self._view is not None and view[0] < self._view[0]:
            return
        self._view = view
        self._append({"t": "view", "v": self._view_to_json(view)})

    def record_state_transfer(
        self,
        keys: Sequence[int],
        vector: Sequence[int],
        delivered: Frontiers,
        links: Optional[Dict[Address, Tuple[int, int, Tuple[int, ...]]]] = None,
    ) -> None:
        """Persist a join state transfer atomically (joiner side).

        A joiner adopts the coordinator's granted keys, clock vector and
        delivered frontiers *before* any local traffic; writing them as
        an immediate snapshot means a crash right after the join
        recovers to the post-transfer state instead of a blank identity
        that would re-issue covered message ids.  ``delivered`` is the
        joiner's coverage once it adopted the transfer.
        """
        self._own_keys = tuple(int(k) for k in keys)
        self.write_snapshot(vector, 0, delivered, dict(links or {}))

    def ensure_lease(self, address: Address, seq: int) -> None:
        """Reserve link seqs for ``address`` up to at least ``seq``.

        Called by the session just before a seq goes on the wire; writes
        a lease record only when the seq outgrows the current block, so
        the WAL sees one record per ``_SEQ_LEASE`` sends.
        """
        if seq <= self._leases.get(address, 0):
            return
        upper = seq + _SEQ_LEASE - 1
        self._leases[address] = upper
        self._append({"t": "lease", "a": _address_to_json(address), "n": upper})

    def _append(self, record: dict, count: bool = True) -> None:
        if self._wal is None:
            raise ConfigurationError("journal is not open")
        start = time.perf_counter() if self._append_hist is not None else 0.0
        self._wal.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._wal.flush()
        if self._fsync:
            os.fsync(self._wal.fileno())
        self.appends += 1
        if self._append_hist is not None:
            self._append_hist.observe(time.perf_counter() - start)
        if count:
            self._records_since_snapshot += 1

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    @property
    def snapshot_due(self) -> bool:
        """Whether enough records accumulated to fold into a snapshot."""
        return self._records_since_snapshot >= self._interval

    def write_snapshot(
        self,
        vector: Sequence[int],
        send_seq: int,
        delivered: Frontiers,
        links: Dict[Address, Tuple[int, int, Tuple[int, ...]]],
        detector: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Atomically persist the full state and truncate the WAL.

        Args:
            vector: the live clock vector.
            send_seq: the live clock send counter.
            delivered: the node's delivered coverage
                (``delivered_frontiers()``), written in its order.
            links: the session's ``link_states()`` — per peer
                ``(next_seq, recv_cumulative, recv_out_of_order)``;
                merged with any outstanding leases.
            detector: the live detector's ``(checks, alerts)`` lifetime
                counters; becomes the baseline replay counts on top of.
        """
        if self._wal is None:
            raise ConfigurationError("journal is not open")
        start = time.perf_counter() if self._snapshot_hist is not None else 0.0
        if detector is not None:
            self._detector_checks = int(detector[0])
            self._detector_alerts = int(detector[1])
        merged: Dict[Address, Tuple[int, int, Tuple[int, ...]]] = dict(links)
        for address, upper in self._leases.items():
            tx, rx, ooo = merged.get(address, (1, 0, ()))
            merged[address] = (max(tx, upper + 1), rx, ooo)
        snap = {
            "node": self._node,
            "r": self._r,
            "k": list(self._identity_keys),
            "keys_now": list(self._own_keys),
            "view": self._view_to_json(self._view) if self._view is not None else None,
            "vector": [int(v) for v in vector],
            "send_seq": int(send_seq),
            "delivered": {s: list(f) for s, f in delivered.items()},
            "links": [
                [_address_to_json(address), {"tx": tx, "rx": rx, "ooo": list(ooo)}]
                for address, (tx, rx, ooo) in merged.items()
            ],
            "detector": [self._detector_checks, self._detector_alerts],
        }
        tmp_path = self.snapshot_path + ".tmp"
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(snap, handle, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, self.snapshot_path)
        # The WAL's contents are folded in; restart it.  Leases persist
        # inside the snapshot's link states, so they need no re-logging.
        self._wal.close()
        self._wal = open(self.wal_path, "w", encoding="utf-8")
        self._append({"t": "open", "node": self._node, "r": self._r,
                      "k": list(self._identity_keys)}, count=False)
        self._records_since_snapshot = 0
        self.snapshots_written += 1
        if self._snapshot_hist is not None:
            self._snapshot_hist.observe(time.perf_counter() - start)

    def close(self) -> None:
        """Release the WAL handle.  Deliberately no snapshot: crash-only
        design — shutdown and crash take the identical recovery path."""
        if self._wal is not None:
            self._wal.close()
            self._wal = None
