"""Peer liveness: heartbeats, a timeout failure detector, quarantine.

Retransmission assumes the peer is *there*: a crashed or partitioned
peer turns every unacked frame into ``_MAX_RETRIES`` futile resends, and
a bounded send buffer full of its frames backpressures the sender's own
broadcasts.  This module separates "lossy" from "gone":

* every node beats a HEARTBEAT frame to every peer on a fixed interval
  (pure liveness proof — never acked, never retransmitted); a beat is
  *suppressed* when the session sent that peer any datagram within the
  interval — steady-state traffic is already a liveness proof — and
  beats that are sent ride the session's coalescing queue, so they
  batch with whatever else is leaving for that peer;
* :class:`PeerLivenessMonitor` tracks the last datagram of any kind
  seen from each peer and **quarantines** one that stays silent past
  ``quarantine_after`` (timeout failure detection — the classic
  eventually-perfect detector under partial synchrony; any datagram is
  evidence, so an idle-but-alive peer survives on heartbeats alone);
* a quarantined peer costs nothing: its retransmissions pause, its
  unacked frames are released (freeing the backpressure budget), and
  new broadcasts skip it — anti-entropy will heal it wholesale later;
* heartbeats *keep flowing* to quarantined peers — that asymmetry is
  what un-wedges two peers that quarantined each other across a
  partition: each keeps proving its liveness to the other, so whichever
  hears first resumes, and its resumed traffic resumes the other;
* the first datagram from a quarantined peer **resumes** it and
  triggers an immediate anti-entropy exchange to close the gap.

The monitor is pure bookkeeping (no tasks, no clocks of its own): the
node's liveness loop feeds it timestamps from the event loop and acts
on its verdicts, which keeps it trivially testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.core.errors import ConfigurationError

__all__ = ["LivenessPolicy", "PeerLivenessMonitor"]

Address = Hashable


@dataclass(frozen=True)
class LivenessPolicy:
    """Failure-detection tuning.

    Attributes:
        heartbeat_interval: seconds between HEARTBEAT frames to every
            peer (quarantined peers included — see module docstring).
        quarantine_after: silence (no datagram of any kind) after which
            a peer is quarantined.  Must cover several heartbeat
            intervals, or ordinary loss masquerades as death.
    """

    heartbeat_interval: float = 0.5
    quarantine_after: float = 2.0

    def __post_init__(self) -> None:
        if self.heartbeat_interval <= 0:
            raise ConfigurationError(
                f"heartbeat_interval must be positive, got {self.heartbeat_interval}"
            )
        if self.quarantine_after < self.heartbeat_interval:
            raise ConfigurationError(
                f"quarantine_after ({self.quarantine_after}) must be >= "
                f"heartbeat_interval ({self.heartbeat_interval}); a peer must "
                f"get at least one heartbeat's grace"
            )


class PeerLivenessMonitor:
    """Last-seen bookkeeping and quarantine verdicts for a peer set."""

    def __init__(self, policy: LivenessPolicy) -> None:
        self._policy = policy
        self._last_seen: Dict[Address, float] = {}
        # address -> time the quarantine started, so the membership layer
        # can age a quarantine into a view eviction (``overdue``).
        self._quarantined: Dict[Address, float] = {}
        self.quarantines = 0
        self.resumes = 0

    @property
    def policy(self) -> LivenessPolicy:
        """The tuning this monitor applies."""
        return self._policy

    def track(self, address: Address, now: float) -> None:
        """Start watching a peer (idempotent; grants fresh grace)."""
        self._last_seen.setdefault(address, now)

    def forget(self, address: Address) -> None:
        """Stop watching a peer entirely (removed from membership)."""
        self._last_seen.pop(address, None)
        self._quarantined.pop(address, None)

    def touch(self, address: Address, now: float) -> bool:
        """Record evidence of life; True when this revives a quarantined
        peer (the caller should resume it and trigger anti-entropy)."""
        self._last_seen[address] = now
        if address in self._quarantined:
            self._quarantined.pop(address, None)
            self.resumes += 1
            return True
        return False

    def sweep(self, now: float) -> List[Address]:
        """Quarantine every tracked peer silent past the deadline;
        returns the newly quarantined addresses."""
        newly: List[Address] = []
        deadline = self._policy.quarantine_after
        for address, last in self._last_seen.items():
            if address in self._quarantined:
                continue
            if now - last > deadline:
                self._quarantined[address] = now
                self.quarantines += 1
                newly.append(address)
        return newly

    def is_quarantined(self, address: Address) -> bool:
        """Whether a peer is currently quarantined."""
        return address in self._quarantined

    def quarantined_peers(self) -> Tuple[Address, ...]:
        """All currently quarantined addresses."""
        return tuple(self._quarantined)

    def quarantined_since(self, address: Address) -> Optional[float]:
        """When the peer's current quarantine started (None if healthy)."""
        return self._quarantined.get(address)

    def overdue(self, now: float, age: float) -> List[Address]:
        """Peers whose quarantine has lasted longer than ``age`` seconds —
        the membership layer's eviction candidates.  Pure query: the
        caller decides what to do (and calls :meth:`forget` if it evicts)."""
        return [
            address
            for address, since in self._quarantined.items()
            if now - since > age
        ]
