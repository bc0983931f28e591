"""Delivery-error detection (Section 4.2, Algorithms 4 and 5).

The probabilistic mechanism may deliver a message although some causal
predecessor is still missing.  Applications recover from such a state with
an out-of-band procedure (e.g. anti-entropy), which is costly — so the
paper adds a cheap *alert* evaluated right before every delivery:

* **Algorithm 4** (:class:`BasicAlertDetector`): before delivering ``m``
  from ``p_j``, if *no* entry ``x ∈ f(p_j)`` satisfies
  ``V_i[x] = m.V[x] − 1``, then concurrent messages have covered all the
  sender's entries and the delivery may be premature → raise an alert.
  The key guarantee is one-sided: **no alert implies no error**.  Alerts
  themselves greatly over-estimate the number of violations.

* **Algorithm 5** (:class:`RefinedAlertDetector`): additionally require
  that some message in a list ``L`` of recently delivered messages
  dominates ``m`` on the sender's entries ``f(p_j)`` — evidence that the
  covering really came from concurrent traffic.  ``L`` is bounded; the
  paper suggests retaining messages for a window on the order of the
  propagation time, and notes gossip-based dissemination layers keep such
  a list anyway (for duplicate suppression).

Detectors are passive observers: they never change what the protocol
delivers.  The simulator cross-checks their alerts against the
ground-truth oracle to measure precision and recall
(``benchmarks/bench_detector_ablation.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Optional, Type

import numpy as np

from repro.core.clocks import EntryVectorClock, Timestamp
from repro.core.errors import ConfigurationError

__all__ = [
    "DeliveryErrorDetector",
    "NullDetector",
    "BasicAlertDetector",
    "RefinedAlertDetector",
    "DetectorStats",
    "DETECTORS",
    "detector_class",
]


@dataclass
class DetectorStats:
    """Counters accumulated by a detector over its lifetime."""

    checks: int = 0
    alerts: int = 0

    @property
    def alert_rate(self) -> float:
        """Fraction of checked deliveries that raised an alert."""
        return self.alerts / self.checks if self.checks else 0.0


class DeliveryErrorDetector(ABC):
    """Interface of the pre-delivery alert check.

    :meth:`check` is called by the protocol endpoint with the local clock
    *before* the delivery increment, exactly as the paper prescribes
    ("if run when receiving a message, prior to the deliver function").
    """

    def __init__(self) -> None:
        self.stats = DetectorStats()

    @classmethod
    def build(
        cls, window: Optional[float] = None, max_entries: Optional[int] = None
    ) -> "DeliveryErrorDetector":
        """An instance from the two knobs the assembly layers thread
        through; a detector without a recent list ignores both."""
        return cls()

    def check(self, clock: EntryVectorClock, timestamp: Timestamp, now: float = 0.0) -> bool:
        """Return True when delivering this message *may* violate causality."""
        self.stats.checks += 1
        alert = self._evaluate(clock, timestamp, now)
        if alert:
            self.stats.alerts += 1
        return alert

    def on_delivered(self, timestamp: Timestamp, now: float = 0.0) -> None:
        """Observe a completed delivery (hook for stateful detectors)."""

    @abstractmethod
    def _evaluate(self, clock: EntryVectorClock, timestamp: Timestamp, now: float) -> bool:
        """Detector-specific alert predicate."""


class NullDetector(DeliveryErrorDetector):
    """Detector that never raises an alert (baseline / disabled)."""

    def _evaluate(self, clock: EntryVectorClock, timestamp: Timestamp, now: float) -> bool:
        return False


def _all_sender_entries_covered(clock: EntryVectorClock, timestamp: Timestamp) -> bool:
    """True when no sender entry sits exactly one below the message value.

    At delivery time Algorithm 2 guarantees ``V_i[x] >= m.V[x] - 1`` on the
    sender's entries, so "no entry equals ``m.V[x] - 1``" is equivalent to
    "every sender entry already reached ``m.V[x]``": the increments this
    message should have contributed were all supplied by concurrent
    messages sharing those entries.
    """
    local = clock.vector_view()[timestamp.sender_keys_array]
    sent = timestamp.vector[timestamp.sender_keys_array]
    return bool(np.all(local >= sent))


class BasicAlertDetector(DeliveryErrorDetector):
    """Algorithm 4: alert when all sender entries are already covered.

    Sound in one direction only — when it stays silent, the delivery is
    provably consistent with everything the mechanism can observe; when it
    fires, the delivery *may or may not* be a violation (the paper notes
    this over-estimates errors heavily under load).
    """

    def _evaluate(self, clock: EntryVectorClock, timestamp: Timestamp, now: float) -> bool:
        return _all_sender_entries_covered(clock, timestamp)


@dataclass(frozen=True)
class _RecentEntry:
    time: float
    timestamp: Timestamp


class RefinedAlertDetector(DeliveryErrorDetector):
    """Algorithm 5: Algorithm 4's alert filtered through a recent list L.

    An alert fires only when (a) all sender entries are covered, *and*
    (b) some recently delivered message dominates the incoming message on
    the sender's entries — i.e. we can exhibit a concrete prior delivery
    that consumed the values this message depends on.

    Args:
        window: retain delivered messages for this long (simulation time
            units); the paper recommends ``O(T_propagation)``.  ``None``
            disables age-based eviction.
        max_entries: hard bound on the length of L (keeps memory bounded
            even when time stands still, e.g. in unit tests).

    Conjunct (a) is Algorithm 4's covering test (``>=``), although the
    paper's pseudo-code writes a strict ``V_i[x] > m.V_i[x]``: that way
    every refined alert is also a basic alert, and the refinement only
    removes alerts.
    """

    def __init__(
        self,
        window: Optional[float] = None,
        max_entries: int = 1024,
    ) -> None:
        super().__init__()
        if max_entries <= 0:
            raise ConfigurationError(f"max_entries must be positive, got {max_entries}")
        if window is not None and window <= 0:
            raise ConfigurationError(f"window must be positive, got {window}")
        self._window = window
        self._max_entries = max_entries
        self._recent: Deque[_RecentEntry] = deque()
        self.evictions = 0  # entries aged out of L by the time window

    @classmethod
    def build(
        cls, window: Optional[float] = None, max_entries: Optional[int] = None
    ) -> "RefinedAlertDetector":
        if max_entries is None:
            return cls(window=window)
        return cls(window=window, max_entries=max_entries)

    @property
    def recent_size(self) -> int:
        """Current length of the recent-deliveries list L."""
        return len(self._recent)

    def on_delivered(self, timestamp: Timestamp, now: float = 0.0) -> None:
        self._recent.append(_RecentEntry(time=now, timestamp=timestamp))
        while len(self._recent) > self._max_entries:
            self._recent.popleft()
        self._evict_old(now)

    def _evict_old(self, now: float) -> None:
        if self._window is None:
            return
        cutoff = now - self._window
        while self._recent and self._recent[0].time < cutoff:
            self._recent.popleft()
            self.evictions += 1

    def _evaluate(self, clock: EntryVectorClock, timestamp: Timestamp, now: float) -> bool:
        self._evict_old(now)
        if not _all_sender_entries_covered(clock, timestamp):
            return False
        keys = timestamp.sender_keys_array
        for entry in self._recent:
            prior = entry.timestamp
            if prior.size != timestamp.size:
                continue
            if prior.dominates_on(timestamp, keys):
                return True
        return False


# Name -> pre-delivery alert check.
DETECTORS: Dict[str, Type[DeliveryErrorDetector]] = {
    "none": NullDetector,
    "basic": BasicAlertDetector,
    "refined": RefinedAlertDetector,
}


def detector_class(name: str) -> Type[DeliveryErrorDetector]:
    """The detector configured as ``name`` (raises listing the valid names)."""
    try:
        return DETECTORS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown detector {name!r}; expected one of {tuple(DETECTORS)}"
        ) from None
