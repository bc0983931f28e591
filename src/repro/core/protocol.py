"""The causal broadcast endpoint: Algorithms 1 and 2 wired together.

A :class:`CausalBroadcastEndpoint` is the per-process protocol state a real
deployment would embed: the logical clock (any member of the (n, r, k)
family), duplicate suppression, the pending queue of received-but-not-yet-
deliverable messages, an optional delivery-error detector (Algorithms 4/5)
and the callback into the application layer.

The endpoint is transport-agnostic.  Feeding it is the job of either a
real network layer or the discrete-event simulator (:mod:`repro.sim`):

* :meth:`broadcast` timestamps an outgoing message (Algorithm 1) and
  returns it; the caller disseminates it.
* :meth:`on_receive` accepts an incoming message (the ``rec(m)`` event of
  the paper), applies Algorithm 2's wait condition, and returns the list
  of messages *delivered* as a consequence — the head message and any
  pending messages it unblocked, in delivery order.

Deliveries at the sender: Algorithm 1's increment of ``f(p_i)`` already
records the sender's own message in its vector, so the sender never runs
Algorithm 2 on its own message.  :meth:`broadcast` reports the payload to
the local application immediately (self-delivery), matching the usual
broadcast semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.clocks import EntryVectorClock, Timestamp
from repro.core.detector import DeliveryErrorDetector, NullDetector
from repro.core.errors import ConfigurationError
from repro.core.pending import Frontiers, PendingBuffer, SeenFilter

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs is optional)
    from repro.obs.registry import MetricsRegistry
    from repro.obs.trace import TraceRing

__all__ = [
    "Message",
    "DeliveryRecord",
    "EndpointStats",
    "CausalBroadcastEndpoint",
]

ProcessId = Hashable
MessageId = Tuple[ProcessId, int]


@dataclass(frozen=True, slots=True)
class Message:
    """A broadcast message: payload plus the paper's control information.

    Attributes:
        sender: identity of the broadcasting process.
        seq: per-sender sequence number (1-based), assigned by the
            endpoint; together with ``sender`` it forms the unique id.
        timestamp: the attached (R, K) timestamp (``m.V`` + ``f(p_j)``).
        payload: opaque application data.
    """

    sender: ProcessId
    seq: int
    timestamp: Timestamp
    payload: Any = None

    @property
    def message_id(self) -> MessageId:
        """Globally unique identifier ``(sender, seq)``."""
        return (self.sender, self.seq)


@dataclass(frozen=True, slots=True)
class DeliveryRecord:
    """One delivery handed to the application layer.

    Attributes:
        message: the delivered message.
        alert: whether the configured detector flagged this delivery as a
            possible causal-order violation (Algorithm 4/5).
        local: True for the sender's immediate self-delivery.
    """

    message: Message
    alert: bool = False
    local: bool = False


@dataclass
class EndpointStats:
    """Operational counters of one endpoint."""

    sent: int = 0
    received: int = 0
    duplicates: int = 0
    delivered: int = 0
    alerts: int = 0
    pending_peak: int = 0

    def observe_pending(self, size: int) -> None:
        """Track the pending-queue high-water mark."""
        if size > self.pending_peak:
            self.pending_peak = size


class CausalBroadcastEndpoint:
    """Per-process protocol machine for (probabilistic) causal broadcast.

    Args:
        process_id: this process's identity.
        clock: its logical clock (owns the entry set ``f(p_i)``).
        detector: pre-delivery alert check; defaults to the silent
            :class:`NullDetector`.
        deliver_callback: invoked with a :class:`DeliveryRecord` for each
            delivery, including the local self-delivery on broadcast.
        max_pending: optional safety bound on the pending queue; exceeded
            means the configuration is pathological (e.g. a partitioned
            sender) and raises :class:`ConfigurationError` rather than
            accumulating unbounded state.
        buffer: the pending queue; defaults to a fresh entry-indexed
            :class:`~repro.core.pending.PendingBuffer`.  The
            differential test and the hot-path benchmark hand in a
            :class:`~repro.core.pending.ReferenceBuffer` oracle instead.
    """

    def __init__(
        self,
        process_id: ProcessId,
        clock: EntryVectorClock,
        detector: Optional[DeliveryErrorDetector] = None,
        deliver_callback: Optional[Callable[[DeliveryRecord], None]] = None,
        max_pending: Optional[int] = None,
        buffer: Optional[PendingBuffer] = None,
    ) -> None:
        if max_pending is not None and max_pending <= 0:
            raise ConfigurationError(f"max_pending must be positive, got {max_pending}")
        self._process_id = process_id
        self._clock = clock
        self._detector = detector if detector is not None else NullDetector()
        self._callback = deliver_callback
        self._max_pending = max_pending
        self._buffer = buffer if buffer is not None else PendingBuffer(clock.r)
        # Every id seen — own broadcasts, delivered and pending alike:
        # the process's one such record, which hosts read, never write.
        self.seen = SeenFilter()
        self.stats = EndpointStats()
        # Observability is opt-in: the hot path pays one None check until
        # bind_metrics() wires a registry in.
        self._wait_histogram = None
        self._trace: Optional["TraceRing"] = None
        self._arrival_time: Dict[MessageId, float] = {}

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------

    def bind_metrics(
        self,
        registry: "MetricsRegistry",
        trace: Optional["TraceRing"] = None,
    ) -> None:
        """Attach a metrics registry (and optionally a trace ring).

        Counters and gauges are read, not stored: :class:`EndpointStats`
        and the detector's :class:`~repro.core.detector.DetectorStats`
        are the one record, read by a collector at snapshot time — the
        delivery hot path is untouched.  Only the delivery-wait
        histogram is push-style (a distribution cannot be reconstructed
        after the fact), which costs one dict pop and one bisect per
        remote delivery.
        """
        self._wait_histogram = registry.histogram("repro_delivery_wait_seconds")
        self._trace = trace

        def collect() -> dict:
            stats = self.stats
            detector = self._detector
            return {
                "repro_endpoint_sent_total": stats.sent,
                "repro_endpoint_received_total": stats.received,
                "repro_endpoint_duplicates_total": stats.duplicates,
                "repro_endpoint_delivered_total": stats.delivered,
                "repro_endpoint_alerts_total": stats.alerts,
                "repro_detector_checks_total": detector.stats.checks,
                "repro_detector_alerts_total": detector.stats.alerts,
                "repro_pending_depth": self.pending_count,
                "repro_pending_peak": stats.pending_peak,
                "repro_detector_recent_size": getattr(detector, "recent_size", 0),
                "repro_pending_wakeups_total": self._buffer.wakeups,
                "repro_pending_spurious_wakeups_total": self._buffer.spurious_wakeups,
            }

        registry.register_collector(collect)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    @property
    def clock(self) -> EntryVectorClock:
        """The logical clock driving the delivery condition."""
        return self._clock

    @property
    def detector(self) -> DeliveryErrorDetector:
        """The configured pre-delivery alert check."""
        return self._detector

    @property
    def pending_count(self) -> int:
        """Messages received but still failing the delivery condition."""
        return len(self._buffer)

    def pending_messages(self) -> Tuple[Message, ...]:
        """Snapshot of the pending queue (receive order)."""
        return tuple(self._buffer.items())

    def has_seen(self, message_id: MessageId) -> bool:
        """Whether a message id was already received (duplicate filter)."""
        return message_id in self.seen

    def seen_frontiers(self) -> Frontiers:
        """Per-sender ``(watermark, sorted tail)`` duplicate-filter state.

        The same shape the journal and anti-entropy digests use, so
        persistence layers can snapshot the filter without enumerating
        every historical id.
        """
        return self.seen.frontiers()

    def restore_seen(self, frontiers: Frontiers) -> None:
        """Adopt recovered duplicate-filter coverage wholesale.

        O(senders + out-of-order tail) instead of one seen-filter add
        per historical message; only valid before any traffic was
        processed (the crash-recovery path runs first).
        """
        self.seen.restore(frontiers)

    # ------------------------------------------------------------------
    # sending (Algorithm 1)
    # ------------------------------------------------------------------

    def broadcast(self, payload: Any = None, now: float = 0.0) -> Message:
        """Timestamp a new message and hand it back for dissemination.

        Also performs the local self-delivery (application callback with
        ``local=True``); the clock increment of Algorithm 1 is the
        sender-side bookkeeping for it.
        """
        timestamp = self._clock.prepare_send()
        # Algorithm 1 just incremented this node's own keys; pending
        # messages whose unsatisfied entries overlap them can become
        # deliverable without any delivery touching those entries, so
        # the entry-indexed buffer must be told (see pending.py).
        self._buffer.notify_increment(timestamp.sender_keys)
        message = Message(
            sender=self._process_id,
            seq=timestamp.seq,
            timestamp=timestamp,
            payload=payload,
        )
        self.seen.add(message.message_id)
        self.stats.sent += 1
        self._emit(DeliveryRecord(message=message, alert=False, local=True))
        return message

    # ------------------------------------------------------------------
    # receiving (Algorithm 2 + cascade)
    # ------------------------------------------------------------------

    def on_receive(self, message: Message, now: float = 0.0) -> List[DeliveryRecord]:
        """Process the arrival of ``message`` (the paper's ``rec(m)``).

        Returns the deliveries it triggered, in order: possibly none (the
        message joined the pending queue, or was a duplicate), possibly
        several (it unblocked queued messages).
        """
        self.stats.received += 1
        if not self.seen.add(message.message_id):
            self.stats.duplicates += 1
            return []

        delivered: List[DeliveryRecord] = []
        if self._clock.is_deliverable(message.timestamp):
            delivered.append(self._deliver(message, now))
            self._drain(now, message.timestamp.sender_keys, delivered)
        else:
            if self._wait_histogram is not None:
                self._arrival_time[message.message_id] = now
            self._buffer.add(
                message, message.timestamp.adjusted, self._clock.vector_view()
            )
            size = len(self._buffer)
            if self._max_pending is not None and size > self._max_pending:
                raise ConfigurationError(
                    f"pending queue of {self._process_id!r} exceeded "
                    f"max_pending={self._max_pending}"
                )
            self.stats.observe_pending(size)
        return delivered

    def _drain(
        self, now: float, touched_keys: Sequence[int], delivered: List[DeliveryRecord]
    ) -> None:
        """Entry-indexed drain: recheck only messages whose unsatisfied
        entries intersect the keys each delivery incremented."""
        if not len(self._buffer):
            return

        def deliver(message: Message) -> Sequence[int]:
            delivered.append(self._deliver(message, now))
            return message.timestamp.sender_keys

        self._buffer.drain(self._clock.vector_view(), touched_keys, deliver)

    def _deliver(self, message: Message, now: float) -> DeliveryRecord:
        alert = self._detector.check(self._clock, message.timestamp, now)
        self._clock.record_delivery(message.timestamp)
        self._detector.on_delivered(message.timestamp, now)
        record = DeliveryRecord(message=message, alert=alert, local=False)
        self.stats.delivered += 1
        if alert:
            self.stats.alerts += 1
        if self._wait_histogram is not None:
            # Wait = time spent failing the delivery condition; a message
            # delivered on arrival waited zero.
            arrived = self._arrival_time.pop(message.message_id, now)
            self._wait_histogram.observe(max(0.0, now - arrived))
            if alert and self._trace is not None:
                self._trace.emit(
                    "alert", ts=now,
                    sender=str(message.sender), seq=message.seq,
                )
        self._emit(record)
        return record

    def _emit(self, record: DeliveryRecord) -> None:
        if self._callback is not None:
            self._callback(record)
