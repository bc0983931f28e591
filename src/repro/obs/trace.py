"""A structured trace-event ring buffer.

Metrics aggregate; traces explain.  When the alert rate spikes or a peer
flaps, the *last few hundred discrete events* (who alerted about which
message, which quarantine fired, which delta reference missed) are what
turn a graph into a diagnosis.  :class:`TraceRing` is the dependency-free
vehicle: a fixed-capacity ring of plain dicts, overwritten oldest-first,
so memory is bounded no matter how long a node runs.

Event schema (DESIGN.md §8): every event is ``{"ts": <monotonic float>,
"kind": <str>, ...fields}``.  ``kind`` values the runtime emits today:
``alert``, ``quarantine``, ``resume``, ``delta_ref_miss``,
``journal_snapshot``, ``decode_error``, ``stale_frame``,
``stale_sender``, ``adaptive_bump``, ``epoch_proposed``, ``join_sent``,
``join_acked``, ``leave_sent``, ``member_left``, ``member_evicted`` and
``view_install``.  Consumers must tolerate unknown kinds and extra
fields — the ring is a debugging surface, not an API.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional

__all__ = ["TraceRing"]

# Events a ring holds before the oldest is overwritten.
_CAPACITY = 256


class TraceRing:
    """Fixed-capacity ring buffer of structured trace events."""

    def __init__(self) -> None:
        self.capacity = _CAPACITY
        self._events: Deque[dict] = deque(maxlen=_CAPACITY)
        self.emitted = 0  # lifetime count, including overwritten events

    def emit(self, kind: str, ts: float = 0.0, **fields) -> None:
        """Record one event; oldest events are overwritten at capacity."""
        event = {"ts": ts, "kind": kind}
        event.update(fields)
        self._events.append(event)
        self.emitted += 1

    def events(self, kind: Optional[str] = None) -> List[dict]:
        """The buffered events, oldest first, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [event for event in self._events if event["kind"] == kind]

    def clear(self) -> None:
        """Drop all buffered events (the lifetime count survives)."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)
