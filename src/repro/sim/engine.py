"""A minimal, fast discrete-event simulation kernel.

The paper's evaluation (Section 5.4) uses a simple event-based simulator;
this module is our equivalent.  It is deliberately tiny: a binary-heap
agenda of ``(time, tiebreak, callback, argument)`` entries and a run loop.
Everything domain-specific (nodes, network, workload) lives above
it in :mod:`repro.sim.runner`.

Determinism: ties in time are broken by insertion order (a monotonically
increasing sequence number), so a simulation with a fixed seed replays
identically event for event.  Time is a float in **milliseconds**
throughout the simulator, matching the paper's parameter conventions
(propagation time N(100, 20) ms, λ in ms).
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.core.errors import SimulationError

__all__ = ["Simulator"]

_Event = Tuple[float, int, Callable[[Any], None], Any]


class Simulator:
    """Event loop with a heap agenda.

    Typical use::

        sim = Simulator()
        sim.schedule(10.0, handler, payload)
        sim.run()          # until the agenda empties
        print(sim.now)     # simulated milliseconds elapsed
    """

    def __init__(self) -> None:
        self._agenda: List[_Event] = []
        self._sequence = 0
        self._now = 0.0
        self._processed = 0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled."""
        return len(self._agenda)

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[[Any], None], argument: Any = None) -> None:
        """Schedule ``callback(argument)`` to run ``delay`` ms from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self.schedule_at(self._now + delay, callback, argument)

    def schedule_at(
        self, time: float, callback: Callable[[Any], None], argument: Any = None
    ) -> None:
        """Schedule ``callback(argument)`` at absolute time ``time`` ms."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self._now}"
            )
        self._sequence += 1
        heapq.heappush(self._agenda, (time, self._sequence, callback, argument))

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Execute events until the agenda empties, ``until`` is passed, or
        ``max_events`` have run in this call.  Returns the number of events
        executed by this call.

        Events scheduled exactly at ``until`` still execute; the first
        event strictly beyond it stays queued and time stops at ``until``.
        """
        if self._running:
            raise SimulationError("run() called re-entrantly from an event handler")
        self._running = True
        executed = 0
        agenda = self._agenda
        try:
            while agenda:
                if max_events is not None and executed >= max_events:
                    break
                time, _, callback, argument = agenda[0]
                if until is not None and time > until:
                    self._now = until
                    break
                heapq.heappop(agenda)
                self._now = time
                callback(argument)
                executed += 1
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
        self._processed += executed
        return executed

    def clear(self) -> None:
        """Drop every scheduled event (the clock keeps its value)."""
        self._agenda.clear()
