"""A deterministic virtual-time event loop for the shipping node stack.

Every timer under :mod:`repro.net` goes through the running loop
(``call_later`` / ``sleep`` / ``loop.time()``), every random draw comes
from a seeded generator and :class:`~repro.net.bus.LocalAsyncBus` draws
its delays from the simulator's :class:`~repro.sim.network.DelayModel`
— so the only thing between ``create_node()`` and a reproducible run is
the loop's clock.  :class:`VirtualTimeLoop` replaces it: ``time()`` is a
counter, and whenever the loop would block waiting for its next timer
the counter jumps to that timer instead.  A run takes as long as its
callbacks take to execute, and two runs from one seed produce the same
schedule — same delivery order, same datagram counts — in any process,
under any ``PYTHONHASHSEED``.

What does not belong on it: real sockets (the selector is only polled,
never waited on, so virtual time would race ahead of the kernel) and
executors (a thread's completion is not an event the counter can jump
to).  Nothing under ``repro.net`` is edited or patched for it.

    result = run_virtual(scenario())
"""

from __future__ import annotations

import asyncio
import selectors
from typing import Any, Callable, Coroutine, Optional, TypeVar

__all__ = ["VirtualDeadlockError", "VirtualTimeLoop", "run_virtual"]

T = TypeVar("T")


class VirtualDeadlockError(RuntimeError):
    """The loop has nothing ready, no timer and no I/O: under real time
    it would sleep forever.  The message names the tasks still pending."""


class _PollingSelector(selectors.DefaultSelector):
    """Never waits: polls, and reports the wait it skipped."""

    def __init__(self, skip: Callable[[Optional[float]], None]) -> None:
        super().__init__()
        self._skip = skip

    def select(self, timeout: Optional[float] = None):
        ready = super().select(0)
        if not ready:
            self._skip(timeout)
        return ready


class VirtualTimeLoop(asyncio.SelectorEventLoop):
    """A selector event loop whose clock only moves when the loop idles.

    The loop asks its selector to wait until the next timer is due; this
    one returns at once and adds that wait to :meth:`time`, so the timer
    is due on the next iteration.

    ``timers_armed`` counts the timers scheduled on it (every
    ``call_at``, which ``call_later`` and ``asyncio.sleep`` go through) —
    a work count as exact as the run.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._virtual_now = start
        self.timers_armed = 0
        super().__init__(_PollingSelector(self._skip))

    def time(self) -> float:
        return self._virtual_now

    def call_at(self, when, callback, *args, context=None):
        self.timers_armed += 1
        return super().call_at(when, callback, *args, context=context)

    def _skip(self, timeout: Optional[float]) -> None:
        if timeout is None:
            pending = sorted(
                task.get_name() + ": " + repr(task.get_coro())
                for task in asyncio.all_tasks(self)
                if not task.done()
            )
            raise VirtualDeadlockError(
                "virtual-time loop has nothing to run and no timer to "
                f"advance to; {len(pending)} pending task(s): "
                + "; ".join(pending)
            )
        self._virtual_now += timeout


def run_virtual(coro: Coroutine[Any, Any, T]) -> T:
    """Run ``coro`` to completion on a fresh :class:`VirtualTimeLoop`
    (the virtual-time ``asyncio.run``): leftover tasks are cancelled and
    the loop is closed whatever the outcome."""
    loop = VirtualTimeLoop()
    try:
        return loop.run_until_complete(coro)
    finally:
        try:
            leftover = [task for task in asyncio.all_tasks(loop) if not task.done()]
            for task in leftover:
                task.cancel()
            if leftover:
                loop.run_until_complete(
                    asyncio.gather(*leftover, return_exceptions=True)
                )
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()
