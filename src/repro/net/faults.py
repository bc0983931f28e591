"""Fault injection for real transports: drop, duplicate, reorder, windows.

:class:`~repro.net.bus.LocalAsyncBus` injects loss on its own; this
module wraps *any* transport — notably real UDP sockets — so soak tests
can subject the reliability layer to an adversarial substrate while the
datagrams still cross the loopback interface for real.

Two fault families compose:

* **probabilistic** faults (drop/duplicate/reorder rates) model a noisy
  link, drawn deterministically from a seeded
  :class:`~repro.util.rng.RandomSource` so a failing soak run can be
  replayed exactly;
* **scheduled** :class:`FaultWindow` intervals model *correlated*
  faults — a partition (every datagram to the named peers vanishes for
  the window) or a latency spike (every datagram is held back).  Under
  :func:`repro.sim.vtime.run_virtual` the window times are virtual
  seconds (``benchmarks/bench_heal.py``).

All faults are applied on the **send** side.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, FrozenSet, Hashable, Optional, Sequence, Set, Tuple

from repro.core.errors import ConfigurationError
from repro.net.peer import Transport
from repro.util.rng import RandomSource

__all__ = ["FaultWindow", "FaultyTransport"]

Address = Hashable


@dataclass(frozen=True)
class FaultWindow:
    """One scheduled fault interval on a transport's outgoing datagrams.

    Times are seconds of *transport elapsed time* — measured from
    :meth:`FaultyTransport.arm` (or lazily from the first send), so
    windows line up across every transport armed at the same moment.

    Attributes:
        start: window opens at this elapsed time (inclusive).
        end: window closes at this elapsed time (exclusive).
        drop: True models a partition — matching datagrams vanish.
        extra_delay: latency spike — matching datagrams are held back
            this many seconds (ignored when ``drop`` is set).
        peers: destinations the window applies to; ``None`` means all
            (a full partition / global spike).
    """

    start: float
    end: float
    drop: bool = False
    extra_delay: float = 0.0
    peers: Optional[FrozenSet[Address]] = None

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ConfigurationError(
                f"window needs 0 <= start < end, got [{self.start}, {self.end})"
            )
        if self.extra_delay < 0:
            raise ConfigurationError(
                f"extra_delay must be >= 0, got {self.extra_delay}"
            )
        if not self.drop and self.extra_delay == 0:
            raise ConfigurationError("window does nothing: set drop or extra_delay")
        if self.peers is not None:
            object.__setattr__(self, "peers", frozenset(self.peers))

    def active_at(self, elapsed: float) -> bool:
        """Whether the window covers this elapsed time."""
        return self.start <= elapsed < self.end

    def applies_to(self, destination: Address) -> bool:
        """Whether the window covers this destination."""
        return self.peers is None or destination in self.peers


class FaultyTransport(Transport):
    """Decorator around a transport that mangles outgoing datagrams.

    Args:
        inner: the wrapped transport (it keeps handling receives).
        drop_rate: probability a datagram vanishes.
        duplicate_rate: probability a datagram is sent twice.
        reorder_rate: probability a datagram is delayed by a random
            interval drawn from ``reorder_delay`` (letting later sends
            overtake it).
        reorder_delay: (min, max) seconds for the reorder hold-back.
        rng: fault randomness; seeded default for reproducibility.
        windows: scheduled :class:`FaultWindow` intervals (partitions
            and latency spikes); checked before the probabilistic
            faults, so a partitioned datagram is never double-counted.
    """

    def __init__(
        self,
        inner: Transport,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
        reorder_delay: Tuple[float, float] = (0.002, 0.02),
        rng: Optional[RandomSource] = None,
        windows: Sequence[FaultWindow] = (),
    ) -> None:
        for name, value in (
            ("drop_rate", drop_rate),
            ("duplicate_rate", duplicate_rate),
            ("reorder_rate", reorder_rate),
        ):
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1), got {value}")
        if reorder_delay[0] < 0 or reorder_delay[1] < reorder_delay[0]:
            raise ConfigurationError(f"invalid reorder_delay window {reorder_delay}")
        self._inner = inner
        self._drop_rate = drop_rate
        self._duplicate_rate = duplicate_rate
        self._reorder_rate = reorder_rate
        self._reorder_delay = reorder_delay
        self._rng = rng if rng is not None else RandomSource(seed=0).spawn("faults")
        self._windows = tuple(windows)
        self._epoch: Optional[float] = None
        self._tasks: Set[asyncio.Task] = set()
        self._closed = False
        self.dropped = 0
        self.duplicated = 0
        self.reordered = 0
        self.window_dropped = 0
        self.window_delayed = 0

    def arm(self) -> None:
        """Start the fault-window clock now (otherwise it starts lazily
        at the first send).  Arm every transport of a scenario together
        so their windows coincide."""
        self._epoch = asyncio.get_running_loop().time()

    def _elapsed(self) -> float:
        now = asyncio.get_running_loop().time()
        if self._epoch is None:
            self._epoch = now
        return now - self._epoch

    def __getattr__(self, name):
        # Everything not overridden (e.g. UdpTransport.local_address)
        # passes through to the wrapped transport.
        return getattr(self._inner, name)

    async def send(self, destination: Address, data: bytes) -> None:
        if self._windows:
            elapsed = self._elapsed()
            for window in self._windows:
                if not (window.active_at(elapsed) and window.applies_to(destination)):
                    continue
                if window.drop:
                    self.window_dropped += 1
                    return
                # Latency spike: the datagram still arrives, late, and
                # bypasses the probabilistic faults (a spike models the
                # path, not extra loss).
                self.window_delayed += 1
                self._hold_back(destination, data, window.extra_delay)
                return
        if self._drop_rate and self._rng.random() < self._drop_rate:
            self.dropped += 1
            return
        copies = 1
        if self._duplicate_rate and self._rng.random() < self._duplicate_rate:
            copies = 2
            self.duplicated += 1
        for _ in range(copies):
            if self._reorder_rate and self._rng.random() < self._reorder_rate:
                self.reordered += 1
                delay = self._rng.uniform(*self._reorder_delay)
                self._hold_back(destination, data, delay)
            else:
                await self._inner.send(destination, data)

    def _hold_back(self, destination: Address, data: bytes, delay: float) -> None:
        async def later() -> None:
            await asyncio.sleep(delay)
            if not self._closed:
                await self._inner.send(destination, data)

        task = asyncio.get_running_loop().create_task(later())
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    def set_receiver(self, callback: Callable[[bytes, Address], None]) -> None:
        self._inner.set_receiver(callback)

    async def close(self) -> None:
        self._closed = True
        for task in list(self._tasks):
            task.cancel()
        self._tasks.clear()
        await self._inner.close()
