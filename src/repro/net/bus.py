"""In-process asyncio message bus with configurable delays.

A transport for tests, demos, and asyncio-native experiments: every peer
registers under an address; ``send`` schedules the datagram's arrival
after a delay drawn from a :class:`~repro.sim.network.DelayModel` (the
same models the discrete-event simulator uses, including the paper's
Gaussian two-stage model).  Loss and duplication can be injected.

Delay models speak milliseconds and the event loop seconds, so a
sampled delay is multiplied by ``_MS`` and nothing else: the paper's
100 ms delay is 0.1 s of loop time.  On a stock loop that is 0.1 s of
wall time; under :func:`repro.sim.vtime.run_virtual` it is 0.1 virtual
seconds that cost no wall time, and a seeded bus replays the same
schedule in every process.

``await bus.drain()`` blocks until no datagram is in flight — how tests
establish "the network is quiet" without sleeps.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Hashable, Optional

from repro.core.errors import ConfigurationError
from repro.net.peer import Transport
from repro.sim.network import DelayModel, GaussianDelayModel
from repro.util.rng import RandomSource

__all__ = ["LocalAsyncBus", "BusTransport"]

Address = Hashable

_MS = 0.001  # DelayModel milliseconds -> event-loop seconds


class LocalAsyncBus:
    """The hub: routes datagrams between registered endpoints."""

    def __init__(
        self,
        delay_model: Optional[DelayModel] = None,
        rng: Optional[RandomSource] = None,
        loss_rate: float = 0.0,
        duplicate_rate: float = 0.0,
    ) -> None:
        for name, value in (("loss_rate", loss_rate), ("duplicate_rate", duplicate_rate)):
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1), got {value}")
        self._delay_model = delay_model if delay_model is not None else GaussianDelayModel()
        self._rng = rng if rng is not None else RandomSource(seed=0).spawn("bus")
        self._loss_rate = loss_rate
        self._duplicate_rate = duplicate_rate
        self._receivers: Dict[Address, Callable[[bytes, Address], None]] = {}
        self._in_flight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self.sent = 0
        self.dropped = 0

    def attach(self, address: Address) -> "BusTransport":
        """Create the transport endpoint for one peer address."""
        if address in self._receivers:
            raise ConfigurationError(f"address {address!r} already attached")
        self._receivers[address] = _unset_receiver
        return BusTransport(self, address)

    # ------------------------------------------------------------------
    # internal routing
    # ------------------------------------------------------------------

    def _set_receiver(self, address: Address, callback: Callable[[bytes, Address], None]) -> None:
        self._receivers[address] = callback

    def _detach(self, address: Address) -> None:
        self._receivers.pop(address, None)

    async def _send(self, source: Address, destination: Address, data: bytes) -> None:
        self.sent += 1
        if self._loss_rate and self._rng.random() < self._loss_rate:
            self.dropped += 1
            return
        copies = 1
        if self._duplicate_rate and self._rng.random() < self._duplicate_rate:
            copies = 2
        base = self._delay_model.sample_base(self._rng)
        for _ in range(copies):
            delay = self._delay_model.sample_arrival(self._rng, base) * _MS
            self._in_flight += 1
            self._idle.clear()
            asyncio.get_running_loop().call_later(
                delay, self._arrive, destination, data, source
            )

    def _arrive(self, destination: Address, data: bytes, source: Address) -> None:
        try:
            receiver = self._receivers.get(destination)
            if receiver is not None and receiver is not _unset_receiver:
                receiver(data, source)
            else:
                self.dropped += 1
        finally:
            self._in_flight -= 1
            if self._in_flight == 0:
                self._idle.set()

    async def drain(self, timeout: float = 30.0) -> None:
        """Wait until no datagram is in flight.

        Deliveries may trigger new sends (none do in the causal layer,
        but applications might); drain loops until a quiescent check
        passes.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise asyncio.TimeoutError("bus did not drain in time")
            await asyncio.wait_for(self._idle.wait(), timeout=remaining)
            # Yield once; if nothing new took off, we are quiescent.
            await asyncio.sleep(0)
            if self._in_flight == 0:
                return

def _unset_receiver(data: bytes, addr: Address) -> None:
    raise ConfigurationError("transport receiver was never installed")


class BusTransport(Transport):
    """One peer's handle on a :class:`LocalAsyncBus`."""

    def __init__(self, bus: LocalAsyncBus, address: Address) -> None:
        self._bus = bus
        self._address = address

    @property
    def address(self) -> Address:
        """This endpoint's bus address."""
        return self._address

    async def send(self, destination: Address, data: bytes) -> None:
        await self._bus._send(self._address, destination, data)

    def set_receiver(self, callback: Callable[[bytes, Address], None]) -> None:
        self._bus._set_receiver(self._address, callback)

    async def close(self) -> None:
        self._bus._detach(self._address)
