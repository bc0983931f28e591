"""The datagram transport interface every network layer builds on.

Implementations: :class:`repro.net.udp.BatchedUdpTransport` (real UDP,
what :func:`repro.api.create_node` binds), :class:`repro.net.bus.LocalAsyncBus`
(in-process, with the simulator's delay models) and the fault-injecting
wrapper :class:`repro.net.faults.FaultyTransport`.  All of them hand a
received datagram over as owned ``bytes``, the receiver's to keep.
"""

from __future__ import annotations

from typing import Callable, Hashable

__all__ = ["Transport"]

Address = Hashable


class Transport:
    """Minimal async datagram transport interface.

    The receiver callback is invoked as ``callback(data, addr)`` where
    ``addr`` is the sender's transport address — sessions need it to
    attribute datagrams to peers (per-peer acks, retransmit state).
    """

    async def send(self, destination: Address, data: bytes) -> None:
        """Best-effort delivery of one datagram."""
        raise NotImplementedError

    def set_receiver(self, callback: Callable[[bytes, Address], None]) -> None:
        """Install the upcall invoked for every received datagram."""
        raise NotImplementedError

    async def close(self) -> None:
        """Release transport resources."""
