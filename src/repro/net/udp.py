"""UDP transports: real datagrams for the causal broadcast peer.

Two implementations share the wire format and the
:class:`~repro.net.peer.Transport` interface:

* :class:`UdpTransport` — the straightforward asyncio datagram endpoint.
  One event-loop wakeup and one ``recvfrom`` syscall per datagram in,
  one ``sendto`` per datagram out.
* :class:`BatchedUdpTransport` — a non-blocking socket registered
  directly with the event loop.  On readable it drains up to
  ``rx_batch`` datagrams in one wakeup and hands the whole batch to one
  receiver callback; on send it queues datagrams and flushes them in a
  tight ``sendto`` burst once per loop tick.

Both hand every datagram to the receiver as owned ``bytes``: a consumer
may keep it for as long as it likes.  See DESIGN.md §7.

UDP is fire-and-forget — exactly the unreliable substrate the paper
mentions when motivating the recent-messages list of Algorithm 5 — so
deployments layer :class:`repro.net.session.ReliableSession` (acks,
NACK-driven retransmission, anti-entropy) on top; the protocol
endpoint's duplicate suppression absorbs any retransmissions that slip
through anyway.
"""

from __future__ import annotations

import asyncio
import socket
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.net.peer import Transport

__all__ = ["UdpTransport", "BatchedUdpTransport", "IoStats"]

HostPort = Tuple[str, int]
Batch = List[Tuple[bytes, HostPort]]

# Conservative bound: stay under the common 64 KiB UDP datagram ceiling.
# The session's frame-coalescing budget (``session._COALESCE_MTU``,
# 1,400 B) must stay at or below this, or a flushed BATCH datagram would
# be rejected here (``tests/test_net.py`` holds the relation).
_MAX_DATAGRAM = 60_000


class _Protocol(asyncio.DatagramProtocol):
    def __init__(self) -> None:
        self.receiver: Optional[Callable[[bytes, HostPort], None]] = None
        self.closed: asyncio.Future = asyncio.get_event_loop().create_future()

    def datagram_received(self, data: bytes, addr) -> None:
        # Thread the sender address through: sessions attribute datagrams
        # to peers (per-peer acks and retransmit state) by this value.
        if self.receiver is not None:
            self.receiver(data, (addr[0], addr[1]))

    def connection_lost(self, exc) -> None:
        if not self.closed.done():
            self.closed.set_result(None)


class UdpTransport(Transport):
    """A bound UDP socket speaking the library's wire format.

    Use :meth:`create` (async) to construct::

        transport = await UdpTransport.create(port=0)   # ephemeral port
        print(transport.local_address)
    """

    def __init__(self, transport: asyncio.DatagramTransport, protocol: _Protocol) -> None:
        self._transport = transport
        self._protocol = protocol

    @classmethod
    async def create(cls, host: str = "127.0.0.1", port: int = 0) -> "UdpTransport":
        """Bind a datagram endpoint; ``port=0`` picks an ephemeral port."""
        loop = asyncio.get_running_loop()
        transport, protocol = await loop.create_datagram_endpoint(
            _Protocol, local_addr=(host, port)
        )
        return cls(transport, protocol)

    @property
    def local_address(self) -> HostPort:
        """The bound ``(host, port)``."""
        sock = self._transport.get_extra_info("sockname")
        return (sock[0], sock[1])

    async def send(self, destination: HostPort, data: bytes) -> None:
        if len(data) > _MAX_DATAGRAM:
            raise ConfigurationError(
                f"datagram of {len(data)} bytes exceeds the {_MAX_DATAGRAM} B "
                "UDP bound; shrink R or the payload, or use a stream transport"
            )
        self._transport.sendto(data, destination)

    def set_receiver(self, callback: Callable[[bytes, HostPort], None]) -> None:
        self._protocol.receiver = callback

    async def close(self) -> None:
        self._transport.close()
        # Wait for the socket to actually release: a crash-recovery
        # restart rebinds the same port immediately, and the datagram
        # transport only closes on a later loop iteration.
        await self._protocol.closed


# ----------------------------------------------------------------------
# Syscall-batched transport
# ----------------------------------------------------------------------

# recvfrom needs room for the largest datagram the kernel may hand us; a
# short read silently truncates (UDP discards the excess).
_RX_MAX_DATAGRAM = 65_535


class IoStats:
    """Per-transport I/O tallies (plain slotted ints, no obs dependency).

    ``rx_wakeups`` counts readable events that yielded at least one
    datagram; ``rx_datagrams / rx_wakeups`` is the batching win
    (``udp.rx_datagrams_per_wakeup`` in ``benchmarks/e2e``).
    ``rx_budget_exhausted`` counts wakeups that hit the ``rx_batch``
    budget with data still queued (the loop re-fires — level-triggered
    — so nothing is lost, but a high rate means the budget is the
    bottleneck).
    """

    __slots__ = (
        "rx_wakeups",
        "rx_datagrams",
        "rx_bytes",
        "rx_batch_max",
        "rx_budget_exhausted",
        "tx_flushes",
        "tx_datagrams",
        "tx_bytes",
        "tx_batch_max",
        "tx_blocked",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def snapshot(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class BatchedUdpTransport(Transport):
    """A non-blocking UDP socket draining many datagrams per wakeup.

    Use :meth:`create` (async) to construct.  Two receive modes:

    * :meth:`set_batch_receiver` — one callback per readable event with
      the whole batch ``[(data, addr), ...]``.
    * :meth:`set_receiver` — per-datagram compatibility callback.

    Sends queue through :meth:`send_now` (synchronous, no task churn)
    and flush in one burst per loop tick, bounded by ``tx_batch`` per
    pass; the ``Transport.send`` coroutine delegates to it.

    Args:
        rx_batch: max datagrams drained per readable wakeup.
        tx_batch: max datagrams written per flush pass.
    """

    def __init__(
        self,
        sock: socket.socket,
        loop: asyncio.AbstractEventLoop,
        rx_batch: int = 32,
        tx_batch: int = 32,
    ) -> None:
        if rx_batch <= 0:
            raise ConfigurationError(f"rx_batch must be positive, got {rx_batch}")
        if tx_batch <= 0:
            raise ConfigurationError(f"tx_batch must be positive, got {tx_batch}")
        self._sock = sock
        self._loop = loop
        self._rx_batch = rx_batch
        self._tx_batch = tx_batch
        self._receiver: Optional[Callable[[bytes, HostPort], None]] = None
        self._batch_receiver: Optional[Callable[[Batch], None]] = None
        self._tx_queue: Deque[Tuple[HostPort, bytes]] = deque()
        self._tx_scheduled = False
        self._tx_writer_armed = False
        self._closed = False
        name = sock.getsockname()
        self._local_address: HostPort = (name[0], name[1])
        self.io_stats = IoStats()
        self._rx_histogram = None  # per-wakeup datagram distribution
        loop.add_reader(sock.fileno(), self._on_readable)

    @classmethod
    async def create(
        cls,
        host: str = "127.0.0.1",
        port: int = 0,
        rx_batch: int = 32,
        tx_batch: int = 32,
    ) -> "BatchedUdpTransport":
        """Bind a non-blocking socket; ``port=0`` picks an ephemeral port."""
        loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind((host, port))
        except BaseException:
            sock.close()
            raise
        return cls(sock, loop, rx_batch=rx_batch, tx_batch=tx_batch)

    @property
    def local_address(self) -> HostPort:
        """The bound ``(host, port)``; stays readable after close()."""
        return self._local_address

    # ------------------------------------------------------------------
    # receive path
    # ------------------------------------------------------------------

    def set_receiver(self, callback: Callable[[bytes, HostPort], None]) -> None:
        self._receiver = callback

    def set_batch_receiver(self, callback: Callable[[Batch], None]) -> None:
        """Install a whole-batch callback (preferred over per-datagram)."""
        self._batch_receiver = callback

    def _on_readable(self) -> None:
        sock = self._sock
        budget = self._rx_batch
        batch: Batch = []
        total_bytes = 0
        count = 0
        while count < budget:
            try:
                data, addr = sock.recvfrom(_RX_MAX_DATAGRAM)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                # e.g. ECONNREFUSED bounced back on some platforms; the
                # datagram is gone either way, keep draining.
                continue
            batch.append((data, (addr[0], addr[1])))
            total_bytes += len(data)
            count += 1
        if not batch:
            return
        stats = self.io_stats
        stats.rx_wakeups += 1
        stats.rx_datagrams += count
        stats.rx_bytes += total_bytes
        if count > stats.rx_batch_max:
            stats.rx_batch_max = count
        if count == budget:
            # Level-triggered readiness re-fires the callback for the
            # remainder; the budget only bounds per-wakeup latency.
            stats.rx_budget_exhausted += 1
        if self._rx_histogram is not None:
            self._rx_histogram.observe(count)
        if self._batch_receiver is not None:
            self._batch_receiver(batch)
        elif self._receiver is not None:
            receiver = self._receiver
            for data, sender in batch:
                receiver(data, sender)

    # ------------------------------------------------------------------
    # send path
    # ------------------------------------------------------------------

    def send_now(self, destination: HostPort, data: bytes) -> None:
        """Queue a datagram for the next flush burst (synchronous).

        The session calls this instead of spawning one task per
        datagram; all sends of a loop tick leave in one tight burst.
        """
        if len(data) > _MAX_DATAGRAM:
            raise ConfigurationError(
                f"datagram of {len(data)} bytes exceeds the {_MAX_DATAGRAM} B "
                "UDP bound; shrink R or the payload, or use a stream transport"
            )
        if self._closed:
            return
        self._tx_queue.append((destination, bytes(data)))
        if not self._tx_scheduled and not self._tx_writer_armed:
            self._tx_scheduled = True
            self._loop.call_soon(self._flush_tx)

    async def send(self, destination: HostPort, data: bytes) -> None:
        self.send_now(destination, data)

    def _flush_tx(self) -> None:
        self._tx_scheduled = False
        if self._closed:
            self._tx_queue.clear()
            return
        queue = self._tx_queue
        if not queue:
            return
        stats = self.io_stats
        stats.tx_flushes += 1
        budget = self._tx_batch
        sent = 0
        blocked = False
        sock = self._sock
        while queue and sent < budget:
            destination, data = queue[0]
            try:
                sock.sendto(data, destination)
            except (BlockingIOError, InterruptedError):
                blocked = True
                break
            except OSError:
                queue.popleft()  # unreachable peer: drop, UDP semantics
                continue
            queue.popleft()
            sent += 1
            stats.tx_bytes += len(data)
        stats.tx_datagrams += sent
        if sent > stats.tx_batch_max:
            stats.tx_batch_max = sent
        if not queue:
            return
        if blocked:
            stats.tx_blocked += 1
            if not self._tx_writer_armed:
                self._tx_writer_armed = True
                self._loop.add_writer(self._sock.fileno(), self._on_writable)
        elif not self._tx_scheduled:
            # Budget exhausted with queue left: yield to the loop (let
            # reads interleave) and continue next tick.
            self._tx_scheduled = True
            self._loop.call_soon(self._flush_tx)

    def _on_writable(self) -> None:
        self._loop.remove_writer(self._sock.fileno())
        self._tx_writer_armed = False
        self._flush_tx()

    # ------------------------------------------------------------------
    # observability / lifecycle
    # ------------------------------------------------------------------

    def bind_metrics(self, registry) -> None:
        """Export the I/O tallies through a ``repro.obs`` registry.

        Counters are read from :class:`IoStats` by a collector at
        snapshot time; only the per-wakeup batch-size histogram is
        push-style, one ``observe()`` per wakeup — not per datagram.
        """
        self._rx_histogram = registry.histogram(
            "repro_io_rx_batch_datagrams",
            bounds=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
        )
        series = [
            (f"repro_io_{name}_total", name)
            for name in (
                "rx_wakeups",
                "rx_datagrams",
                "rx_bytes",
                "rx_budget_exhausted",
                "tx_flushes",
                "tx_datagrams",
                "tx_bytes",
                "tx_blocked",
            )
        ]

        def collect() -> dict:
            stats = self.io_stats
            values = {name: getattr(stats, attr) for name, attr in series}
            values["repro_io_rx_batch_peak"] = stats.rx_batch_max
            values["repro_io_tx_batch_peak"] = stats.tx_batch_max
            return values

        registry.register_collector(collect)

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        fd = self._sock.fileno()
        if fd >= 0:
            self._loop.remove_reader(fd)
            if self._tx_writer_armed:
                self._loop.remove_writer(fd)
                self._tx_writer_armed = False
        self._tx_queue.clear()
        # Raw close releases the port synchronously — a crash-recovery
        # restart may rebind immediately.
        self._sock.close()
