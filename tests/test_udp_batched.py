"""Tests for the syscall-batched UDP transport and its node integration.

Two layers:

* transport-level — the batch drain really hands multiple datagrams per
  wakeup, as owned ``bytes`` a receiver may keep, the ``rx_batch``
  budget re-fires instead of starving, sends gather into bursts, and
  ``IoStats`` counts it all;
* node-level — the default :class:`BatchedUdpTransport` is
  observationally identical to the per-datagram :class:`UdpTransport`
  reference under drops/dups/reorder and across a journaled
  crash/restart (same scripted exchanges as the wire differential,
  driven through the batched socket driver).
"""

import asyncio
import socket

import pytest

from repro.api import NodeConfig, create_node
from repro.core.errors import ConfigurationError
from repro.net import BatchedUdpTransport, UdpTransport
from tests.test_wire_differential import (
    SHIPPED,
    Exchange,
    run_scripted,
    wait_for,
)


class BatchedExchange(Exchange):
    """The wire-differential harness over the batched socket driver."""

    async def _create_transport(self, port):
        return await BatchedUdpTransport.create(port=port)


async def run_batched_scripted(wire_kwargs, **kwargs):
    names = ("a", "b", "c")
    exchange = BatchedExchange(
        names, wire_kwargs, kwargs.pop("seed"),
        data_root=kwargs.pop("data_root", None),
    )
    for name in names:
        await exchange.boot(name)
    rounds = kwargs.pop("rounds", 8)
    crash_restart = kwargs.pop("crash_restart", False)
    assert not kwargs
    for _ in range(rounds):
        for name in names:
            await exchange.broadcast(name)
        await asyncio.sleep(0.03)
    if crash_restart:
        await exchange.crash("b")
        for _ in range(3):
            for name in ("a", "c"):
                await exchange.broadcast(name)
            await asyncio.sleep(0.05)
        await exchange.restart("b")
        for name in names:
            await exchange.broadcast(name)
    assert await wait_for(exchange.converged), (
        f"no convergence: sent={len(exchange.sent)}, "
        f"delivered={ {n: len(o) for n, o in exchange.order.items()} }"
    )
    exchange.assert_observations()
    await exchange.close()
    return exchange


class TestBatchedTransport:
    def test_roundtrip_over_loopback(self):
        async def scenario():
            rx = await BatchedUdpTransport.create()
            tx = await BatchedUdpTransport.create()
            got = []
            rx.set_receiver(lambda data, addr: got.append(bytes(data)))
            await tx.send(rx.local_address, b"hello")
            assert await wait_for(lambda: got == [b"hello"])
            await tx.close()
            await rx.close()

        asyncio.run(scenario())

    def test_burst_drains_in_batches_of_owned_bytes(self):
        """A flood sent in one event-loop tick arrives through the
        batch callback several datagrams per wakeup, and what the
        receiver was handed is its to keep: unchanged after more than
        ``rx_batch`` further datagrams have arrived."""

        async def scenario():
            rx = await BatchedUdpTransport.create(rx_batch=8)
            tx = await BatchedUdpTransport.create(tx_batch=64)
            batches = []
            rx.set_batch_receiver(
                lambda batch: batches.append([data for data, _ in batch])
            )
            count = 24
            for i in range(count):
                tx.send_now(rx.local_address, b"m%03d" % i)
            assert await wait_for(
                lambda: sum(len(b) for b in batches) == count
            )
            flattened = [d for batch in batches for d in batch]
            assert flattened == [b"m%03d" % i for i in range(count)]
            assert {type(data) for data in flattened} == {bytes}
            # The whole point: fewer wakeups than datagrams.
            stats = rx.io_stats
            assert stats.rx_datagrams == count
            assert stats.rx_wakeups < count
            assert stats.rx_batch_max > 1
            # And the send side really burst.
            assert tx.io_stats.tx_datagrams == count
            assert tx.io_stats.tx_batch_max > 1
            await tx.close()
            await rx.close()

        asyncio.run(scenario())

    def test_rx_budget_exhaustion_refires_instead_of_starving(self):
        """More pending datagrams than rx_batch: the level-triggered
        reader must fire again and drain the rest."""

        async def scenario():
            rx = await BatchedUdpTransport.create(rx_batch=2)
            tx = await BatchedUdpTransport.create()
            got = []
            rx.set_receiver(lambda data, addr: got.append(bytes(data)))
            for i in range(9):
                tx.send_now(rx.local_address, b"%d" % i)
            assert await wait_for(lambda: len(got) == 9)
            assert rx.io_stats.rx_budget_exhausted > 0
            assert rx.io_stats.rx_batch_max == 2
            await tx.close()
            await rx.close()

        asyncio.run(scenario())

    def test_oversized_datagram_rejected(self):
        async def scenario():
            transport = await BatchedUdpTransport.create()
            with pytest.raises(ConfigurationError):
                transport.send_now(("127.0.0.1", 9), b"x" * 70_000)
            with pytest.raises(ConfigurationError):
                await transport.send(("127.0.0.1", 9), b"x" * 70_000)
            await transport.close()

        asyncio.run(scenario())

    def test_batch_knob_validation(self):
        async def scenario():
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.setblocking(False)
            sock.bind(("127.0.0.1", 0))
            loop = asyncio.get_running_loop()
            try:
                with pytest.raises(ConfigurationError):
                    BatchedUdpTransport(sock, loop, rx_batch=0)
                with pytest.raises(ConfigurationError):
                    BatchedUdpTransport(sock, loop, tx_batch=-1)
            finally:
                sock.close()

        asyncio.run(scenario())

    def test_local_address_survives_close(self):
        async def scenario():
            transport = await BatchedUdpTransport.create()
            address = transport.local_address
            await transport.close()
            assert transport.local_address == address

        asyncio.run(scenario())


class TestNodeIntegration:
    def test_batch_knobs_validated(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(rx_batch=0)
        with pytest.raises(ConfigurationError):
            NodeConfig(tx_batch=0)

    def test_create_node_binds_batched_transport(self):
        """The default is the batched driver; an explicit ``transport=``
        (the per-datagram reference) is honoured."""

        async def scenario():
            node = await create_node("n", NodeConfig(r=8))
            assert type(node.transport) is BatchedUdpTransport
            await node.close()
            reference = await UdpTransport.create()
            node = await create_node("n", NodeConfig(r=8), transport=reference)
            assert node.transport is reference
            await node.close()

        asyncio.run(scenario())

    def test_io_metrics_exported(self):
        """The transport's IoStats surface through the node registry as
        repro_io_* series, alongside the codec counters."""

        async def scenario():
            a = await create_node("a", NodeConfig(r=16))
            b = await create_node("b", NodeConfig(r=16))
            a.add_peer(b.local_address)
            b.add_peer(a.local_address)
            for i in range(10):
                await a.broadcast(i)
            assert await wait_for(lambda: len(b.deliveries) == 10)
            # ``a`` receives only b's acks, which are held for reverse
            # traffic for up to two retransmit ticks: wait for them.
            assert await wait_for(lambda: a.transport_stats().acks_received > 0)
            snapshot = a.metrics.snapshot()
            counters = snapshot["counters"]
            assert counters["repro_io_rx_datagrams_total"] > 0
            assert counters["repro_io_tx_datagrams_total"] > 0
            assert counters["repro_io_rx_wakeups_total"] > 0
            assert counters["repro_codec_frames_decoded_total"] > 0
            assert "repro_io_rx_batch_datagrams" in snapshot["histograms"]
            await a.close()
            await b.close()

        asyncio.run(scenario())


class TestIoModeEquivalence:
    def test_lossy_multiparty_exchange(self):
        """Drops + dups + reorders through the batched driver: the same
        scripted exchange as the legacy driver delivers the same message
        sets, per-sender FIFO, zero oracle violations (asserted inside
        both harnesses)."""

        async def scenario():
            legacy, _ = await run_scripted(SHIPPED, seed=31)
            batched = await run_batched_scripted(SHIPPED, seed=31)
            for name in legacy.order:
                assert set(legacy.order[name]) == set(batched.order[name])

        asyncio.run(scenario())

    def test_crash_restart(self, tmp_path):
        """A journaled crash/restart mid-stream over the batched driver:
        the journal replays cleanly and convergence matches the
        reference run."""

        async def scenario():
            legacy, _ = await run_scripted(
                SHIPPED, seed=47, data_root=tmp_path / "legacy",
                crash_restart=True,
            )
            batched = await run_batched_scripted(
                SHIPPED, seed=47, data_root=tmp_path / "batched",
                crash_restart=True,
            )
            for name in legacy.order:
                assert set(legacy.order[name]) == set(batched.order[name])

        asyncio.run(scenario())

    def test_single_sender_total_order_is_identical(self):
        """One sender: delivery order is fully determined (seq order),
        so the batched driver must produce identical sequences."""

        async def scenario():
            orders = {}
            for label, cls in (("legacy", Exchange), ("batched", BatchedExchange)):
                names = ("tx", "rx1", "rx2")
                exchange = cls(names, SHIPPED, seed=59)
                for name in names:
                    await exchange.boot(name)
                for _ in range(20):
                    await exchange.broadcast("tx")
                assert await wait_for(exchange.converged)
                exchange.assert_observations()
                orders[label] = {
                    name: list(exchange.order[name]) for name in ("rx1", "rx2")
                }
                await exchange.close()
            assert orders["legacy"] == orders["batched"]
            for order in orders["batched"].values():
                assert order == [("tx", i) for i in range(1, 21)]

        asyncio.run(scenario())
