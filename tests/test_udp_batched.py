"""Tests for the syscall-batched UDP transport and its node integration.

Two layers:

* transport-level — the batch drain really hands multiple datagrams per
  wakeup, as owned ``bytes`` a receiver may keep, the ``rx_batch``
  budget re-fires instead of starving, sends gather into bursts, and
  ``IoStats`` counts it all;
* node-level — the default :class:`BatchedUdpTransport` is
  observationally identical to the per-datagram :class:`UdpTransport`
  reference under drops/dups/reorder and across a journaled
  crash/restart.  These are the repository's scripted exchanges on real
  sockets: their subject is the socket, so they keep a small harness of
  their own (everything else runs on the in-process bus).
"""

import asyncio
import socket

import pytest

from repro.api import NodeConfig, RetransmitPolicy, create_node
from repro.core.errors import ConfigurationError
from repro.net import BatchedUdpTransport, FaultyTransport, UdpTransport
from repro.sim.group import wait_for
from repro.sim.oracle import CausalityOracle
from repro.util.rng import RandomSource

NAMES = ("a", "b", "c")


async def scripted_exchange(transport_cls, seed, *, root=None, senders=NAMES, rounds=8,
                            pause=0.03):
    """Three nodes on ``transport_cls`` sockets behind 20 % drop, 10 %
    duplication and 10 % reordering, ``rounds`` broadcasts per sender
    ``pause`` seconds apart, with ``b`` crashed and restarted from its
    journal mid-stream when a ``root`` directory is given.  Returns each
    node's remote deliveries in order, once every node holds every
    message in per-sender FIFO with zero causality-oracle violations
    (disjoint key sets make the delivery condition exact)."""
    order = {name: [] for name in NAMES}
    nodes, addresses, sent = {}, {}, []
    oracle = CausalityOracle(capacity=len(NAMES))
    for name in NAMES:
        oracle.register_node(name)

    async def boot(name, port=0):
        transport = FaultyTransport(
            await transport_cls.create(port=port),
            drop_rate=0.20, duplicate_rate=0.10, reorder_rate=0.10,
            rng=RandomSource(seed=seed).spawn(f"wire-{name}"),
        )
        index = NAMES.index(name)
        config = NodeConfig(
            r=64, k=3, keys=tuple(range(3 * index, 3 * index + 3)),
            retransmit=RetransmitPolicy(initial_timeout=0.02), anti_entropy_interval=0.1,
            data_dir=None if root is None else str(root / name),
        )

        def on_delivery(record):
            message_id, now = record.message.message_id, asyncio.get_running_loop().time()
            if record.local:
                oracle.on_send(name, message_id, now, fanout=len(NAMES) - 1)
            else:
                order[name].append(message_id)
                oracle.classify_delivery(name, message_id, now)

        nodes[name] = await create_node(
            name, config, transport=transport, on_delivery=on_delivery
        )
        addresses[name] = transport.local_address
        for other, address in addresses.items():
            if other != name:
                nodes[name].add_peer(address)
                nodes[other].add_peer(transport.local_address)

    async def broadcast(names, count):
        for _ in range(count):
            for name in names:
                sent.append((name, (await nodes[name].broadcast(None)).seq))
            await asyncio.sleep(pause)

    for name in NAMES:
        await boot(name)
    await broadcast(senders, rounds)
    if root is not None:
        await nodes.pop("b").close()
        await broadcast(("a", "c"), 3)
        await boot("b", port=addresses["b"][1])
        assert nodes["b"].recovered is not None
        await broadcast(senders, 1)

    def converged():
        return all(
            sorted(order[name]) == sorted(m for m in sent if m[0] != name)
            for name in NAMES
        )

    assert await wait_for(converged), {name: len(o) for name, o in order.items()}
    for name, received in order.items():
        for sender in NAMES:
            seqs = [seq for origin, seq in received if origin == sender]
            assert seqs == sorted(seqs), f"{name} broke {sender}'s FIFO"
    assert oracle.totals.violations == oracle.totals.ambiguous == 0, oracle.totals
    for node in nodes.values():
        await node.close()
    return order


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
            assert await wait_for(lambda: b.endpoint.stats.delivered == 10)
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
    """The batched socket driver against the per-datagram reference: the
    same scripted exchange, the same faults, the same observations."""

    def test_lossy_multiparty_exchange(self):
        async def scenario():
            legacy = await scripted_exchange(UdpTransport, seed=31)
            batched = await scripted_exchange(BatchedUdpTransport, seed=31)
            for name in NAMES:
                assert set(legacy[name]) == set(batched[name])

        asyncio.run(scenario())

    def test_crash_restart(self, tmp_path):
        """A journaled crash/restart mid-stream over either driver: the
        journal replays cleanly and convergence matches."""

        async def scenario():
            legacy = await scripted_exchange(UdpTransport, seed=47, root=tmp_path / "legacy")
            batched = await scripted_exchange(
                BatchedUdpTransport, seed=47, root=tmp_path / "batched"
            )
            for name in NAMES:
                assert set(legacy[name]) == set(batched[name])

        asyncio.run(scenario())

    def test_single_sender_total_order_is_identical(self):
        """One sender: delivery order is fully determined (seq order),
        so both drivers must produce identical sequences."""

        async def scenario():
            for cls in (UdpTransport, BatchedUdpTransport):
                order = await scripted_exchange(
                    cls, seed=59, senders=("a",), rounds=20, pause=0.0
                )
                assert order["b"] == order["c"] == [("a", seq) for seq in range(1, 21)]

        asyncio.run(scenario())
