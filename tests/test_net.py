"""Tests for the datagram substrates (bus + UDP) under ``create_node()``."""

import asyncio

import pytest

from repro.api import NodeConfig, create_node
from repro.core.errors import ConfigurationError
from repro.core.keyspace import RandomKeyAssigner
from repro.net import FaultWindow, FaultyTransport, LocalAsyncBus, UdpTransport
from repro.sim.group import wait_for
from repro.sim.network import ConstantDelayModel, GaussianDelayModel
from repro.sim.vtime import run_virtual
from repro.util.rng import RandomSource
from tests.recording import Deliveries

R, K = 32, 3


async def make_cluster(transports, seed=9):
    """One ``create_node()`` per ``{name: transport}``, nobody peered
    yet, and the delivery log of each."""
    assigner = RandomKeyAssigner(R, K, rng=RandomSource(seed=seed))
    config = NodeConfig(r=R, k=K)
    logs = {name: Deliveries() for name in transports}
    nodes = {
        name: await create_node(name, config, transport=transport, assigner=assigner,
                                on_delivery=logs[name].append)
        for name, transport in transports.items()
    }
    return nodes, logs


async def make_bus_cluster(bus, names):
    nodes, logs = await make_cluster({name: bus.attach(name) for name in names})
    for name, node in nodes.items():
        for other in names:
            if other != name:
                node.add_peer(other)
    return nodes, logs


async def close_all(nodes):
    await asyncio.gather(*(node.close() for node in nodes.values()))


class TestLocalBus:
    def test_broadcast_reaches_all_peers(self):
        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(10.0))
            nodes, logs = await make_bus_cluster(bus, ["a", "b", "c"])
            await nodes["a"].broadcast("hello")
            # The sender self-delivered.
            assert logs["a"].payloads() == ["hello"]
            assert await wait_for(
                lambda: all(log.payloads() == ["hello"] for log in logs.values())
            )
            await close_all(nodes)

        asyncio.run(scenario())

    def test_causal_order_preserved_under_jittery_delays(self):
        async def scenario():
            bus = LocalAsyncBus(
                delay_model=GaussianDelayModel(mean=20, std=8, skew_std=8),
                rng=RandomSource(seed=3).spawn("net"),
            )
            nodes, logs = await make_bus_cluster(bus, ["a", "b", "c"])
            # A chain: a sends, b replies after seeing it, several times.
            for round_number in range(5):
                await nodes["a"].broadcast(("a", round_number))
                assert await wait_for(
                    lambda: ("a", round_number) in logs["b"].payloads()
                )
                await nodes["b"].broadcast(("b", round_number))
            assert await wait_for(lambda: len(logs["c"]) == 10)
            order = logs["c"].payloads()
            # Within the chain, every (a, i) precedes (b, i).
            for i in range(5):
                assert order.index(("a", i)) < order.index(("b", i))
            await close_all(nodes)

        asyncio.run(scenario())

    def test_concurrent_broadcasts_all_delivered_exactly_once(self):
        async def scenario():
            bus = LocalAsyncBus(
                delay_model=GaussianDelayModel(mean=15, std=5, skew_std=5),
                rng=RandomSource(seed=5).spawn("net"),
                duplicate_rate=0.3,
            )
            names = [f"p{i}" for i in range(5)]
            nodes, logs = await make_bus_cluster(bus, names)
            await asyncio.gather(
                *(nodes[name].broadcast(f"from-{name}") for name in names)
            )
            expected = sorted(f"from-{n}" for n in names)
            assert await wait_for(
                lambda: all(len(log) == 5 for log in logs.values())
            )
            await bus.drain()  # let the duplicated copies land too
            for log in logs.values():
                assert sorted(log.payloads()) == expected
            await close_all(nodes)

        asyncio.run(scenario())

    def test_loss_injection_counts_drops(self):
        async def scenario():
            bus = LocalAsyncBus(
                delay_model=ConstantDelayModel(5.0),
                rng=RandomSource(seed=6).spawn("net"),
                loss_rate=0.5,
            )
            sender, receiver = bus.attach("a"), bus.attach("b")
            received = []
            receiver.set_receiver(lambda data, addr: received.append(data))
            for i in range(40):
                await sender.send("b", bytes([i]))
            await bus.drain()
            assert bus.dropped > 0
            assert len(received) == 40 - bus.dropped < 40

        asyncio.run(scenario())

    def test_double_attach_rejected(self):
        async def scenario():
            bus = LocalAsyncBus()
            bus.attach("a")
            with pytest.raises(ConfigurationError):
                bus.attach("a")

        asyncio.run(scenario())

    def test_malformed_datagram_does_not_kill_peer(self):
        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            nodes, logs = await make_bus_cluster(bus, ["a", "b"])
            transport = bus.attach("evil")
            await transport.send("b", b"not a message")
            await bus.drain()
            assert nodes["b"].session.frame_errors == 1
            await nodes["a"].broadcast("still alive")
            assert await wait_for(
                lambda: logs["b"].payloads() == ["still alive"]
            )
            await close_all(nodes)

        asyncio.run(scenario())

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            LocalAsyncBus(loss_rate=1.0)


class TestFaultWindow:
    def test_a_window_is_half_open_and_cuts_only_the_named_peers(self):
        window = FaultWindow(1.0, 2.0, drop=True, peers=["b", "d"])
        assert [window.active_at(t) for t in (0.99, 1.0, 1.99, 2.0)] == [
            False, True, True, False
        ]
        assert window.applies_to("b") and window.applies_to("d")
        assert not window.applies_to("c")
        assert FaultWindow(0.0, 1.0, extra_delay=0.1).applies_to("anyone")

        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            heard = {"b": [], "c": []}
            for name, inbox in heard.items():
                bus.attach(name).set_receiver(lambda data, addr, inbox=inbox: inbox.append(data))
            sender = FaultyTransport(bus.attach("a"), windows=[window])
            sender.arm()
            for moment in (b"before", b"during", b"after"):
                await sender.send("b", moment)
                await sender.send("c", moment)
                await asyncio.sleep(1.0)
            await bus.drain()
            return heard, sender.window_dropped

        heard, dropped = run_virtual(scenario())
        assert heard == {"b": [b"before", b"after"], "c": [b"before", b"during", b"after"]}
        assert dropped == 1

    @pytest.mark.parametrize("arguments", [
        dict(start=5.0, end=5.0, drop=True),
        dict(start=-1.0, end=5.0, drop=True),
        dict(start=0.0, end=1.0, extra_delay=-0.1),
        dict(start=0.0, end=1.0),  # does nothing
    ])
    def test_validation(self, arguments):
        with pytest.raises(ConfigurationError):
            FaultWindow(**arguments)


class TestUdpTransport:
    def test_roundtrip_over_loopback(self):
        async def scenario():
            transports = {
                f"udp-{index}": await UdpTransport.create() for index in range(3)
            }
            nodes, logs = await make_cluster(transports, seed=11)
            for name, node in nodes.items():
                for other, transport in transports.items():
                    if other != name:
                        node.add_peer(transport.local_address)

            await nodes["udp-0"].broadcast({"op": "add", "item": "milk"})
            assert await wait_for(
                lambda: all(len(log) == 1 for log in logs.values())
            )
            for log in logs.values():
                assert log.payloads() == [{"op": "add", "item": "milk"}]
            await close_all(nodes)

        asyncio.run(scenario())

    def test_oversized_datagram_rejected(self):
        async def scenario():
            transport = await UdpTransport.create()
            with pytest.raises(ConfigurationError):
                await transport.send(("127.0.0.1", 9), b"x" * 70_000)
            await transport.close()

        asyncio.run(scenario())

    def test_datagram_bound_is_exact(self):
        """Exactly _MAX_DATAGRAM bytes passes; one more raises clearly.
        The session's coalescing budget fits under it, so no flushed
        BATCH is ever refused."""
        from repro.net.session import _COALESCE_MTU
        from repro.net.udp import _MAX_DATAGRAM

        assert _COALESCE_MTU <= _MAX_DATAGRAM

        async def scenario():

            sender = await UdpTransport.create()
            receiver = await UdpTransport.create()
            received = []
            receiver.set_receiver(lambda data, addr: received.append(len(data)))
            await sender.send(receiver.local_address, b"x" * _MAX_DATAGRAM)
            with pytest.raises(ConfigurationError, match="exceeds"):
                await sender.send(receiver.local_address, b"x" * (_MAX_DATAGRAM + 1))
            for _ in range(100):
                if received:
                    break
                await asyncio.sleep(0.01)
            assert received == [_MAX_DATAGRAM]
            await sender.close()
            await receiver.close()

        asyncio.run(scenario())

    def test_receiver_gets_sender_address(self):
        """The satellite fix: datagrams arrive attributed to their source."""

        async def scenario():
            sender = await UdpTransport.create()
            receiver = await UdpTransport.create()
            arrivals = []
            receiver.set_receiver(lambda data, addr: arrivals.append((data, addr)))
            await sender.send(receiver.local_address, b"who sent this?")
            for _ in range(100):
                if arrivals:
                    break
                await asyncio.sleep(0.01)
            assert arrivals == [(b"who sent this?", sender.local_address)]
            await sender.close()
            await receiver.close()

        asyncio.run(scenario())


class TestBusAddressing:
    def test_bus_receiver_gets_sender_address(self):
        async def scenario():
            bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
            alpha = bus.attach("alpha")
            beta = bus.attach("beta")
            arrivals = []
            beta.set_receiver(lambda data, addr: arrivals.append((data, addr)))
            alpha.set_receiver(lambda data, addr: None)
            await alpha.send("beta", b"hi")
            await bus.drain()
            assert arrivals == [(b"hi", "alpha")]

        asyncio.run(scenario())

    def test_causal_chain_over_udp(self):
        async def scenario():
            transports = {name: await UdpTransport.create() for name in "abc"}
            nodes, logs = await make_cluster(transports, seed=12)
            a, b, c = (nodes[name] for name in "abc")
            # a -> {b, c};  b -> {c} only: c must still order b's reply
            # after a's original despite receiving both over UDP.
            a.add_peer(transports["b"].local_address)
            a.add_peer(transports["c"].local_address)
            b.add_peer(transports["c"].local_address)

            await a.broadcast("question")
            assert await wait_for(lambda: logs["b"].payloads(include_local=False))
            await b.broadcast("answer")
            assert await wait_for(lambda: len(logs["c"]) == 2)
            assert logs["c"].payloads() == ["question", "answer"]
            await close_all(nodes)

        asyncio.run(scenario())
