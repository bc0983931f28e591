"""Scripted exchanges on the shipped wire: what the application observes.

The coalescing / delayed-ack / delta-timestamp wire (the `NodeConfig`
defaults — there is no other) must leave nothing for the application to
notice.  Each test runs a scripted scenario over real loopback UDP with
injected drops, duplication, and reordering — plus a mid-stream
crash/restart — and checks everything the application can observe:

* full convergence — every node delivers the complete message set;
* zero causal violations against the simulator's ground-truth oracle
  (disjoint key sets make the delivery condition exact, so this is a
  sound zero, not a probabilistic one);
* per-sender FIFO at every node;
* for a single sender, the *total* delivery order — which is fully
  determined (seq order), datagram schedule notwithstanding.

The wire stats double-check that the run is honest: it must actually
have batched and delta-encoded.  `Exchange` is also the harness of the
transport differential (`test_udp_batched.py`) and the overlay
differential (`test_overlay.py`), which pass their own config.
"""

import asyncio

import pytest

from repro.api import NodeConfig, RetransmitPolicy, create_node
from repro.net import FaultyTransport, UdpTransport
from repro.net.session import TransportStats
from repro.sim.oracle import CausalityOracle, DeliveryVerdict
from repro.util.rng import RandomSource

SHIPPED = {}  # the NodeConfig defaults

FAULTS = dict(drop_rate=0.20, duplicate_rate=0.10, reorder_rate=0.10)


async def wait_for(predicate, timeout=30.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


class Exchange:
    """One scripted multi-node run (``wire_kwargs``: NodeConfig overrides)."""

    def __init__(self, names, wire_kwargs, seed, data_root=None):
        self.names = names
        self.seed = seed
        self.data_root = data_root
        self.oracle = CausalityOracle(capacity=len(names))
        self.nodes = {}
        self.addresses = {}
        # message_ids in delivery order, accumulated across incarnations.
        self.order = {name: [] for name in names}
        self.violations = []
        self.sent = []
        # Disjoint key sets => the (R, K) delivery condition is exact
        # and a zero-violation assertion cannot flake (see the chaos
        # soak for the full rationale).
        self.keys = {
            name: tuple(range(3 * i, 3 * i + 3)) for i, name in enumerate(names)
        }
        self.config = NodeConfig(
            r=64,
            k=3,
            retransmit=RetransmitPolicy(initial_timeout=0.02),
            anti_entropy_interval=0.1,
            **wire_kwargs,
        )
        for name in names:
            self.oracle.register_node(name)

    def _on_delivery(self, name):
        def callback(record):
            if record.local:
                return
            self.order[name].append(record.message.message_id)
            result = self.oracle.classify_delivery(
                name,
                record.message.message_id,
                now=asyncio.get_running_loop().time(),
            )
            if result.verdict is DeliveryVerdict.VIOLATION:
                self.violations.append((name, record.message.message_id))

        return callback

    async def _create_transport(self, port):
        # Overridden by the I/O-loop differential suite to run the same
        # script over the batched socket driver.
        return await UdpTransport.create(port=port)

    async def boot(self, name, port=0):
        udp = await self._create_transport(port)
        transport = FaultyTransport(
            udp,
            rng=RandomSource(seed=self.seed).spawn(f"wire-{name}"),
            **FAULTS,
        )
        config = self.config.replace(keys=self.keys[name])
        if self.data_root is not None:
            config = config.replace(data_dir=str(self.data_root / name))
        node = await create_node(
            name, config, transport=transport,
            on_delivery=self._on_delivery(name),
        )
        self.nodes[name] = node
        self.addresses[name] = udp.local_address
        for other, address in self.addresses.items():
            if other != name:
                node.add_peer(address)
                self.nodes[other].add_peer(udp.local_address)
        return node

    async def broadcast(self, name):
        node = self.nodes[name]
        message_id = (name, node.endpoint.clock.send_count + 1)
        self.oracle.on_send(
            name,
            message_id,
            now=asyncio.get_running_loop().time(),
            fanout=len(self.names) - 1,
        )
        await node.broadcast(message_id)
        self.sent.append(message_id)

    async def crash(self, name):
        node = self.nodes.pop(name)
        await node.close()

    async def restart(self, name):
        node = await self.boot(name, port=self.addresses[name][1])
        assert node.recovered is not None, f"{name} recovered nothing"
        return node

    def converged(self):
        expected = len(self.sent) * (len(self.names) - 1)
        return sum(len(order) for order in self.order.values()) == expected

    def merged_stats(self):
        merged = TransportStats()
        for node in self.nodes.values():
            merged = merged.merge(node.transport_stats())
        return merged

    async def close(self):
        for node in self.nodes.values():
            await node.close()

    # ------------------------------------------------------------------
    # the shared observational assertions

    def assert_observations(self):
        assert self.converged(), (
            f"no convergence: sent={len(self.sent)}, "
            f"delivered={ {n: len(o) for n, o in self.order.items()} }"
        )
        assert not self.violations, f"causal violations: {self.violations}"
        expected = set(self.sent)
        for name, order in self.order.items():
            own = {m for m in expected if m[0] == name}
            assert set(order) == expected - own, (
                f"{name} delivered a different message set"
            )
            last = {}
            for sender, seq in order:
                if sender in last:
                    assert seq == last[sender] + 1, (
                        f"{name} broke {sender}'s FIFO at seq {seq}"
                    )
                last[sender] = seq


async def run_scripted(wire_kwargs, *, seed, rounds=8, data_root=None,
                       crash_restart=False):
    """The fixed script every differential executes."""
    names = ("a", "b", "c")
    exchange = Exchange(names, wire_kwargs, seed, data_root=data_root)
    for name in names:
        await exchange.boot(name)

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
    stats = exchange.merged_stats()
    await exchange.close()
    return exchange, stats


def assert_wire_shape(stats):
    """The run really exercised the batched, delta-encoding wire."""
    assert stats.batches_sent > 0, "run never coalesced"
    assert stats.acks_piggybacked > 0, "run never piggybacked an ack"
    assert stats.delta_sent > 0, "run never sent a delta"


class TestObservationalEquivalence:
    def test_lossy_multiparty_exchange(self):
        """Drops + dups + reorders: every node delivers the full message
        set, in per-sender FIFO order, with zero oracle violations
        (asserted inside the harness)."""

        async def scenario():
            _, stats = await run_scripted(SHIPPED, seed=31)
            assert_wire_shape(stats)

        asyncio.run(scenario())

    def test_crash_restart(self, tmp_path):
        """A journaled crash/restart mid-stream: the group converges to
        the full delivered sets; the restarted node's delta references
        survive through the journal, and where one did not anti-entropy
        re-ships the message full — the application cannot tell."""

        async def scenario():
            _, stats = await run_scripted(
                SHIPPED, seed=47, data_root=tmp_path, crash_restart=True,
            )
            assert_wire_shape(stats)

        asyncio.run(scenario())

    def test_single_sender_total_order_is_identical(self):
        """With one sender the delivery order is fully determined (seq
        order), so every receiver must observe exactly that sequence,
        whatever the datagram schedule did."""

        async def scenario():
            names = ("tx", "rx1", "rx2")
            exchange = Exchange(names, SHIPPED, seed=59)
            for name in names:
                await exchange.boot(name)
            for _ in range(20):
                await exchange.broadcast("tx")
            assert await wait_for(exchange.converged)
            exchange.assert_observations()
            for name in ("rx1", "rx2"):
                assert exchange.order[name] == [("tx", i) for i in range(1, 21)]
            await exchange.close()

        asyncio.run(scenario())


class TestRegistryDifferential:
    def test_registry_wire_counters_match_transport_stats(self):
        """The observability acceptance test: the registry-backed wire
        series must be value-identical to the TransportStats counters the
        pre-registry code maintained, with faults active.  Both reads
        happen with no await in between, so the event loop cannot
        interleave wire activity."""

        RTT_FIELDS = ("rtt", "rtt_min", "rtt_max")

        async def scenario():
            import dataclasses

            names = ("a", "b", "c")
            exchange = Exchange(names, SHIPPED, seed=71)
            for name in names:
                await exchange.boot(name)
            for _ in range(6):
                for name in names:
                    await exchange.broadcast(name)
                await asyncio.sleep(0.03)
            assert await wait_for(exchange.converged)
            for name, node in exchange.nodes.items():
                stats = node.transport_stats()
                counters = node.metrics.snapshot()["counters"]
                for field in dataclasses.fields(TransportStats):
                    if field.name in RTT_FIELDS:
                        continue
                    key = f"repro_wire_{field.name}_total"
                    assert counters[key] == getattr(stats, field.name), (
                        f"{name}: {key}={counters[key]} but "
                        f"TransportStats.{field.name}="
                        f"{getattr(stats, field.name)}"
                    )
                if stats.rtt is not None:
                    gauges = node.metrics.snapshot()["gauges"]
                    assert gauges["repro_wire_rtt_mean_seconds"] == (
                        pytest.approx(stats.rtt)
                    )
            await exchange.close()

        asyncio.run(scenario())
