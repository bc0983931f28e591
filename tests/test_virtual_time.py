"""The shipping node stack under deterministic virtual time.

``repro.sim.vtime`` swaps the event loop's clock for a counter that
jumps to the next timer whenever the loop would block.  Unmodified
``create_node()`` groups on the in-process bus then run in the time
their callbacks take, and — the point — run *the same way every time*:
two same-seed runs, and a third in another process under another
``PYTHONHASHSEED``, agree on delivery order, bus datagram count, wire
counters, the census of every table and the journal's bytes on disk.
Anything that breaks this (a set iterated over addresses, a wall-clock
read) is a bug at its source.

The same harness runs partitions (``Group.start(split=…)`` cuts the
even-numbered nodes from the odd ones with ``FaultWindow``s) and judges
runs (``judged=True`` attaches a vector-clock oracle):
``tests/test_anti_entropy.py`` and ``benchmarks/bench_heal.py`` count
heals exactly on it.
"""

import asyncio
import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

import pytest

from repro.api import LivenessPolicy, MembershipConfig, NodeConfig, create_node
from repro.net import FaultWindow, FaultyTransport, LocalAsyncBus
from repro.net.session import TransportStats
from repro.sim.network import DelayModel, GaussianDelayModel
from repro.sim.oracle import CausalityOracle
from repro.sim.vtime import VirtualDeadlockError, VirtualTimeLoop, run_virtual
from repro.util.rng import RandomSource

ROOT = pathlib.Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# the loop
# ----------------------------------------------------------------------


def test_sleeping_costs_no_wall_time_and_timers_fire_in_order():
    fired = []

    async def scenario():
        loop = asyncio.get_running_loop()
        assert isinstance(loop, VirtualTimeLoop)
        loop.call_later(30.0, fired.append, "late")
        loop.call_later(10.0, fired.append, "early")
        await asyncio.sleep(3600.0)
        return loop.time()

    began = time.monotonic()
    assert run_virtual(scenario()) == pytest.approx(3600.0)
    assert time.monotonic() - began < 5.0
    assert fired == ["early", "late"]


def test_wait_for_times_out_in_virtual_seconds():
    async def scenario():
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(asyncio.Event().wait(), timeout=120.0)
        return asyncio.get_running_loop().time()

    assert run_virtual(scenario()) == pytest.approx(120.0)


def test_a_deadlock_raises_and_names_the_pending_tasks():
    async def stuck():
        await asyncio.Event().wait()

    async def scenario():
        asyncio.get_running_loop().create_task(stuck(), name="the-waiter")
        await asyncio.Event().wait()

    with pytest.raises(VirtualDeadlockError) as raised:
        run_virtual(scenario())
    assert "the-waiter" in str(raised.value)
    assert "stuck" in str(raised.value)


def test_leftover_tasks_are_cancelled_and_exceptions_propagate():
    cancelled = []

    async def background():
        try:
            await asyncio.sleep(1e9)
        except asyncio.CancelledError:
            cancelled.append(True)
            raise

    async def scenario():
        asyncio.get_running_loop().create_task(background())
        await asyncio.sleep(1.0)
        raise ValueError("from the scenario")

    with pytest.raises(ValueError, match="from the scenario"):
        run_virtual(scenario())
    assert cancelled == [True]


# ----------------------------------------------------------------------
# groups of unmodified create_node() nodes on the virtual bus
# ----------------------------------------------------------------------


class Group:
    """N nodes on one seeded bus, every node wired to every other, with
    a delivery-order hash per node and, when ``judged``, a vector-clock
    oracle classifying every delivery.  ``async with`` closes the nodes."""

    def __init__(self, nodes, bus, oracle=None):
        self.nodes = nodes
        self.bus = bus
        self.oracle = oracle
        self.order = {}

    @classmethod
    async def start(cls, size: int, config, seed: int, loss_rate: float,
                    delay_model: DelayModel, judged=False, split=None) -> "Group":
        """``config`` is one ``NodeConfig`` or ``name -> NodeConfig``; a
        config with membership forms the group by joining (give every
        node but the first a seed peer) instead of ``add_peer``.
        ``split=(start, end)`` drops every datagram between an
        even-numbered and an odd-numbered node for those virtual
        seconds, counted from the moment the group is wired."""
        bus = LocalAsyncBus(
            delay_model, rng=RandomSource(seed).spawn("bus"), loss_rate=loss_rate
        )
        group = cls([], bus, CausalityOracle(capacity=size) if judged else None)
        names = [f"n{index}" for index in range(size)]
        loop = asyncio.get_running_loop()
        transports = []
        for index, name in enumerate(names):
            group.order[name] = hashlib.sha256()
            if judged:
                group.oracle.register_node(name)

            def handler(record, name=name):
                message_id = record.message.message_id
                group.order[name].update(repr(message_id).encode())
                if judged and record.local:
                    group.oracle.on_send(name, message_id, loop.time(), fanout=size - 1)
                elif judged:
                    group.oracle.classify_delivery(name, message_id, loop.time())

            transport = bus.attach(name)
            if split is not None:
                transport = FaultyTransport(transport, windows=[FaultWindow(
                    *split, drop=True, peers=names[(index + 1) % 2::2]
                )])
                transports.append(transport)
            group.nodes.append(await create_node(
                name, config(name) if callable(config) else config,
                transport=transport, on_delivery=handler,
            ))
        for node in group.nodes:
            for peer in group.nodes:
                if peer is not node and node.membership is None:
                    node.add_peer(peer.local_address)
            while node.membership is not None and len(node.membership.view.members) < size:
                await asyncio.sleep(0.01)
        for transport in transports:
            transport.arm()
        return group

    async def __aenter__(self) -> "Group":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await asyncio.gather(*(node.close() for node in self.nodes))

    def exact_deliveries(self):
        return [
            node.endpoint.stats.sent + node.endpoint.stats.delivered
            for node in self.nodes
        ]

    async def settle(self, total: int, timeout: float = 120.0) -> None:
        """Wait (virtual seconds) until every node delivered ``total``."""
        async def poll():
            while any(count != total for count in self.exact_deliveries()):
                await asyncio.sleep(0.01)

        try:
            await asyncio.wait_for(poll(), timeout)
        except asyncio.TimeoutError:
            raise AssertionError(
                f"not every node delivered {total}: {self.exact_deliveries()}"
            ) from None

    def wire(self) -> TransportStats:
        total = TransportStats()
        for node in self.nodes:
            total = total.merge(node.transport_stats())
        return total

    def counts(self) -> dict:
        """Every work counter summed over the group: the node's
        ``RepairStats`` fields, wire and endpoint totals, the timers the
        virtual loop armed (the whole loop's, the scenario's own sleeps
        included), and —
        when judged — the deliveries the oracle could not prove correct."""
        wire = self.wire()
        out = {
            field.name: sum(getattr(node.repair_stats, field.name) for node in self.nodes)
            for field in dataclasses.fields(self.nodes[0].repair_stats)
        }
        out.update(
            digests=wire.digests_sent, retransmits=wire.retransmits, drops=wire.drops,
            datagrams=self.bus.sent,
            standalone_acks=wire.acks_sent - wire.acks_piggybacked,
            timers=asyncio.get_running_loop().timers_armed,
            sent=sum(node.endpoint.stats.sent for node in self.nodes),
            deliveries=sum(node.endpoint.stats.delivered for node in self.nodes),
            alerts=sum(node.endpoint.stats.alerts for node in self.nodes),
        )
        if self.oracle is not None:
            totals = self.oracle.totals
            out["violations"] = totals.violations + totals.ambiguous
        return out

    async def burst(self, count: int) -> None:
        """Closed loop: every node issues ``count`` broadcasts back to back."""
        async def client(node):
            for index in range(count):
                await node.broadcast([str(node.node_id), "burst", index])

        await asyncio.gather(*(client(node) for node in self.nodes))

    async def paced(self, count: int, rate: float) -> None:
        """Open loop: ``rate`` broadcasts/s per node, phase-shifted."""
        async def client(position, node):
            await asyncio.sleep(position / (rate * len(self.nodes)))
            for index in range(count):
                await node.broadcast([str(node.node_id), "paced", index])
                await asyncio.sleep(1.0 / rate)

        await asyncio.gather(
            *(client(position, node) for position, node in enumerate(self.nodes))
        )

    def fingerprint(self) -> dict:
        return {
            "order": {name: digest.hexdigest() for name, digest in self.order.items()},
            "bus_sent": self.bus.sent,
            "bus_dropped": self.bus.dropped,
            "wire": dataclasses.asdict(self.wire()),
            "state": {str(node.node_id): node.state_sizes() for node in self.nodes},
        }


async def lossy_mesh(seed: int) -> dict:
    """4-node full mesh formed by joining through ``n0``, 5 % loss, the
    paper's N(100, 20) ms delays (so the 50 ms first retransmit timeout
    fires on every link too), liveness and the journal on, a closed-loop
    burst then a paced tail.  The fingerprint includes every node's
    journal as it lies on disk after close."""
    with tempfile.TemporaryDirectory() as directory:
        root = pathlib.Path(directory)

        def config(name):
            return NodeConfig(
                liveness=LivenessPolicy(heartbeat_interval=0.2, quarantine_after=5.0),
                membership=MembershipConfig(seed_peers=() if name == "n0" else ("n0",)),
                data_dir=str(root / name),
            )

        group = await Group.start(4, config, seed, 0.05, GaussianDelayModel())
        async with group:
            await group.burst(60)
            await group.paced(20, rate=10.0)
            await group.settle(4 * 80)
            result = group.fingerprint()
        result["journal"] = {}
        for node in group.nodes:
            digest = hashlib.sha256()
            for name in ("snapshot.json", "wal.log"):
                digest.update((root / node.node_id / name).read_bytes())
            result["journal"][node.node_id] = digest.hexdigest()
        return result


async def lossy_overlay(seed: int) -> dict:
    """16-node relay overlay (fanout 3, views of 12), 5 % loss."""
    config = NodeConfig(dissemination="overlay")
    group = await Group.start(16, config, seed, 0.05, GaussianDelayModel())
    async with group:
        await group.burst(4)
        await group.paced(8, rate=2.0)
        await group.settle(16 * 12)
        return group.fingerprint()


SCENARIOS = {"mesh4": lossy_mesh, "overlay16": lossy_overlay}


def fingerprints(seed: int) -> dict:
    """Every scenario's fingerprint, JSON-normalised (what the
    subprocess prints and the parent compares against)."""
    return json.loads(json.dumps({
        name: run_virtual(scenario(seed)) for name, scenario in SCENARIOS.items()
    }))


def test_same_seed_same_run_across_processes_and_hash_seeds():
    seed = 11
    first = fingerprints(seed)
    for name, result in first.items():
        assert result["bus_dropped"] > 0, f"{name}: loss was never exercised"
        assert result["wire"]["digests_sent"] > 0
    assert first["mesh4"]["wire"]["retransmits"] > 0
    assert first["overlay16"]["wire"]["relay_sent"] > 0
    assert first == fingerprints(seed)
    # ...and the fingerprint can tell two runs apart.
    assert json.loads(json.dumps(run_virtual(lossy_mesh(seed + 1)))) != first["mesh4"]

    other_hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=other_hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c",
         "import json; from tests.test_virtual_time import fingerprints; "
         f"print(json.dumps(fingerprints({seed})))"],
        env=env, cwd=str(ROOT), stdout=subprocess.PIPE, timeout=300, check=True,
    )
    assert json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1]) == first
