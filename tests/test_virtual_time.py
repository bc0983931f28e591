"""The shipping node stack under deterministic virtual time.

``repro.sim.vtime`` swaps the event loop's clock for a counter that
jumps to the next timer whenever the loop would block.  Unmodified
``create_node()`` groups on the in-process bus then run in the time
their callbacks take, and — the point — run *the same way every time*:
two same-seed runs, and a third in another process under another
``PYTHONHASHSEED``, agree on delivery order, bus datagram count, wire
counters and the census of every table.  Anything that breaks this (a
set iterated over addresses, a wall-clock read) is a bug at its source.
"""

import asyncio
import dataclasses
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from repro.api import LivenessPolicy, NodeConfig, create_node
from repro.net import LocalAsyncBus
from repro.net.session import TransportStats
from repro.sim.network import DelayModel, GaussianDelayModel
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
    a delivery-order hash per node.  ``async with`` closes the nodes."""

    def __init__(self, nodes, bus):
        self.nodes = nodes
        self.bus = bus
        self.order = {}

    @classmethod
    async def start(cls, size: int, config: NodeConfig, seed: int, loss_rate: float,
                    delay_model: DelayModel, on_delivery=None) -> "Group":
        bus = LocalAsyncBus(
            delay_model, rng=RandomSource(seed).spawn("bus"), loss_rate=loss_rate
        )
        group = cls([], bus)
        for index in range(size):
            name = f"n{index}"
            group.order[name] = hashlib.sha256()

            def handler(record, name=name):
                group.order[name].update(repr(record.message.message_id).encode())
                if on_delivery is not None:
                    on_delivery(name, record)

            group.nodes.append(await create_node(
                name, config, transport=bus.attach(name), on_delivery=handler
            ))
        for node in group.nodes:
            for peer in group.nodes:
                if peer is not node:
                    node.add_peer(peer.local_address)
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
    """4-node full mesh, 5 % loss, the paper's N(100, 20) ms delays
    (so the 50 ms first retransmit timeout fires on every link too),
    liveness on, a closed-loop burst then a paced tail."""
    config = NodeConfig(
        liveness=LivenessPolicy(heartbeat_interval=0.2, quarantine_after=5.0),
    )
    group = await Group.start(4, config, seed, 0.05, GaussianDelayModel())
    async with group:
        await group.burst(60)
        await group.paced(20, rate=10.0)
        await group.settle(4 * 80)
        return group.fingerprint()


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
