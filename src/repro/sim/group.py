"""Groups of shipping nodes on one seeded bus: the scenario harness.

:class:`Group` runs unmodified ``create_node()`` nodes on a
:class:`~repro.net.bus.LocalAsyncBus` whose delays, loss and
duplication are drawn from one seed.  Under
:func:`repro.sim.vtime.run_virtual` a scenario built on it replays
exactly: same delivery order, same counts, in any process.  It covers
what the tests and benchmarks script:

* **wiring** — a full mesh, a sparse seed ring for overlays (``ring``:
  view gossip must find the rest), or joining through membership;
* **traffic** — ``burst`` (closed loop) and ``paced`` (open loop), or
  any node's own ``broadcast``;
* **faults** — bus loss and duplication, an even/odd ``split`` cut with
  :class:`~repro.net.faults.FaultWindow` s in virtual seconds, ``crash``
  and ``restart`` of a named node over its ``data_dir``, ``join`` and
  ``leave`` mid-run;
* **judgement** — ``settle`` waits until every live node delivered
  every broadcast it was there for, ``order`` keeps each name's delivery
  order across incarnations, ``counts`` sums every work counter, and a
  ``judged`` group classifies every delivery with a vector-clock oracle.

    async def scenario():
        group = await Group.start(4, NodeConfig(), 1, 0.05, GaussianDelayModel())
        async with group:
            await group.burst(10)
            await group.settle()
            return group.counts()

    run_virtual(scenario())
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.api import NodeConfig, create_node
from repro.net import FaultWindow, FaultyTransport, LocalAsyncBus
from repro.net.session import TransportStats
from repro.sim.network import DelayModel
from repro.sim.oracle import CausalityOracle
from repro.util.rng import RandomSource

__all__ = ["Group", "disjoint_keys", "wait_for"]

Config = Union[NodeConfig, Callable[[str], NodeConfig]]


def disjoint_keys(config: NodeConfig) -> Callable[[str], NodeConfig]:
    """``name -> config`` that gives node ``n<i>`` its own K entries
    ``[K·i, K·i + K)``.  Disjoint key sets make the delivery condition
    exact: an oracle violation is then a runtime bug, not the error the
    paper permits."""
    def config_of(name: str) -> NodeConfig:
        start = config.k * int(name[1:])
        return config.replace(keys=tuple(range(start, start + config.k)))

    return config_of


async def wait_for(predicate: Callable[[], bool], timeout: float = 30.0,
                   interval: float = 0.01) -> bool:
    """Poll ``predicate`` every ``interval`` seconds of loop time; False
    if it still fails after ``timeout``."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


class Group:
    """Nodes ``n0``, ``n1``, … on one bus, with a delivery order per name
    and, when judged, an oracle.  ``async with`` closes the live nodes.

    ``config`` is one ``NodeConfig`` or ``name -> NodeConfig``; a
    restart or join reads it again for its name."""

    def __init__(self, bus: LocalAsyncBus, config: Config,
                 oracle: Optional[CausalityOracle] = None) -> None:
        self.bus = bus
        self.config = config
        self.oracle = oracle
        self.nodes: List[Any] = []
        # name -> message ids in delivery order (own broadcasts included),
        # for every name the group ever ran, across incarnations.
        self.order: Dict[str, List[Tuple[str, int]]] = {}
        self.sent = 0
        # name -> broadcasts its join state transfer covered.
        self._covered: Dict[str, int] = {}
        self._cut: List[FaultyTransport] = []

    @classmethod
    async def start(cls, size: int, config: Config, seed: int, loss_rate: float,
                    delay_model: DelayModel, judged=False, split=None, ring=None,
                    duplicate_rate: float = 0.0, capacity=None) -> "Group":
        """Start ``size`` nodes and wire them.

        A config with membership forms the group by joining (give every
        node but the first a seed peer); otherwise every node peers with
        every other, or with its ``ring`` successors only.
        ``split=(start, end)`` drops every datagram between an
        even-numbered and an odd-numbered node for those virtual
        seconds, counted from the moment the group is wired (a restarted
        node is not cut).  ``capacity`` is the oracle's slot count when
        joins will outgrow ``size``."""
        bus = LocalAsyncBus(
            delay_model, rng=RandomSource(seed).spawn("bus"),
            loss_rate=loss_rate, duplicate_rate=duplicate_rate,
        )
        oracle = CausalityOracle(capacity=capacity or size) if judged else None
        group = cls(bus, config, oracle)
        names = [f"n{index}" for index in range(size)]
        for index, name in enumerate(names):
            group._enter(name)
            if judged:
                oracle.register_node(name)
            transport = bus.attach(name)
            if split is not None:
                transport = FaultyTransport(transport, windows=[FaultWindow(
                    *split, drop=True, peers=names[(index + 1) % 2::2]
                )])
                group._cut.append(transport)
            group.nodes.append(await group._create(name, transport))
        for index, node in enumerate(group.nodes):
            if node.membership is None:
                peers = (
                    [names[(index + step) % size] for step in range(1, ring + 1)]
                    if ring else names[:index] + names[index + 1:]
                )
                for peer in peers:
                    node.add_peer(peer)
            while node.membership is not None and len(node.membership.view.members) < size:
                await asyncio.sleep(0.01)
        for transport in group._cut:
            transport.arm()
        return group

    async def __aenter__(self) -> "Group":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await asyncio.gather(*(node.close() for node in self.nodes))

    # ------------------------------------------------------------------
    # nodes coming and going
    # ------------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self.order[name] = []
        self._covered[name] = 0

    async def _create(self, name: str, transport, **create_kwargs):
        loop = asyncio.get_running_loop()
        order = self.order[name]

        def handler(record) -> None:
            message_id = record.message.message_id
            order.append(message_id)
            if record.local:
                self.sent += 1
                if self.oracle is not None:
                    # Every name the group ever ran may deliver it: a
                    # generous fanout only keeps the record longer.
                    self.oracle.on_send(name, message_id, loop.time(),
                                        fanout=len(self.order) - 1)
            elif self.oracle is not None:
                self.oracle.classify_delivery(name, message_id, loop.time())

        config = self.config(name) if callable(self.config) else self.config
        return await create_node(name, config, transport=transport,
                                 on_delivery=handler, **create_kwargs)

    def _add(self, node) -> None:
        """A node that came up mid-run: a mesh node peers with every
        live node (a member found its peers by joining)."""
        if node.membership is None:
            for other in self.nodes:
                node.add_peer(other.node_id)
                other.add_peer(node.node_id)
        self.nodes.append(node)
        # Live nodes stay in the order their names first came up.
        names = list(self.order)
        self.nodes.sort(key=lambda live: names.index(live.node_id))

    def node(self, name: str):
        """The live node called ``name``."""
        for node in self.nodes:
            if node.node_id == name:
                return node
        raise KeyError(name)

    async def crash(self, name: str) -> None:
        """Close ``name`` without a word (no LEAVE).  Its journal, if it
        has a ``data_dir``, stays for :meth:`restart`."""
        node = self.node(name)
        self.nodes.remove(node)
        await node.close()

    async def restart(self, name: str):
        """Bring a crashed ``name`` back over its ``data_dir``: the node
        recovers from its journal, and a member rejoins through its
        seed peers.  Its delivery order continues where it stopped."""
        node = await self._create(name, self.bus.attach(name))
        self._add(node)
        return node

    async def join(self, name: str, **create_kwargs):
        """Add a new node ``name`` mid-run (``create_kwargs`` go to
        ``create_node``, e.g. an ``assigner``).  A member joins through
        its seed peers, or founds the group without any.  The oracle
        seeds the joiner's true clock from the coverage its state
        transfer delivered, and :meth:`settle` expects of it only what
        that coverage left out — exact when nothing was in flight."""
        self._enter(name)
        node = await self._create(name, self.bus.attach(name), **create_kwargs)
        # No delivery reaches the handler before the join completes.
        covered = {
            sender: contiguous
            for sender, (contiguous, _) in node.delivered_frontiers().items()
        }
        self._covered[name] = sum(covered.values())
        if self.oracle is not None:
            knowledge = np.zeros(self.oracle.capacity, dtype=np.int64)
            for sender, count in covered.items():
                knowledge[self.oracle.slot_of(sender)] = count
            self.oracle.register_node(name, initial_knowledge=knowledge)
        self._add(node)
        return node

    async def leave(self, name: str) -> None:
        """``name`` leaves gracefully (a LEAVE burst) and closes."""
        node = self.node(name)
        self.nodes.remove(node)
        await node.membership.leave()
        await node.close()

    # ------------------------------------------------------------------
    # traffic and convergence
    # ------------------------------------------------------------------

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

    def exact_deliveries(self) -> List[int]:
        """Deliveries per live node, own broadcasts and earlier
        incarnations included."""
        return [len(self.order[node.node_id]) for node in self.nodes]

    def _behind(self) -> Dict[str, int]:
        """Broadcasts each live node has yet to deliver."""
        names = [node.node_id for node in self.nodes]
        return {
            name: self.sent - self._covered[name] - len(self.order[name]) for name in names
        }

    async def settle(self, timeout: float = 120.0) -> None:
        """Wait (virtual seconds) until every live node delivered every
        broadcast its coverage did not already hold."""
        async def poll():
            while any(self._behind().values()):
                await asyncio.sleep(0.01)

        try:
            await asyncio.wait_for(poll(), timeout)
        except asyncio.TimeoutError:
            raise AssertionError(
                f"not every node delivered all {self.sent} broadcasts; "
                f"missing: {self._behind()}"
            ) from None

    # ------------------------------------------------------------------
    # what happened
    # ------------------------------------------------------------------

    def wire(self) -> TransportStats:
        total = TransportStats()
        for node in self.nodes:
            total = total.merge(node.transport_stats())
        return total

    def counts(self) -> dict:
        """Every work counter summed over the live nodes: the node's
        ``RepairStats`` fields, wire and endpoint totals, the datagrams
        the split cut, the timers the virtual loop armed (the whole
        loop's, the scenario's own sleeps included), and — when judged —
        the deliveries the oracle could not prove correct."""
        wire = self.wire()
        out = {
            field.name: sum(getattr(node.repair_stats, field.name) for node in self.nodes)
            for field in dataclasses.fields(self.nodes[0].repair_stats)
        }
        out.update(
            digests=wire.digests_sent, retransmits=wire.retransmits, drops=wire.drops,
            datagrams=self.bus.sent,
            standalone_acks=wire.acks_sent - wire.acks_piggybacked,
            cut=sum(transport.window_dropped for transport in self._cut),
            timers=asyncio.get_running_loop().timers_armed,
            sent=sum(node.endpoint.stats.sent for node in self.nodes),
            deliveries=sum(node.endpoint.stats.delivered for node in self.nodes),
            alerts=sum(node.endpoint.stats.alerts for node in self.nodes),
        )
        if self.oracle is not None:
            totals = self.oracle.totals
            out["violations"] = totals.violations + totals.ambiguous
        return out

    def fingerprint(self) -> dict:
        return {
            "order": {
                name: hashlib.sha256(repr(order).encode()).hexdigest()
                for name, order in self.order.items()
            },
            "bus_sent": self.bus.sent,
            "bus_dropped": self.bus.dropped,
            "wire": dataclasses.asdict(self.wire()),
            "state": {str(node.node_id): node.state_sizes() for node in self.nodes},
        }
