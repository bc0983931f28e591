"""A network partition, observed and healed — on the shipping node stack.

Eight ``create_node()`` nodes form a full mesh on the in-process bus.
``FaultyTransport`` windows cut the even-numbered nodes from the odd
ones for twenty seconds — longer than the session keeps retrying a
frame — while everybody keeps broadcasting.  The whole run happens in
virtual time (``repro.sim.vtime``): fifty seconds of protocol in a couple
of seconds of wall clock, identical every time.

Printed: progress per phase (each side keeps working during the split),
the backlog that crosses when the cut lifts, who carried it (session
retransmission for the frames still being retried, anti-entropy for the
ones the session had given up), and that nothing is left waiting.  The
same split with anti-entropy switched off strands the given-up frames
and every message that causally follows them.

Run:  python examples/partition_heal.py
"""

import asyncio

from repro import NodeConfig, create_node
from repro.net import FaultWindow, FaultyTransport, LocalAsyncBus
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual
from repro.util.rng import RandomSource

NODES = 8
SPLIT_START, SPLIT_END, HORIZON = 10.0, 30.0, 40.0
SEND_INTERVAL = 1.0  # mean seconds between one node's broadcasts
PHASES = ("before", "during", "after")


async def scenario(anti_entropy_interval: float) -> dict:
    loop = asyncio.get_running_loop()
    names = [f"n{index}" for index in range(NODES)]
    seeds = RandomSource(seed=21)
    bus = LocalAsyncBus(GaussianDelayModel(10.0, 2.0, 2.0), rng=seeds.spawn("bus"))
    config = NodeConfig(r=50, k=3, anti_entropy_interval=anti_entropy_interval)
    deliveries = dict.fromkeys(PHASES, 0)

    def on_delivery(record):
        if not record.local:
            elapsed = loop.time() - origin
            phase = "before" if elapsed < SPLIT_START else (
                "during" if elapsed < SPLIT_END else "after"
            )
            deliveries[phase] += 1

    # Node i's window drops what it sends to the nodes of the other parity.
    transports = [
        FaultyTransport(bus.attach(name), windows=[FaultWindow(
            SPLIT_START, SPLIT_END, drop=True, peers=names[(index + 1) % 2::2]
        )])
        for index, name in enumerate(names)
    ]
    nodes = [
        await create_node(name, config, transport=transport, on_delivery=on_delivery)
        for name, transport in zip(names, transports)
    ]
    for node in nodes:
        for peer in names:
            if peer != node.node_id:
                node.add_peer(peer)
    for transport in transports:
        transport.arm()  # every window counts from this moment
    origin = loop.time()

    async def sender(node):
        rng = seeds.spawn(f"send-{node.node_id}")
        while True:
            await asyncio.sleep(rng.exponential(SEND_INTERVAL))
            if loop.time() - origin >= HORIZON:
                return
            await node.broadcast(f"{node.node_id} at {loop.time() - origin:.2f}")

    try:
        await asyncio.gather(*(sender(node) for node in nodes))
        await asyncio.sleep(10.0)  # many anti-entropy rounds and retransmit timeouts
        sent = sum(node.endpoint.stats.sent for node in nodes)
        wire = [node.transport_stats() for node in nodes]
        return {
            "sent": sent,
            "deliveries": deliveries,
            "missing": sent * (NODES - 1) - sum(deliveries.values()),
            # Waiting for their causal past: pending in the endpoint, or
            # parked deltas whose reference never came.
            "stuck": sum(
                node.endpoint.pending_count + node.state_sizes()["parked_deltas"]
                for node in nodes
            ),
            "cut": sum(transport.window_dropped for transport in transports),
            "given_up": sum(stats.drops for stats in wire),
            "retransmits": sum(stats.retransmits for stats in wire),
            "repairs": sum(node.repair.stats.repairs_sent for node in nodes),
        }
    finally:
        await asyncio.gather(*(node.close() for node in nodes))


def main() -> None:
    print(__doc__)
    healed = run_virtual(scenario(anti_entropy_interval=0.5))
    print(f"broadcasts: {healed['sent']}, datagrams dropped at the cut: {healed['cut']}")
    print("remote deliveries per phase:")
    notes = {"during": " <- split: each side keeps working",
             "after": " <- includes the backlog crossing the healed cut"}
    for phase in PHASES:
        print(f"  {phase:7s} {healed['deliveries'][phase]:6d}{notes.get(phase, '')}")
    print(f"frames the session gave up retrying: {healed['given_up']}")
    print(f"retransmissions: {healed['retransmits']}, "
          f"anti-entropy repairs: {healed['repairs']}")
    print(f"deliveries still missing: {healed['missing']}, "
          f"messages stuck waiting: {healed['stuck']} (both must be 0)")

    stranded = run_virtual(scenario(anti_entropy_interval=0.0))
    print()
    print(f"the same split with anti-entropy off: {stranded['given_up']} frames given "
          f"up, {stranded['missing']} deliveries never made, "
          f"{stranded['stuck']} messages stuck behind them forever")

    assert healed["deliveries"]["during"] > 0  # each side kept working
    assert healed["given_up"] > 0 and healed["repairs"] > 0
    assert healed["missing"] == 0 and healed["stuck"] == 0
    assert stranded["missing"] > 0 and stranded["stuck"] > 0


if __name__ == "__main__":
    main()
