"""A causal group chat over real (and deliberately lossy) UDP sockets.

The deployment path end-to-end, assembled entirely by the
:mod:`repro.api` factory: three chat participants, each one a
``create_node()`` call, exchange messages through the binary wire codec
over loopback UDP.  A fault injector drops 25% of all datagrams and
duplicates another 10% — the reliable session (acks + NACK-driven
retransmission) and the periodic anti-entropy exchange recover every
loss, and the (R, K) ordering layer keeps the causal chains intact:
"re: ..." never appears before the message it answers, at any
participant.

Run:  python examples/async_chat.py
"""

import asyncio

from repro.api import NodeConfig, RetransmitPolicy, create_node
from repro.net import FaultyTransport, UdpTransport
from repro.util.rng import RandomSource

NAMES = ["ana", "ben", "chloé"]
CONFIG = NodeConfig(
    r=64,
    k=3,
    detector="basic",
    # aggressive: loopback RTT is tiny
    retransmit=RetransmitPolicy(initial_timeout=0.02),
    anti_entropy_interval=0.1,
)
DROP_RATE, DUPLICATE_RATE = 0.25, 0.10


async def build_room():
    nodes = {}
    for index, name in enumerate(NAMES):
        transport = FaultyTransport(
            await UdpTransport.create(),
            drop_rate=DROP_RATE,
            duplicate_rate=DUPLICATE_RATE,
            rng=RandomSource(seed=40 + index).spawn("chat-faults"),
        )
        transcript = []

        def on_delivery(record, transcript=transcript):
            transcript.append(f"{record.message.sender}: {record.message.payload}")

        node = await create_node(
            name, CONFIG, transport=transport, on_delivery=on_delivery
        )
        node.transcript = transcript
        nodes[name] = node
    for name, node in nodes.items():
        for other in NAMES:
            if other != name:
                node.add_peer(nodes[other].local_address)
    return nodes


async def settle(nodes, expected, timeout=10.0):
    """Wait until every node's transcript reaches the expected length."""
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if all(len(node.transcript) >= expected for node in nodes.values()):
            return
        await asyncio.sleep(0.01)
    raise TimeoutError("chat did not converge in time")


async def conversation():
    nodes = await build_room()
    ana, ben, chloe = (nodes[name] for name in NAMES)

    await ana.broadcast("anyone up for lunch?")
    await settle(nodes, 1)
    await ben.broadcast("re: lunch — yes! the usual place?")
    await chloe.broadcast("I brought my own today")  # concurrent with ben's
    await settle(nodes, 3)
    await ana.broadcast("re: usual place — see you at noon")
    await settle(nodes, 4)

    print(__doc__)
    for name in NAMES:
        print(f"--- transcript at {name} ---")
        for line in nodes[name].transcript:
            print(f"  {line}")
        print()

    # The causal chains hold at every participant.
    for name in NAMES:
        transcript = nodes[name].transcript
        lunch = next(i for i, l in enumerate(transcript) if "anyone up" in l)
        reply = next(i for i, l in enumerate(transcript) if "the usual place?" in l)
        confirm = next(i for i, l in enumerate(transcript) if "see you at noon" in l)
        assert lunch < reply < confirm, f"causal order broken at {name}"
    print("causal chains intact at every participant "
          "(question < reply < confirmation)")

    total = nodes["ana"].transport_stats()
    for name in ("ben", "chloé"):
        total = total.merge(nodes[name].transport_stats())
    dropped = sum(node.transport.dropped for node in nodes.values())
    print(f"the wire dropped {dropped} datagrams; the runtime answered with "
          f"{total.retransmits} retransmissions, {total.nacks_sent} NACKs and "
          f"{total.digests_sent} anti-entropy digests")

    for node in nodes.values():
        await node.close()


if __name__ == "__main__":
    asyncio.run(conversation())
