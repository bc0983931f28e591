"""The repair module on its own: digest → answer between two
:class:`~repro.net.repair.Repair` objects on the virtual bus, each
hosted by a stand-in that holds only what the repair path reads of a
node — a session, an endpoint, the park and the live targets.

The answer order and cap, what a mesh answer holds back (ids a link
still owes the asker), the per-address resync limit, the partner
rotation's window bound and the overlay's two lazy-path rules are
checked here without a full node; ``tests/test_anti_entropy.py`` checks
the same machinery inside running groups.
"""

import asyncio

import pytest

import repro.net.repair as repair_module
from repro.api import NodeConfig, create_endpoint
from repro.core.codec import MessageCodec
from repro.net import LocalAsyncBus, PartialView, ReliableSession
from repro.net.repair import _GAP_PULL_GRACE, _RESYNC_INTERVAL, Repair
from repro.sim.network import ConstantDelayModel
from repro.sim.vtime import run_virtual

CODEC = MessageCodec()


class Host:
    """The slice of a node the repair path reads."""

    def __init__(self, bus, name, peers=(), overlay=False):
        self.node_id = name
        self._codec = MessageCodec()
        self.endpoint = create_endpoint(name, NodeConfig(r=16, keys=(7, 8, 9)))
        self.overlay = PartialView(name) if overlay else None
        self._peers = list(peers)
        for peer in peers:
            if self.overlay is not None:
                self.overlay.add(peer)
        self._parked = {}
        self.repair = Repair(self, interval=0)
        self.received = []
        self.session = ReliableSession(
            bus.attach(name),
            on_message=self._on_message,
            on_digest=self.repair.answer,
        )

    def _now(self):
        return asyncio.get_running_loop().time()

    def _sender_in_view(self, sender):
        return True

    def _live(self, address):
        return True

    def _live_targets(self):
        if self.overlay is not None:
            return self.overlay.digest_targets()
        return list(self._peers)

    def _on_message(self, data, addr):
        message = CODEC.decode(data)
        self.received.append(message.message_id)
        self.admit(message)

    def admit(self, message):
        """What the node's intake does with a new message: the endpoint
        sees it, the store keeps its body."""
        self.endpoint.on_receive(message)
        self.repair.store.add(
            message.sender, message.seq, CODEC.encode(message), message.timestamp
        )


def broadcasts(count):
    """``count`` broadcasts from each of two origins, interleaved x, y."""
    origins = [
        create_endpoint(name, NodeConfig(r=16, keys=keys))
        for name, keys in (("x", (1, 2, 3)), ("y", (4, 5, 6)))
    ]
    return [origin.broadcast(index) for index in range(count) for origin in origins]


def digests_sent(host, address):
    return host.session.stats_for(address).digests_sent


@pytest.mark.parametrize("cap", [3, 5, 64])
def test_answers_come_in_admission_order_up_to_the_cap(monkeypatch, cap):
    monkeypatch.setattr(repair_module, "_REPAIRS_PER_DIGEST", cap)
    messages = broadcasts(10)
    # Admitted out of seq order across senders: y's before x's, each
    # sender's own in order (the only order a causal intake allows).
    admitted = [m for m in messages if m.sender == "y"] + [m for m in messages if m.sender == "x"]

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        holder, asker = Host(bus, "a", peers=["b"]), Host(bus, "b", peers=["a"])
        for message in admitted:
            holder.admit(message)
        asker.admit(admitted[0])  # the asker's digest covers y1
        for session in (holder.session, asker.session):
            session.start()
        await asker.repair.heal("a")
        await asyncio.sleep(0.5)
        rounds = [list(asker.received)]
        await asker.repair.heal("a")  # the next digest picks up the rest
        await asyncio.sleep(0.5)
        rounds.append(asker.received[len(rounds[0]):])
        for host in (holder, asker):
            await host.session.close()
        return rounds, holder.repair.stats.repairs_sent

    (first, second), sent = run_virtual(scenario())
    owed = [m.message_id for m in admitted[1:]]
    assert first == owed[:cap]
    assert second == owed[cap:2 * cap]
    assert sent == len(first) + len(second)


def lose_first(deliver, lost):
    """``deliver`` with its first call caught in ``lost`` instead."""
    def wrapped(data, addr):
        if lost:
            deliver(data, addr)
        else:
            lost.append(data)
    return wrapped


def own_broadcast(host):
    """``host``'s own broadcast, stored as the node's broadcast() does;
    returns its full encoding."""
    message = host.endpoint.broadcast("own")
    body = CODEC.encode(message)
    host.repair.store.add(host.node_id, message.seq, body, message.timestamp)
    return message, body


def test_an_own_message_unacked_on_the_link_is_held_back():
    """The datagram carrying a's own message to b is lost: while its
    frame waits unacked, b's digest lacking it draws no repair — a's
    session retransmits it, and b takes it once."""

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        holder, asker = Host(bus, "a", peers=["b"]), Host(bus, "b", peers=["a"])
        lost = []
        bus._receivers["b"] = lose_first(bus._receivers["b"], lost)  # before b's session
        for session in (holder.session, asker.session):
            session.start()
        message, body = own_broadcast(holder)
        await holder.session.send("b", body)
        await asyncio.sleep(0.005)
        unacked = holder.session.unacked_count("b")
        await asker.repair.heal("a")
        await asyncio.sleep(0.5)
        for host in (holder, asker):
            await host.session.close()
        return message, unacked, len(lost), asker.received, holder.repair.stats.repairs_sent

    message, unacked, lost, received, repairs = run_virtual(scenario())
    assert (unacked, lost) == (1, 1)
    assert received == [message.message_id]
    assert repairs == 0


def test_an_own_message_acked_then_lost_at_intake_is_served():
    """b's session acks a's frame but b's intake loses the message: no
    link owes it any more, so b's digest draws it as a repair."""

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        holder, asker = Host(bus, "a", peers=["b"]), Host(bus, "b", peers=["a"])
        lost = []
        asker.session._on_message = lose_first(asker.session._on_message, lost)  # after it acked
        for session in (holder.session, asker.session):
            session.start()
        message, body = own_broadcast(holder)
        await holder.session.send("b", body)
        await asyncio.sleep(0.05)
        unacked = holder.session.unacked_count("b")
        await asker.repair.heal("a")
        await asyncio.sleep(0.5)
        for host in (holder, asker):
            await host.session.close()
        return message, unacked, len(lost), asker.received, holder.repair.stats.repairs_sent

    message, unacked, lost, received, repairs = run_virtual(scenario())
    assert (unacked, lost) == (0, 1)
    assert received == [message.message_id]
    assert repairs == 1


def test_another_origins_message_inside_the_grace_waits_for_the_next_digest():
    """a admitted x's message off x's link just now: b's digest lacking
    it draws nothing (x's link to b carries it too); b's next digest,
    two graces on, draws it."""
    message = next(m for m in broadcasts(1) if m.sender == "x")

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        holder, asker = Host(bus, "a", peers=["b", "x"]), Host(bus, "b", peers=["a", "x"])
        for session in (holder.session, asker.session):
            session.start()
        holder.admit(message)
        holder.repair.data_admitted(CODEC.encode(message), "x")
        await asker.repair.heal("a")
        await asyncio.sleep(0.01)
        early = list(asker.received)
        await asyncio.sleep(2 * _GAP_PULL_GRACE)
        await asker.repair.heal("a")
        await asyncio.sleep(0.01)
        late = asker.received[len(early):]
        for host in (holder, asker):
            await host.session.close()
        return early, late

    early, late = run_virtual(scenario())
    assert early == []
    assert late == [message.message_id]


def test_the_resync_limit_holds_per_address():
    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        node = Host(bus, "n", peers=["p", "q"])
        for peer in ("p", "q"):
            bus.attach(peer).set_receiver(lambda data, addr: None)
        node.session.start()
        answers = [node.repair.request("p") for _ in range(5)]
        answers.append(node.repair.request("q"))
        await asyncio.sleep(0)
        sent = digests_sent(node, "p"), digests_sent(node, "q")
        await asyncio.sleep(_RESYNC_INTERVAL)
        answers.append(node.repair.request("p"))
        await asyncio.sleep(0)
        sent += (digests_sent(node, "p"),)
        # Unpaced (a liveness resume) is not limited.
        answers.append(node.repair.request("p", paced=False))
        await asyncio.sleep(0)
        sent += (digests_sent(node, "p"),)
        await node.session.close()
        return answers, sent

    answers, sent = run_virtual(scenario())
    assert answers == [True, False, False, False, False, True, True, True]
    assert sent == (1, 1, 2, 3)


def test_a_resync_at_an_address_that_cannot_be_digested_goes_to_the_next_partner():
    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        node = Host(bus, "n", peers=["p"])
        bus.attach("p").set_receiver(lambda data, addr: None)
        node.session.start()
        sent = node.repair.request("stranger")
        await asyncio.sleep(0)
        result = sent, digests_sent(node, "p"), node.repair.stats.resync_fallbacks
        await node.session.close()
        return result, set(node.session.all_stats())

    (sent, to_partner, fallbacks), known = run_virtual(scenario())
    assert (sent, to_partner, fallbacks) == (True, 1, 1)
    assert "stranger" not in known


@pytest.mark.parametrize("count", [1, 2, 5, 9])
def test_the_rotation_visits_every_target_once_per_len_targets_rounds(count):
    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        node = Host(bus, "n")
        assert node.repair.next_partner() is None
        node._peers = [f"p{index}" for index in range(count)]
        return node._peers, [node.repair.next_partner() for _ in range(5 * count)]

    targets, visits = run_virtual(scenario())
    for start in range(len(visits) - count + 1):
        assert sorted(visits[start:start + count]) == targets, visits


def test_a_digest_is_answered_as_covering_the_last_graces_pushes():
    """Lazy-path rule one: what this node pushed in the last grace is on
    its way down the trees, so a digest lacking it is not answered with
    it; a grace later it is."""
    messages = [m for m in broadcasts(4) if m.sender == "x"]

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        holder = Host(bus, "a", peers=["b"], overlay=True)
        asker = Host(bus, "b", peers=["a"], overlay=True)
        for message in messages:
            holder.admit(message)
            holder.repair.note_push(message.sender, message.seq)
        for session in (holder.session, asker.session):
            session.start()
        await asker.repair.heal("a")
        await asyncio.sleep(0.01)
        early = list(asker.received)
        await asyncio.sleep(_GAP_PULL_GRACE)
        await asker.repair.heal("a")
        await asyncio.sleep(0.01)
        late = asker.received[len(early):]
        for host in (holder, asker):
            await host.session.close()
        return early, late

    early, late = run_virtual(scenario())
    assert early == []
    assert late == [m.message_id for m in messages]


def test_a_repair_is_passed_on_to_the_digests_that_lacked_it():
    """Lazy-path rule two: a repair that lands within a grace of a digest
    lacking it goes on to that digest's sender — never back to the
    repairer, never to a digest that covered it — and not once the
    digest is a grace old."""
    first, second = [m for m in broadcasts(2) if m.sender == "x"]

    async def scenario():
        bus = LocalAsyncBus(delay_model=ConstantDelayModel(1.0))
        middle = Host(bus, "m", peers=["b", "c", "d"], overlay=True)
        askers = {name: Host(bus, name, peers=["m"], overlay=True) for name in ("b", "c", "d")}
        askers["c"].admit(first)  # c's digest already covers x1
        for host in (middle, *askers.values()):
            host.session.start()
        for asker in askers.values():
            await asker.repair.heal("m")
        await asyncio.sleep(0.005)
        middle.admit(first)
        middle.repair.data_admitted(CODEC.encode(first), "d")  # d repaired it
        await asyncio.sleep(_GAP_PULL_GRACE)
        middle.admit(second)
        middle.repair.data_admitted(CODEC.encode(second), "d")  # the digests are a grace old
        await asyncio.sleep(0.01)
        received = {name: list(asker.received) for name, asker in askers.items()}
        passed = middle.repair.stats.repairs_sent
        for host in (middle, *askers.values()):
            await host.session.close()
        return received, passed

    received, passed = run_virtual(scenario())
    assert received == {"b": [first.message_id], "c": [], "d": []}
    assert passed == 1
