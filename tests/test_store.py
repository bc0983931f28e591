"""Differential test: the store that keeps bodies as they arrived serves
exactly what a store of full forms would.

:class:`~repro.net.node.MessageStore` holds each message as it came off
the wire — a delta against the sender's previous message when that is
held, else the full form — and builds the full form only when a repair
(or :meth:`~repro.net.node.MessageStore.get`) asks for it.
``FullFormStore`` below is the reference: the same admission-order
eviction, evicted marks and digest answers, over the full encoding of
every message.  Both are driven through the same random intake —
in-order deltas, out-of-order fulls, late deltas, evictions under a
small ``_STORE_LIMIT``, purges, adopted coverage, re-stocked ids,
far-ahead seqs and epoch bumps — and must agree byte for byte: every
full form the store rebuilds around a delta, which carries no epoch, is
the sender's.
"""

from collections import deque
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocks import Timestamp
from repro.core.codec import MessageCodec
from repro.core.pending import SeenFilter
from repro.core.protocol import Message
from repro.net import repair as repair_module
from repro.net.repair import MessageStore, StoreStats

R = 8
FAR = 10**12


class FullFormStore:
    """What the store kept before bodies were stored as they arrived:
    every message's full encoding under a ``(sender, seq)`` key, in one
    admission-order deque."""

    def __init__(self, coverage):
        self._data = {}
        self._order = deque()
        self._coverage = coverage
        self._evicted_high = {}
        self.stats = StoreStats()

    def __len__(self):
        return len(self._data)

    def add(self, sender, seq, full):
        self._data[(sender, seq)] = full
        self._order.append((sender, seq))
        while len(self._data) > repair_module._STORE_LIMIT:
            evicted = self._order.popleft()
            del self._data[evicted]
            self.stats.evictions += 1
            if evicted[1] > self._evicted_high.get(evicted[0], 0):
                self._evicted_high[evicted[0]] = evicted[1]

    def get(self, sender, seq):
        return self._data.get((sender, seq))

    def missing_for(self, remote):
        for sender, high in self._evicted_high.items():
            if remote.get(sender, (0, ()))[0] < high:
                self.stats.unservable_requests += 1
                break
        behind = {
            sender
            for sender, (contiguous, extras) in self._coverage.frontiers().items()
            if remote.get(sender, (0, ()))[0] < max((contiguous, *extras))
        }
        served = 0
        for sender, seq in self._order:
            if sender not in behind:
                continue
            if served >= repair_module._REPAIRS_PER_DIGEST:
                return
            contiguous, extras = remote.get(sender, (0, ()))
            if seq <= contiguous or seq in extras:
                continue
            served += 1
            yield self._data[(sender, seq)]

    def mark_evicted(self, frontiers):
        for sender, (contiguous, extras) in frontiers.items():
            high = max((contiguous, *extras))
            if high > 0:
                self._evicted_high[sender] = high

    def restore_message(self, sender, seq, full):
        if (sender, seq) in self._data:
            return
        self._data[(sender, seq)] = full
        self._order.append((sender, seq))
        high = self._evicted_high.get(sender, 0)
        while (sender, high) in self._data:
            high -= 1
        if high:
            self._evicted_high[sender] = high
        else:
            self._evicted_high.pop(sender, None)

    def purge_sender(self, sender):
        dropped = [key for key in self._data if key[0] == sender]
        for key in dropped:
            del self._data[key]
        self._order = deque(key for key in self._order if key[0] != sender)
        self._evicted_high.pop(sender, None)
        return len(dropped)


def message(sender, seq, vector, keys):
    vector = np.asarray(vector, dtype=np.int64)
    vector.flags.writeable = False
    timestamp = Timestamp(vector=vector, sender_keys=keys, seq=seq)
    return Message(sender=sender, seq=seq, timestamp=timestamp, payload=[sender, seq])


@st.composite
def histories(draw):
    """Per sender, its messages in seq order: ``(message, full, delta)``,
    ``delta`` None where the sender's keys or epoch changed (it sends
    that one full, as a re-keyed node or one that installed a new epoch
    does), ``full`` encoded under the sender's epoch."""
    out = {}
    for sender in ("a", "b", "c")[: draw(st.integers(1, 3))]:
        keys = tuple(sorted(draw(st.sets(st.integers(0, R - 1), min_size=1, max_size=2))))
        vector = np.zeros(R, dtype=np.int64)
        codec = MessageCodec(epoch=draw(st.integers(0, 2)))
        messages = []
        for seq in range(1, draw(st.integers(1, 14)) + 1):
            previous = vector.copy()
            rekey = seq > 1 and draw(st.integers(0, 9)) == 0
            if rekey:
                keys = tuple(sorted(draw(st.sets(st.integers(0, R - 1), min_size=1, max_size=2))))
            bump = seq > 1 and draw(st.integers(0, 7)) == 0
            if bump:
                codec.epoch += 1
            vector[list(keys)] += 1
            for index in draw(st.lists(st.integers(0, R - 1), max_size=3)):
                vector[index] += draw(st.integers(1, 300))
            sent = message(sender, seq, vector.copy(), keys)
            delta = None if seq == 1 or rekey or bump else codec.encode_delta(sent, previous)
            messages.append((sent, codec.encode(sent), delta))
        out[sender] = messages
    return out


class Rig:
    """One seen filter read by both stores, fed as a node's intake
    feeds its store: the filter takes each id, the stores a new one."""

    def __init__(self, history):
        self.history = history
        self.seen = SeenFilter()
        self.store = MessageStore(self.seen)
        self.model = FullFormStore(self.seen)
        self.extra = {}  # far-ahead (sender, seq) -> full

    def admit(self, sender, seq, delta_form):
        sent, full, delta = self.history[sender][seq - 1]
        if not self.seen.add((sender, seq)):
            return
        body = delta if delta_form and delta is not None else full
        # A delta's epoch is that of its chain's full form: the one the
        # sender stamped on this message's full form too.
        self.store.add(sender, seq, body, sent.timestamp, MessageCodec.epoch_of(full))
        self.model.add(sender, seq, full)

    def admit_far(self, sender, offset):
        seq = FAR + offset
        if not self.seen.add((sender, seq)):
            return
        sent = message(sender, seq, np.full(R, FAR), (0,))
        full = MessageCodec().encode(sent)
        self.extra[(sender, seq)] = full
        self.store.add(sender, seq, full, sent.timestamp, MessageCodec.epoch_of(full))
        self.model.add(sender, seq, full)

    def restore(self, sender, seq):
        if (sender, seq) in self.seen:
            full = self.history[sender][seq - 1][1]
            self.store.restore_message(sender, seq, full)
            self.model.restore_message(sender, seq, full)

    def ids(self):
        for sender, messages in self.history.items():
            for seq in range(1, len(messages) + 1):
                yield sender, seq
        yield from self.extra

    def check(self, remotes):
        store, model = self.store, self.model
        assert len(store) == len(model)
        for sender, seq in self.ids():
            assert store.get(sender, seq) == model.get(sender, seq), (sender, seq)
            reference = store.reference(sender, seq)
            full = model.get(sender, seq)
            if full is None:
                assert reference is None
            else:
                timestamp = MessageCodec().decode(full).timestamp
                assert reference[0] == seq
                assert reference[1].tolist() == timestamp.vector.tolist()
                assert reference[2] == timestamp.sender_keys
                assert reference[3] == MessageCodec.epoch_of(full)
        for remote in remotes:
            assert list(store.missing_for(remote)) == list(model.missing_for(remote))
        assert store.stats == model.stats
        # What the store holds is bounded by the messages it holds: a
        # body each, and at most one floor below each held body.
        assert len(store._data) == len(store._order) == len(store)
        assert len(store._floors) <= len(store)


remotes = st.lists(
    st.dictionaries(
        st.sampled_from(("a", "b", "c")),
        st.tuples(st.integers(0, 15), st.frozensets(st.integers(1, 16)).map(tuple)),
        max_size=3,
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(history=histories(), limit=st.integers(1, 12), cap=st.integers(1, 6), data=st.data())
def test_bodies_as_received_serve_what_full_forms_would(history, limit, cap, data):
    with mock.patch.object(repair_module, "_STORE_LIMIT", limit), mock.patch.object(
        repair_module, "_REPAIRS_PER_DIGEST", cap
    ):
        rig = Rig(history)
        # The intake order: each sender's messages in seq order,
        # interleaved, with a few pulled ahead of their predecessors.
        arrivals = [
            (sender, seq)
            for seq in range(1, max(len(m) for m in history.values()) + 1)
            for sender in history
            if seq <= len(history[sender])
        ]
        for _ in range(data.draw(st.integers(0, 4))):
            index = data.draw(st.integers(0, len(arrivals) - 1))
            arrivals.insert(data.draw(st.integers(0, index)), arrivals.pop(index))
        senders = sorted(history)
        for sender, seq in arrivals:
            rig.admit(sender, seq, data.draw(st.integers(0, 4)) > 0)
            event = data.draw(st.integers(0, 19))
            if event == 0:
                assert rig.store.purge_sender(sender) == rig.model.purge_sender(sender)
            elif event == 1:
                target = data.draw(st.sampled_from(senders))
                rig.restore(target, data.draw(st.integers(1, len(history[target]))))
            elif event == 2:
                adopted = data.draw(remotes)[0]
                rig.store.mark_evicted(adopted)
                rig.model.mark_evicted(adopted)
            elif event == 3:
                rig.admit_far(sender, data.draw(st.integers(0, 2)))
            elif event == 4:
                # A duplicate: the filter turns it away before the store.
                rig.admit(sender, seq, True)
            rig.check(data.draw(remotes))


def test_a_far_ahead_seq_costs_one_entry():
    """A forged (or merely early) seq far beyond the sender's others is
    one more body, and no walk steps across the distance to it: nothing
    in the store is indexed, or iterated, by seq distance."""
    codec = MessageCodec()
    seen = SeenFilter()
    store = MessageStore(seen)
    sent, previous = [], None
    for seq in (1, 2, 3, FAR, FAR + 1):
        vector = np.full(R, seq) if seq >= FAR else np.array([seq] + [0] * (R - 1))
        sent.append(message("a", seq, vector, (0,)))
        if previous is None or previous.seq != seq - 1:
            body = codec.encode(sent[-1])
        else:
            body = codec.encode_delta(sent[-1], previous.timestamp.vector)
        previous = sent[-1]
        seen.add(("a", seq))
        store.add("a", seq, body, previous.timestamp)
    assert len(store._data) == len(store._order) == 5 and not store._floors
    assert MessageCodec.is_delta(store._data[store._key("a", FAR + 1)])
    for message_sent in sent:
        assert store.get("a", message_sent.seq) == codec.encode(message_sent)
