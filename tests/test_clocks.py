"""Tests for the (n, r, k) clock family (Algorithms 1 and 2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocks import (
    EntryVectorClock,
    LamportCausalClock,
    PlausibleCausalClock,
    ProbabilisticCausalClock,
    Timestamp,
    VectorCausalClock,
)
from repro.core.errors import ConfigurationError
from repro.core.theory import timestamp_overhead_bits


def make_timestamp(vector, keys, seq=1):
    return Timestamp(
        vector=np.asarray(vector, dtype=np.int64), sender_keys=tuple(keys), seq=seq
    )


class TestTimestamp:
    def test_adjusted_subtracts_one_at_sender_keys(self):
        ts = make_timestamp([2, 3, 1, 0], (0, 1))
        assert list(ts.adjusted) == [1, 2, 1, 0]

    def test_as_tuple(self):
        ts = make_timestamp([1, 0], (0,))
        assert ts.as_tuple() == (1, 0)

    def test_vector_is_read_only_after_prepare_send(self):
        clock = EntryVectorClock(4, (0, 1))
        ts = clock.prepare_send()
        with pytest.raises(ValueError):
            ts.vector[0] = 99

    def test_overhead_bits(self):
        ts = make_timestamp([1] * 100, (0, 1, 2, 3))
        # 100 entries * 32 bits + 4 keys * 7 bits (log2 99 -> 7)
        assert timestamp_overhead_bits(ts.size, len(ts.sender_keys)) == 100 * 32 + 4 * 7

    def test_overhead_bits_scalar_clock(self):
        ts = make_timestamp([5], (0,))
        assert timestamp_overhead_bits(ts.size, len(ts.sender_keys)) == 32

    def test_dominates_on(self):
        big = make_timestamp([3, 3, 0], (0,))
        small = make_timestamp([2, 3, 5], (0,))
        assert big.dominates_on(small, [0, 1])
        assert not big.dominates_on(small, [2])


class TestEntryVectorClockConstruction:
    def test_validates_keys(self):
        with pytest.raises(ConfigurationError):
            EntryVectorClock(4, ())
        with pytest.raises(ConfigurationError):
            EntryVectorClock(4, (4,))
        with pytest.raises(ConfigurationError):
            EntryVectorClock(4, (-1,))
        with pytest.raises(ConfigurationError):
            EntryVectorClock(4, (1, 1))
        with pytest.raises(ConfigurationError):
            EntryVectorClock(0, (0,))

    def test_keys_sorted_and_exposed(self):
        clock = EntryVectorClock(6, (5, 2))
        assert clock.own_keys == (2, 5)
        assert clock.r == 6 and clock.k == 2


class TestAlgorithmOne:
    def test_send_increments_own_entries_only(self):
        clock = EntryVectorClock(4, (0, 1))
        ts = clock.prepare_send()
        assert clock.snapshot() == (1, 1, 0, 0)
        assert ts.as_tuple() == (1, 1, 0, 0)
        assert ts.seq == 1

    def test_consecutive_sends(self):
        clock = EntryVectorClock(4, (1, 3))
        clock.prepare_send()
        ts = clock.prepare_send()
        assert ts.as_tuple() == (0, 2, 0, 2)
        assert ts.seq == 2
        assert clock.send_count == 2

    def test_timestamp_is_a_frozen_copy(self):
        clock = EntryVectorClock(3, (0,))
        ts = clock.prepare_send()
        clock.prepare_send()
        assert ts.as_tuple() == (1, 0, 0)  # unaffected by later sends


class TestAlgorithmTwo:
    def test_first_message_always_deliverable(self):
        sender = EntryVectorClock(4, (0, 1))
        receiver = EntryVectorClock(4, (2, 3))
        ts = sender.prepare_send()
        assert receiver.is_deliverable(ts)

    def test_gap_on_sender_entries_blocks(self):
        sender = EntryVectorClock(4, (0, 1))
        receiver = EntryVectorClock(4, (2, 3))
        sender.prepare_send()  # m1, never received
        ts2 = sender.prepare_send()
        assert not receiver.is_deliverable(ts2)

    def test_gap_on_foreign_entries_blocks(self):
        other = EntryVectorClock(4, (0, 1))
        sender = EntryVectorClock(4, (1, 2))
        receiver = EntryVectorClock(4, (3,))
        m1 = other.prepare_send()
        sender.record_delivery(m1)  # sender saw m1
        m2 = sender.prepare_send()
        # receiver has not seen m1: entry 0 lags.
        assert not receiver.is_deliverable(m2)
        receiver.record_delivery(m1)
        assert receiver.is_deliverable(m2)

    def test_record_delivery_increments_sender_keys(self):
        sender = EntryVectorClock(4, (0, 1))
        receiver = EntryVectorClock(4, (2, 3))
        ts = sender.prepare_send()
        receiver.record_delivery(ts)
        assert receiver.snapshot() == (1, 1, 0, 0)

    def test_lag_measures_total_deficit(self):
        sender = EntryVectorClock(4, (0, 1))
        receiver = EntryVectorClock(4, (2, 3))
        sender.prepare_send()
        sender.prepare_send()
        ts3 = sender.prepare_send()
        # adjusted = [2, 2, 0, 0]; receiver at zeros -> deficit 4.
        assert receiver.lag(ts3) == 4
        assert receiver.lag(sender.prepare_send()) > 0

    def test_size_mismatch_rejected(self):
        clock = EntryVectorClock(4, (0,))
        ts = make_timestamp([1, 0, 0], (0,))
        with pytest.raises(ConfigurationError):
            clock.is_deliverable(ts)
        with pytest.raises(ConfigurationError):
            clock.record_delivery(ts)


class TestInitializeFrom:
    def test_seeds_vector(self):
        clock = EntryVectorClock(4, (0,))
        clock.initialize_from([3, 1, 4, 1])
        assert clock.snapshot() == (3, 1, 4, 1)

    def test_rejects_after_activity(self):
        clock = EntryVectorClock(4, (0,))
        clock.prepare_send()
        with pytest.raises(ConfigurationError):
            clock.initialize_from([0, 0, 0, 0])

    def test_rejects_bad_shape_and_negative(self):
        clock = EntryVectorClock(4, (0,))
        with pytest.raises(ConfigurationError):
            clock.initialize_from([0, 0, 0])
        with pytest.raises(ConfigurationError):
            clock.initialize_from([0, -1, 0, 0])


class TestFamilyMembers:
    def test_probabilistic_is_entry_clock(self):
        clock = ProbabilisticCausalClock(10, (2, 5, 7))
        assert isinstance(clock, EntryVectorClock)
        assert clock.k == 3

    def test_plausible_single_entry(self):
        clock = PlausibleCausalClock(10, 7)
        assert clock.own_keys == (7,)
        assert clock.k == 1

    def test_lamport_single_shared_entry(self):
        clock = LamportCausalClock()
        assert clock.r == 1 and clock.own_keys == (0,)
        ts = clock.prepare_send()
        assert ts.as_tuple() == (1,)

    def test_lamport_delivery_synchronisation(self):
        a, b = LamportCausalClock(), LamportCausalClock()
        a.prepare_send()
        ts2 = a.prepare_send()  # scalar 2
        # b at 0: needs counter >= 1 before delivering ts2.
        assert not b.is_deliverable(ts2)
        b.prepare_send()  # b's own send raises its counter
        assert b.is_deliverable(ts2)

    def test_vector_clock_exactness(self):
        # Three processes, exact entries: classical causal delivery.
        a = VectorCausalClock(3, 0)
        b = VectorCausalClock(3, 1)
        c = VectorCausalClock(3, 2)
        m1 = a.prepare_send()
        b.record_delivery(m1)
        m2 = b.prepare_send()
        assert not c.is_deliverable(m2)  # m1 missing
        c.record_delivery(m1)
        assert c.is_deliverable(m2)

    def test_vector_clock_index_validation(self):
        with pytest.raises(ConfigurationError):
            VectorCausalClock(3, 3)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    r=st.integers(2, 16),
    sends=st.integers(1, 10),
    data=st.data(),
)
def test_fifo_never_blocked_after_predecessor(r, sends, data):
    """Consecutive messages of one sender: delivering message i makes
    message i+1 deliverable (the paper's 'causally ready is never delayed'
    for the single-sender case)."""
    k = data.draw(st.integers(1, r))
    keys = tuple(sorted(data.draw(
        st.sets(st.integers(0, r - 1), min_size=k, max_size=k)
    )))
    sender = EntryVectorClock(r, keys)
    receiver_keys = tuple(sorted(data.draw(
        st.sets(st.integers(0, r - 1), min_size=1, max_size=r)
    )))
    receiver = EntryVectorClock(r, receiver_keys)
    messages = [sender.prepare_send() for _ in range(sends)]
    for ts in messages:
        assert receiver.is_deliverable(ts)
        receiver.record_delivery(ts)


@settings(max_examples=100, deadline=None)
@given(r=st.integers(2, 12), steps=st.integers(1, 30), data=st.data())
def test_local_vector_is_monotone(r, steps, data):
    """No operation ever decreases any entry of the local vector."""
    clock = EntryVectorClock(r, (0,))
    previous = np.asarray(clock.snapshot())
    peers = [EntryVectorClock(r, (data.draw(st.integers(0, r - 1)),)) for _ in range(3)]
    for _ in range(steps):
        action = data.draw(st.integers(0, 1))
        if action == 0:
            clock.prepare_send()
        else:
            peer = peers[data.draw(st.integers(0, 2))]
            clock.record_delivery(peer.prepare_send())
        current = np.asarray(clock.snapshot())
        assert (current >= previous).all()
        previous = current


class TestRekey:
    def test_rekey_changes_future_timestamps_only(self):
        clock = EntryVectorClock(8, (0, 1))
        before = clock.prepare_send()
        previous = clock.rekey((3, 4, 5))
        assert previous == (0, 1)
        assert clock.own_keys == (3, 4, 5)
        after = clock.prepare_send()
        assert before.sender_keys == (0, 1)
        assert after.sender_keys == (3, 4, 5)
        # The vector keeps the old increments and adds the new ones.
        assert after.as_tuple() == (1, 1, 0, 1, 1, 1, 0, 0)

    def test_rekey_validation(self):
        clock = EntryVectorClock(4, (0,))
        with pytest.raises(ConfigurationError):
            clock.rekey(())
        with pytest.raises(ConfigurationError):
            clock.rekey((1, 1))
        with pytest.raises(ConfigurationError):
            clock.rekey((4,))

    def test_messages_across_a_rekey_stay_causally_ordered(self):
        """A receiver holds back the post-switch message until the
        pre-switch one is delivered: condition 2 (non-sender entries)
        covers the old keys' increments."""
        sender = EntryVectorClock(8, (0, 1))
        receiver = EntryVectorClock(8, (6, 7))
        m1 = sender.prepare_send()
        sender.rekey((3, 4))
        m2 = sender.prepare_send()
        # m2's vector still carries m1's increments on the old keys.
        assert not receiver.is_deliverable(m2)
        receiver.record_delivery(m1)
        assert receiver.is_deliverable(m2)
        receiver.record_delivery(m2)
