"""Tests for the anti-entropy recovery substrate."""

import pytest

from repro.core.clocks import ProbabilisticCausalClock
from repro.core.errors import ConfigurationError
from repro.core.protocol import CausalBroadcastEndpoint
from repro.crdt.log import AntiEntropySession, DeliveryLog, diff_logs


def make_messages(count, sender="s"):
    endpoint = CausalBroadcastEndpoint(
        process_id=sender, clock=ProbabilisticCausalClock(4, (0,))
    )
    return [endpoint.broadcast(f"{sender}-{i}") for i in range(count)]


class TestDeliveryLog:
    def test_records_in_order(self):
        log = DeliveryLog()
        messages = make_messages(3)
        for message in messages:
            log.record(message)
        assert log.messages() == messages
        assert len(log) == 3

    def test_duplicates_ignored(self):
        log = DeliveryLog()
        (message,) = make_messages(1)
        log.record(message)
        log.record(message)
        assert len(log) == 1

    def test_bounded_window_evicts_oldest(self):
        log = DeliveryLog(max_entries=2)
        messages = make_messages(4)
        for message in messages:
            log.record(message)
        assert log.messages() == messages[2:]
        assert log.evicted == 2

    def test_membership_and_get(self):
        log = DeliveryLog()
        (message,) = make_messages(1)
        log.record(message)
        assert message.message_id in log
        assert log.get(message.message_id) is message
        assert log.get(("ghost", 1)) is None

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DeliveryLog(max_entries=0)


class TestDiffLogs:
    def test_symmetric_difference(self):
        messages = make_messages(4)
        first, second = DeliveryLog(), DeliveryLog()
        for message in messages[:3]:
            first.record(message)
        for message in messages[1:]:
            second.record(message)
        missing_in_first, missing_in_second = diff_logs(first, second)
        assert [m.payload for m in missing_in_first] == ["s-3"]
        assert [m.payload for m in missing_in_second] == ["s-0"]

    def test_identical_logs(self):
        messages = make_messages(2)
        first, second = DeliveryLog(), DeliveryLog()
        for message in messages:
            first.record(message)
            second.record(message)
        assert diff_logs(first, second) == ([], [])


class TestAntiEntropySession:
    def test_reconcile_repairs_both_sides(self):
        messages = make_messages(4)
        first, second = DeliveryLog(), DeliveryLog()
        for message in messages[:2]:
            first.record(message)
        for message in messages[2:]:
            second.record(message)

        applied_first, applied_second = [], []
        session = AntiEntropySession(applied_first.append, applied_second.append)
        repaired = session.reconcile(first, second)
        assert repaired == 4
        assert [m.payload for m in applied_first] == ["s-2", "s-3"]
        assert [m.payload for m in applied_second] == ["s-0", "s-1"]
        assert first.ids() == second.ids()

    def test_replay_in_sender_sequence_order(self):
        messages = make_messages(5)
        first, second = DeliveryLog(), DeliveryLog()
        # second holds them in scrambled delivery order.
        for message in (messages[3], messages[0], messages[4]):
            second.record(message)
        applied = []
        session = AntiEntropySession(applied.append, lambda m: None)
        session.reconcile(first, second)
        assert [m.seq for m in applied] == sorted(m.seq for m in applied)

    def test_noop_when_converged(self):
        first, second = DeliveryLog(), DeliveryLog()
        session = AntiEntropySession(lambda m: None, lambda m: None)
        assert session.reconcile(first, second) == 0
