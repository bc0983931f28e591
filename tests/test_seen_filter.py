"""Tests for the watermark + sparse-tail duplicate filter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clocks import ProbabilisticCausalClock
from repro.core.errors import ConfigurationError
from repro.core.pending import SeenFilter
from repro.core.protocol import CausalBroadcastEndpoint


class TestBasics:
    def test_empty(self):
        f = SeenFilter()
        assert ("a", 1) not in f
        assert len(f) == 0
        assert f.frontiers() == {}
        assert f.tail_size == 0
        assert f.watermark("a") == 0

    def test_in_order_adds_advance_watermark_only(self):
        f = SeenFilter()
        for seq in range(1, 6):
            assert f.add(("a", seq))
        assert f.watermark("a") == 5
        assert f.tail_size == 0
        assert len(f) == 5
        assert all(("a", seq) in f for seq in range(1, 6))
        assert ("a", 6) not in f

    def test_duplicate_below_watermark_rejected(self):
        f = SeenFilter()
        f.add(("a", 1))
        f.add(("a", 2))
        assert not f.add(("a", 1))
        assert not f.add(("a", 2))
        assert len(f) == 2

    def test_gap_goes_to_tail(self):
        f = SeenFilter()
        f.add(("a", 1))
        assert f.add(("a", 3))
        assert f.watermark("a") == 1
        assert f.tail_size == 1
        assert ("a", 3) in f
        assert ("a", 2) not in f
        assert not f.add(("a", 3))  # tail duplicate

    def test_gap_fill_merges_tail_into_watermark(self):
        f = SeenFilter()
        for seq in (1, 3, 4, 6):
            f.add(("a", seq))
        assert f.watermark("a") == 1 and f.tail_size == 3
        f.add(("a", 2))  # fills the gap: 2,3,4 collapse; 6 stays sparse
        assert f.watermark("a") == 4
        assert f.tail_size == 1
        f.add(("a", 5))
        assert f.watermark("a") == 6
        assert f.tail_size == 0

    def test_senders_independent(self):
        f = SeenFilter()
        f.add(("a", 1))
        f.add(("b", 5))
        assert f.watermark("a") == 1
        assert f.watermark("b") == 0
        assert list(f.frontiers()) == ["a", "b"]
        assert ("b", 1) not in f

    def test_nonpositive_seq_rejected(self):
        f = SeenFilter()
        with pytest.raises(ConfigurationError):
            f.add(("a", 0))


class TestFrontiers:
    def test_frontier_shape(self):
        f = SeenFilter()
        for seq in (1, 2, 5, 7):
            f.add(("a", seq))
        f.add(("b", 1))
        assert f.frontiers() == {"a": (2, (5, 7)), "b": (1, ())}

    def test_restore_round_trip(self):
        f = SeenFilter()
        for sender, seq in [("a", 1), ("a", 2), ("a", 9), ("b", 4)]:
            f.add((sender, seq))
        g = SeenFilter()
        g.restore(f.frontiers())
        assert g.frontiers() == f.frontiers()
        assert len(g) == len(f)
        # coverage behaves identically after restore
        assert not g.add(("a", 2))
        assert not g.add(("a", 9))
        assert g.add(("a", 3))

    def test_restore_requires_empty_filter(self):
        f = SeenFilter()
        f.add(("a", 1))
        with pytest.raises(ConfigurationError):
            f.restore({"a": (1, ())})

    def test_restore_rejects_tail_overlapping_watermark(self):
        f = SeenFilter()
        with pytest.raises(ConfigurationError):
            f.restore({"a": (3, (2,))})

    def test_restore_rejects_negative_watermark(self):
        f = SeenFilter()
        with pytest.raises(ConfigurationError):
            f.restore({"a": (-1, ())})

    def test_rejected_restore_adopts_nothing(self):
        f = SeenFilter()
        with pytest.raises(ConfigurationError):
            f.restore({"a": (4, (6,)), "b": (3, (2,))})
        assert f.frontiers() == {} and ("a", 1) not in f

    def test_restore_compacts_a_tail_touching_the_watermark(self):
        f = SeenFilter()
        f.restore({"a": (2, (3, 4, 6))})
        assert f.frontiers() == {"a": (4, (6,))}

    def test_senders_reported_in_first_seen_order(self):
        # Journal snapshots write this dict as is: the order is part of
        # their byte-for-byte format.
        f = SeenFilter()
        for message_id in [("z", 2), ("m", 1), ("a", 1), ("z", 1)]:
            f.add(message_id)
        assert list(f.frontiers()) == ["z", "m", "a"]
        g = SeenFilter()
        g.restore(f.frontiers())
        assert list(g.frontiers()) == ["z", "m", "a"]


@settings(max_examples=200, deadline=None)
@given(
    seqs=st.lists(
        st.tuples(st.sampled_from("abc"), st.integers(1, 40)),
        min_size=0,
        max_size=120,
    )
)
def test_matches_reference_set(seqs):
    """The filter is observationally a set of (sender, seq) ids."""
    f = SeenFilter()
    reference = set()
    for message_id in seqs:
        assert f.add(message_id) == (message_id not in reference)
        reference.add(message_id)
        assert message_id in f
    assert len(f) == len(reference)
    # every id the reference holds is covered; neighbours outside it are not
    for message_id in reference:
        assert message_id in f
    for sender in "abc":
        for seq in range(1, 42):
            assert ((sender, seq) in f) == ((sender, seq) in reference)
    # round-trip through the frontier representation preserves coverage
    g = SeenFilter()
    g.restore(f.frontiers())
    assert g.frontiers() == f.frontiers()


class TestEndpointIntegration:
    def test_endpoint_restore_seen_skips_recovered_range(self):
        a = CausalBroadcastEndpoint("a", ProbabilisticCausalClock(6, (0, 1)))
        b = CausalBroadcastEndpoint("b", ProbabilisticCausalClock(6, (2, 3)))
        messages = [a.broadcast(i) for i in range(3)]
        for message in messages:
            b.on_receive(message)
        frontiers = b.seen_frontiers()
        assert frontiers["a"][0] == 3

        fresh = CausalBroadcastEndpoint("b2", ProbabilisticCausalClock(6, (2, 3)))
        fresh.restore_seen(frontiers)
        # recovered ids are duplicates now, without any mark_seen replay
        assert fresh.on_receive(messages[0]) == []
        assert fresh.stats.duplicates == 1

    def test_endpoint_restore_seen_after_traffic_rejected(self):
        a = CausalBroadcastEndpoint("a", ProbabilisticCausalClock(6, (0, 1)))
        b = CausalBroadcastEndpoint("b", ProbabilisticCausalClock(6, (2, 3)))
        b.on_receive(a.broadcast())
        with pytest.raises(ConfigurationError):
            b.restore_seen({"x": (4, ())})
