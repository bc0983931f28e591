"""Tests for the delivery-error detectors (Algorithms 4 and 5)."""

import numpy as np
import pytest

from repro.core.clocks import EntryVectorClock, Timestamp
from repro.core.detector import (
    BasicAlertDetector,
    NullDetector,
    RefinedAlertDetector,
)
from repro.core.errors import ConfigurationError


def ts(vector, keys, seq=1):
    return Timestamp(
        vector=np.asarray(vector, dtype=np.int64), sender_keys=tuple(keys), seq=seq
    )


def clock_with(vector, own_keys=(0,)):
    clock = EntryVectorClock(len(vector), own_keys)
    clock.initialize_from(vector)
    return clock


class TestNullDetector:
    def test_never_alerts_but_counts(self):
        detector = NullDetector()
        clock = clock_with([5, 5, 5])
        assert detector.check(clock, ts([6, 6, 6], (0,))) is False
        assert detector.stats.checks == 1
        assert detector.stats.alerts == 0
        assert detector.stats.alert_rate == 0.0


class TestBasicAlertDetector:
    def test_silent_when_own_increment_visible(self):
        # V_i[x] == m.V[x] - 1 on a sender key: the message brings its own
        # increment, everything normal.
        detector = BasicAlertDetector()
        clock = clock_with([0, 3, 0, 0])
        message = ts([1, 4, 2, 0], (0, 1))
        assert detector.check(clock, message) is False

    def test_alerts_when_all_sender_entries_covered(self):
        detector = BasicAlertDetector()
        clock = clock_with([1, 4, 0, 0])
        message = ts([1, 4, 2, 0], (0, 1))
        assert detector.check(clock, message) is True

    def test_partial_covering_is_silent(self):
        # One sender entry covered, the other not: no alert (the paper's
        # error needs *all* entries matched by concurrent messages).
        detector = BasicAlertDetector()
        clock = clock_with([1, 3, 0, 0])
        message = ts([1, 4, 2, 0], (0, 1))
        assert detector.check(clock, message) is False

    def test_stats_accumulate(self):
        detector = BasicAlertDetector()
        clock = clock_with([1, 1])
        detector.check(clock, ts([1, 1], (0,)))  # covered -> alert
        detector.check(clock, ts([2, 1], (0,)))  # V[0]=1=2-1 -> silent
        assert detector.stats.checks == 2
        assert detector.stats.alerts == 1
        assert detector.stats.alert_rate == 0.5


class TestRefinedAlertDetector:
    def test_requires_a_witness_in_recent_list(self):
        detector = RefinedAlertDetector(max_entries=8)
        clock = clock_with([1, 4, 0, 0])
        message = ts([1, 4, 2, 0], (0, 1))
        # Covered, but L is empty: Algorithm 5 stays silent where
        # Algorithm 4 would alert.
        assert detector.check(clock, message) is False

    def test_alerts_with_dominating_witness(self):
        detector = RefinedAlertDetector(max_entries=8)
        witness = ts([2, 5, 2, 0], (2,), seq=3)
        detector.on_delivered(witness, now=0.0)
        clock = clock_with([2, 5, 2, 0])
        message = ts([1, 4, 2, 0], (0, 1))
        assert detector.check(clock, message) is True

    def test_non_dominating_witness_is_silent(self):
        detector = RefinedAlertDetector(max_entries=8)
        witness = ts([2, 3, 2, 0], (2,), seq=3)  # entry 1: 3 < 4
        detector.on_delivered(witness, now=0.0)
        clock = clock_with([2, 5, 2, 0])
        message = ts([1, 4, 2, 0], (0, 1))
        assert detector.check(clock, message) is False

    def test_window_eviction(self):
        detector = RefinedAlertDetector(window=100.0, max_entries=8)
        witness = ts([2, 5, 2, 0], (2,))
        detector.on_delivered(witness, now=0.0)
        assert detector.recent_size == 1
        clock = clock_with([2, 5, 2, 0])
        message = ts([1, 4, 2, 0], (0, 1))
        # Within the window the witness counts...
        assert detector.check(clock, message, now=50.0) is True
        # ...after it, the witness is gone and the alert disappears.
        assert detector.check(clock, message, now=201.0) is False
        assert detector.recent_size == 0

    def test_max_entries_bound(self):
        detector = RefinedAlertDetector(max_entries=3)
        for seq in range(10):
            detector.on_delivered(ts([seq, 0], (0,), seq=seq + 1), now=float(seq))
        assert detector.recent_size == 3

    def test_refined_alerts_subset_of_basic(self):
        # On identical inputs, every refined alert is also a basic alert
        # (the refinement only removes alerts).
        basic = BasicAlertDetector()
        refined = RefinedAlertDetector(max_entries=16)
        clock = clock_with([3, 3, 3, 3])
        witness = ts([3, 3, 3, 3], (3,))
        refined.on_delivered(witness, now=0.0)
        probes = [
            ts([1, 1, 1, 1], (0,)),
            ts([3, 3, 3, 3], (0, 1)),
            ts([4, 3, 3, 3], (0,)),
        ]
        for probe in probes:
            if refined.check(clock, probe):
                assert basic.check(clock, probe)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            RefinedAlertDetector(max_entries=0)
        with pytest.raises(ConfigurationError):
            RefinedAlertDetector(window=0.0)

    def test_size_mismatch_witness_skipped(self):
        detector = RefinedAlertDetector(max_entries=8)
        detector.on_delivered(ts([9, 9], (0,)), now=0.0)  # from another epoch
        clock = clock_with([1, 4, 2, 0])
        message = ts([1, 4, 2, 0], (0, 1))
        assert detector.check(clock, message) is False
