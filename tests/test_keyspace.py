"""Tests for key-set assignment strategies (Section 4.1.3)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.combinatorics import num_key_sets, unrank_lex
from repro.core.errors import ConfigurationError, MembershipError
from repro.core.keyspace import (
    BalancedLoadKeyAssigner,
    HashKeyAssigner,
    KeyAssigner,
    KeyAssignment,
    PerfectKeyAssigner,
    RandomKeyAssigner,
    SequentialKeyAssigner,
)
from repro.util.rng import RandomSource


def entry_loads(assigner: KeyAssigner):
    """Per-entry load: how many live processes hold each vector entry."""
    loads = [0] * assigner.r
    for assignment in assigner.assignments.values():
        for entry in assignment.keys:
            loads[entry] += 1
    return loads


def pairwise_overlap_counts(assigner: KeyAssigner):
    """Histogram ``overlap_size -> pairs`` over all pairs of live processes."""
    histogram = {}
    for first, second in itertools.combinations(assigner.assignments.values(), 2):
        overlap = len(set(first.keys).intersection(second.keys))
        histogram[overlap] = histogram.get(overlap, 0) + 1
    return histogram


class TestKeyAssignment:
    def test_k_property(self):
        assignment = KeyAssignment(process_id=1, set_id=0, keys=(0, 3, 5))
        assert assignment.k == 3

    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            KeyAssignment(process_id=1, set_id=0, keys=())

    def test_rejects_duplicate_keys(self):
        with pytest.raises(ConfigurationError):
            KeyAssignment(process_id=1, set_id=0, keys=(2, 2))


class TestAssignerBase:
    def test_double_assign_rejected(self):
        assigner = SequentialKeyAssigner(10, 2)
        assigner.assign("a")
        with pytest.raises(MembershipError):
            assigner.assign("a")

    def test_release_unknown_rejected(self):
        assigner = SequentialKeyAssigner(10, 2)
        with pytest.raises(MembershipError):
            assigner.release("ghost")

    def test_release_then_reassign(self):
        assigner = SequentialKeyAssigner(10, 2)
        assigner.assign("a")
        assigner.release("a")
        assignment = assigner.assign("a")
        assert assignment.k == 2

    def test_lookup(self):
        assigner = SequentialKeyAssigner(10, 2)
        granted = assigner.assign("a")
        assert assigner.lookup("a") == granted
        with pytest.raises(MembershipError):
            assigner.lookup("b")

    def test_len_and_contains(self):
        assigner = SequentialKeyAssigner(10, 2)
        assert len(assigner) == 0
        assigner.assign("a")
        assert "a" in assigner and "b" not in assigner
        assert len(assigner) == 1

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            SequentialKeyAssigner(0, 1)
        with pytest.raises(ConfigurationError):
            SequentialKeyAssigner(5, 6)
        with pytest.raises(ConfigurationError):
            SequentialKeyAssigner(5, 0)


class TestRandomKeyAssigner:
    def test_deterministic_given_seed(self):
        first = RandomKeyAssigner(20, 3, rng=RandomSource(seed=7))
        second = RandomKeyAssigner(20, 3, rng=RandomSource(seed=7))
        for process in range(10):
            assert first.assign(process).keys == second.assign(process).keys

    def test_distinct_sets_when_avoiding_collisions(self):
        assigner = RandomKeyAssigner(8, 2, rng=RandomSource(seed=1))
        seen = set()
        for process in range(num_key_sets(8, 2)):
            keys = assigner.assign(process).keys
            assert keys not in seen
            seen.add(keys)

    def test_exhaustion_raises(self):
        assigner = RandomKeyAssigner(4, 2, rng=RandomSource(seed=1))
        for process in range(num_key_sets(4, 2)):
            assigner.assign(process)
        with pytest.raises(MembershipError):
            assigner.assign("overflow")

    def test_release_recycles_ids(self):
        assigner = RandomKeyAssigner(4, 2, rng=RandomSource(seed=1))
        for process in range(num_key_sets(4, 2)):
            assigner.assign(process)
        assigner.release(0)
        # The freed set id becomes available again.
        assignment = assigner.assign("late")
        assert assignment.k == 2

    def test_colliding_mode_allows_duplicates(self):
        # With only 3 possible sets and many draws, collisions must occur.
        assigner = RandomKeyAssigner(3, 2, rng=RandomSource(seed=2), avoid_collisions=False)
        keys = [assigner.assign(process).keys for process in range(30)]
        assert len(set(keys)) <= 3
        assert len(keys) == 30

    def test_pairwise_overlap_never_full(self):
        assigner = RandomKeyAssigner(12, 3, rng=RandomSource(seed=3))
        for process in range(40):
            assigner.assign(process)
        histogram = pairwise_overlap_counts(assigner)
        assert 3 not in histogram  # intersection of K means same set

    def test_set_id_matches_keys(self):
        assigner = RandomKeyAssigner(15, 3, rng=RandomSource(seed=4))
        assignment = assigner.assign("x")
        assert unrank_lex(assignment.set_id, 15, 3) == assignment.keys


class TestSequentialKeyAssigner:
    def test_enumerates_lexicographically(self):
        assigner = SequentialKeyAssigner(5, 2)
        keys = [assigner.assign(i).keys for i in range(4)]
        assert keys == [(0, 1), (0, 2), (0, 3), (0, 4)]

    def test_wraps_modulo_total(self):
        assigner = SequentialKeyAssigner(4, 2)
        total = num_key_sets(4, 2)
        first_cycle = [assigner.assign(i).keys for i in range(total)]
        wrapped = assigner.assign("again").keys
        assert wrapped == first_cycle[0]


class TestPerfectKeyAssigner:
    def test_loads_stay_roughly_balanced(self):
        # The tiling's objective is subset spread, not exact per-entry
        # balance; loads must still stay within a small band.
        assigner = PerfectKeyAssigner(10, 2)
        for process in range(25):
            assigner.assign(process)
        loads = entry_loads(assigner)
        assert max(loads) - min(loads) <= 3

    def test_overlap_spread_beats_balanced_greedy(self):
        # The property that actually matters: no pair of processes shares
        # a full key set, and most pairs are disjoint.
        assigner = PerfectKeyAssigner(100, 4)
        for process in range(120):
            assigner.assign(process)
        histogram = pairwise_overlap_counts(assigner)
        assert histogram.get(4, 0) == 0
        assert histogram.get(3, 0) <= 5
        assert histogram.get(0, 0) > histogram.get(1, 0)

    def test_sets_distinct_while_space_allows(self):
        assigner = PerfectKeyAssigner(6, 2)
        seen = set()
        for process in range(10):
            keys = assigner.assign(process).keys
            assert keys not in seen
            seen.add(keys)

    def test_release_recycles_slots(self):
        assigner = PerfectKeyAssigner(6, 2)
        for process in range(6):
            assigner.assign(process)
        loads_before = entry_loads(assigner)
        released = assigner.release(0)
        loads_after = entry_loads(assigner)
        assert sum(loads_after) == sum(loads_before) - 2
        # A newcomer may reuse the freed slot.
        rejoined = assigner.assign("newcomer")
        assert len(rejoined.keys) == 2


class TestHashKeyAssigner:
    def test_stable_across_instances(self):
        first = HashKeyAssigner(30, 3)
        second = HashKeyAssigner(30, 3)
        assert first.assign("peer-42").keys == second.assign("peer-42").keys

    def test_rejoin_gets_same_keys(self):
        assigner = HashKeyAssigner(30, 3)
        original = assigner.assign("peer").keys
        assigner.release("peer")
        assert assigner.assign("peer").keys == original

    def test_different_ids_usually_differ(self):
        assigner = HashKeyAssigner(100, 4)
        keys = {assigner.assign(f"peer-{i}").keys for i in range(50)}
        assert len(keys) > 45  # collisions possible but rare


class TestBalancedLoadKeyAssigner:
    """The keyspace ablation's least-loaded baseline."""

    def test_least_loaded_then_perturbed_off_a_used_set(self):
        assigner = BalancedLoadKeyAssigner(6, 2)
        granted = [assigner.assign(f"p{i}").keys for i in range(4)]
        # Three disjoint tiles; then every entry carries one process, the
        # least-loaded pair (0, 1) is taken, and one swap finds (0, 2).
        assert granted == [(0, 1), (2, 3), (4, 5), (0, 2)]
        assert entry_loads(assigner) == [2, 1, 2, 1, 1, 1]

    def test_release_returns_and_adopt_counts_the_loads(self):
        assigner = BalancedLoadKeyAssigner(6, 2)
        for i in range(4):
            assigner.assign(f"p{i}")
        assigner.release("p3")
        # Loads back to one each: the same perturbed set is drawn again.
        assert assigner.assign("p4").keys == (0, 2)
        assigner.adopt("q", (1, 3))
        # Loads [2, 2, 2, 2, 1, 1]: the least-loaded pair (4, 5) is p2's,
        # so one swap takes the least-loaded entry left, 0.
        assert assigner.assign("p5").keys == (0, 4)


class TestEntryLoads:
    """The two measuring helpers above, on prescribed (adopted) key sets."""

    def test_counts_live_assignments(self):
        assigner = RandomKeyAssigner(4, 2)
        assigner.adopt("a", (0, 1))
        assigner.adopt("b", (1, 2))
        assert entry_loads(assigner) == [1, 2, 1, 0]

    def test_overlap_histogram(self):
        assigner = RandomKeyAssigner(4, 2)
        for process, keys in (("a", (0, 1)), ("b", (1, 2)), ("c", (2, 3))):
            assigner.adopt(process, keys)
        histogram = pairwise_overlap_counts(assigner)
        assert histogram == {1: 2, 0: 1}


@settings(max_examples=60, deadline=None)
@given(
    r=st.integers(4, 24),
    k=st.integers(1, 4),
    count=st.integers(1, 20),
    seed=st.integers(0, 2**16),
)
def test_random_assigner_invariants(r, k, count, seed):
    """Random assignment: K distinct in-range keys, distinct sets."""
    if k > r:
        k = r
    count = min(count, num_key_sets(r, k))
    assigner = RandomKeyAssigner(r, k, rng=RandomSource(seed=seed))
    seen = set()
    for process in range(count):
        keys = assigner.assign(process).keys
        assert len(keys) == k
        assert all(0 <= key < r for key in keys)
        assert keys not in seen
        seen.add(keys)


class TestAdopt:
    """Mirroring externally granted assignments (the membership layer)."""

    def test_adopt_registers_and_looks_up(self):
        assigner = RandomKeyAssigner(16, 3)
        assignment = assigner.adopt("remote", (5, 2, 9))
        assert assignment.keys == (2, 5, 9)  # canonical ascending order
        assert assigner.lookup("remote").keys == (2, 5, 9)
        assert "remote" in assigner

    def test_adopt_idempotent_same_keys(self):
        assigner = RandomKeyAssigner(16, 3)
        first = assigner.adopt("p", (1, 2, 3))
        second = assigner.adopt("p", (3, 2, 1))
        assert first == second
        assert len(assigner) == 1

    def test_adopt_conflicting_keys_rejected(self):
        assigner = RandomKeyAssigner(16, 3)
        assigner.adopt("p", (1, 2, 3))
        with pytest.raises(MembershipError):
            assigner.adopt("p", (4, 5, 6))

    def test_adopt_out_of_range_rejected(self):
        assigner = RandomKeyAssigner(16, 3)
        with pytest.raises(ConfigurationError):
            assigner.adopt("p", (1, 2, 16))

    def test_random_adopt_blocks_the_set_id(self):
        # After adoption the same set must not be drawn for someone else.
        assigner = RandomKeyAssigner(4, 2)  # C(4,2) = 6 sets
        adopted = assigner.adopt("a", (0, 1))
        others = [assigner.assign(f"p{i}").keys for i in range(5)]
        assert adopted.keys not in others

    def test_perfect_adopt_blocks_the_set(self):
        assigner = PerfectKeyAssigner(12, 3)
        assigner.adopt("boot", (0, 1, 2))  # the slot-0 tile
        granted = [assigner.assign(f"p{i}").keys for i in range(3)]
        assert (0, 1, 2) not in granted

    def test_perfect_adopt_release_tolerates_missing_slot(self):
        assigner = PerfectKeyAssigner(12, 3)
        assigner.adopt("ghost", (3, 4, 5))
        released = assigner.release("ghost")  # no slot was ever claimed
        assert released.keys == (3, 4, 5)
        assert "ghost" not in assigner

    def test_adopt_then_release_recycles(self):
        assigner = PerfectKeyAssigner(12, 3)
        first = assigner.assign("a")
        assigner.release("a")
        # LIFO slot recycling: the next grant reuses the freed slot.
        assert assigner.assign("b").keys == first.keys
