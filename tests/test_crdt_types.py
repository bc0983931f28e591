"""Unit and property tests for the CRDT substrate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import JsonPayloadCodec
from repro.core.errors import ConfigurationError
from repro.crdt import ORSet, PNCounter, RGA, ROOT
from repro.util.rng import RandomSource


class TestPNCounter:
    def test_local_increment_decrement(self):
        counter = PNCounter("a")
        counter.increment(5)
        counter.decrement(2)
        assert counter.value() == 3

    def test_remote_merge(self):
        a, b = PNCounter("a"), PNCounter("b")
        op = a.increment(4)
        b.apply_remote(op)
        assert b.value() == 4
        decrement_op = b.decrement(1)
        a.apply_remote(decrement_op)
        assert a.value() == b.value() == 3

    def test_convergence_any_order(self):
        a, b = PNCounter("a"), PNCounter("b")
        ops = [a.increment(1), a.decrement(2), a.increment(7)]
        for op in reversed(ops):
            b.apply_remote(op)
        assert b.value() == a.value() == 6
        assert b.state_signature() == a.state_signature()

    def test_validation(self):
        counter = PNCounter("a")
        with pytest.raises(ConfigurationError):
            counter.increment(0)
        with pytest.raises(ConfigurationError):
            counter.decrement(-3)
        with pytest.raises(ConfigurationError):
            counter.apply_remote(("reset", "a", 1))

    def test_no_anomalies_ever(self):
        a, b = PNCounter("a"), PNCounter("b")
        for op in [a.increment(1), a.decrement(1), a.increment(2)]:
            b.apply_remote(op)
        assert b.anomalies == 0


class TestORSet:
    def test_add_then_remove(self):
        s = ORSet("a")
        s.add("x")
        assert "x" in s
        s.remove("x")
        assert s.value() == set()

    def test_add_wins_over_concurrent_remove(self):
        a, b = ORSet("a"), ORSet("b")
        add_1 = a.add("x")
        b.apply_remote(add_1)
        # Concurrently: a removes (observing add_1), b re-adds.
        remove_op = a.remove("x")
        add_2 = b.add("x")
        a.apply_remote(add_2)
        b.apply_remote(remove_op)
        # Both converge on {x}: the unobserved add survives.
        assert a.value() == b.value() == {"x"}
        assert a.state_signature() == b.state_signature()

    def test_remove_of_absent_element_is_noop(self):
        s = ORSet("a")
        op = s.remove("ghost")
        other = ORSet("b")
        other.apply_remote(op)
        assert other.value() == set()
        assert other.anomalies == 0

    def test_causal_violation_detected_and_repaired(self):
        a = ORSet("a")
        add_op = a.add("x")
        remove_op = a.remove("x")
        late = ORSet("b")
        late.apply_remote(remove_op)  # remove before its observed add
        assert late.anomalies == 1
        assert late.value() == set()
        late.apply_remote(add_op)  # the late add must NOT resurrect x
        assert late.value() == set()
        # Converged with a replica that saw the causal order.
        good = ORSet("c")
        good.apply_remote(add_op)
        good.apply_remote(remove_op)
        assert late.state_signature() == good.state_signature()

    def test_unknown_operation_rejected(self):
        with pytest.raises(ConfigurationError):
            ORSet("a").apply_remote(("clear",))

    def test_multiple_adds_same_element(self):
        a = ORSet("a")
        a.add("x")
        a.add("x")
        a.remove("x")  # removes both observed tags
        assert a.value() == set()


class TestRGA:
    def test_sequential_editing(self):
        doc = RGA("a")
        op_h = doc.insert_after(ROOT, "H")
        doc.insert_after(op_h[2], "i")
        assert doc.as_text() == "Hi"

    def test_front_insertion_order(self):
        doc = RGA("a")
        doc.insert_after(ROOT, "b")
        doc.insert_after(ROOT, "a")
        # Later insert at the same position comes first (RGA tie-break).
        assert doc.as_text() == "ab"

    def test_delete(self):
        doc = RGA("a")
        op = doc.insert_after(ROOT, "x")
        doc.insert_after(op[2], "y")
        doc.delete(op[2])
        assert doc.as_text() == "y"

    def test_delete_invisible_rejected_locally(self):
        doc = RGA("a")
        op = doc.insert_after(ROOT, "x")
        doc.delete(op[2])
        with pytest.raises(ConfigurationError):
            doc.delete(op[2])
        with pytest.raises(ConfigurationError):
            doc.insert_after((99, "ghost"), "y")

    def test_remote_convergence_in_causal_order(self):
        a, b = RGA("a"), RGA("b")
        ops = []
        op = a.insert_after(ROOT, "H")
        ops.append(op)
        op2 = a.insert_after(op[2], "e")
        ops.append(op2)
        ops.append(a.insert_after(op2[2], "y"))
        for op in ops:
            b.apply_remote(op)
        assert b.as_text() == a.as_text() == "Hey"

    def test_orphan_buffering_on_violation(self):
        a = RGA("a")
        op1 = a.insert_after(ROOT, "x")
        op2 = a.insert_after(op1[2], "y")
        late = RGA("b")
        late.apply_remote(op2)  # parent missing
        assert late.anomalies == 1
        assert late.orphan_count == 1
        assert late.as_text() == ""
        late.apply_remote(op1)  # parent arrives, orphan integrates
        assert late.orphan_count == 0
        assert late.as_text() == "xy"

    def test_chained_orphans(self):
        a = RGA("a")
        op1 = a.insert_after(ROOT, "1")
        op2 = a.insert_after(op1[2], "2")
        op3 = a.insert_after(op2[2], "3")
        late = RGA("b")
        late.apply_remote(op3)
        late.apply_remote(op2)
        assert late.orphan_count == 2
        late.apply_remote(op1)
        assert late.as_text() == "123"
        assert late.orphan_count == 0

    def test_early_delete_pre_tombstone(self):
        a = RGA("a")
        op = a.insert_after(ROOT, "x")
        delete_op = a.delete(op[2])
        late = RGA("b")
        late.apply_remote(delete_op)
        assert late.anomalies == 1
        late.apply_remote(op)
        assert late.as_text() == ""  # never becomes visible

    def test_concurrent_inserts_converge(self):
        a, b = RGA("a"), RGA("b")
        op_a = a.insert_after(ROOT, "A")
        op_b = b.insert_after(ROOT, "B")
        a.apply_remote(op_b)
        b.apply_remote(op_a)
        assert a.as_text() == b.as_text()
        assert a.state_signature() == b.state_signature()

    def test_unknown_operation_rejected(self):
        with pytest.raises(ConfigurationError):
            RGA("a").apply_remote(("swap", None, None, None))


def counter_history(rng, n_ops):
    """A source counter and the operations it emitted."""
    source = PNCounter("src")
    ops = []
    for _ in range(n_ops):
        if rng.random() < 0.5:
            ops.append(source.increment(rng.integer(1, 10)))
        else:
            ops.append(source.decrement(rng.integer(1, 10)))
    return source, ops


def orset_history(rng, n_ops):
    """A source OR-Set and the adds and removes it emitted."""
    source = ORSet("src")
    elements = ["x", "y", "z"]
    ops = []
    for _ in range(n_ops):
        element = rng.choice(elements)
        if rng.random() < 0.6 or element not in source:
            ops.append(source.add(element))
        else:
            ops.append(source.remove(element))
    return source, ops


def rga_history(rng, n_ops):
    """A source RGA and the inserts and deletes it emitted."""
    source = RGA("src")
    ops = []
    for i in range(n_ops):
        visible = source.visible_ids()
        if visible and rng.random() < 0.25:
            ops.append(source.delete(rng.choice(visible)))
        else:
            parent = ROOT if not visible or rng.random() < 0.3 else rng.choice(visible)
            ops.append(source.insert_after(parent, f"c{i}"))
    return source, ops


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n_ops=st.integers(1, 20))
def test_pncounter_converges_under_any_permutation(seed, n_ops):
    rng = RandomSource(seed=seed)
    source, ops = counter_history(rng, n_ops)
    replica = PNCounter("dst")
    shuffled = list(ops)
    rng.shuffle(shuffled)
    for op in shuffled:
        replica.apply_remote(op)
    assert replica.value() == source.value()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n_ops=st.integers(1, 15))
def test_orset_converges_under_any_permutation(seed, n_ops):
    """Adds/removes applied in any order converge to the same signature
    (the pre-removed tombstones absorb causal inversions)."""
    rng = RandomSource(seed=seed)
    source, ops = orset_history(rng, n_ops)
    in_order = ORSet("ordered")
    for op in ops:
        in_order.apply_remote(op)
    scrambled = ORSet("scrambled")
    shuffled = list(ops)
    rng.shuffle(shuffled)
    for op in shuffled:
        scrambled.apply_remote(op)
    assert scrambled.state_signature() == in_order.state_signature()
    assert scrambled.value() == source.value()


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n_ops=st.integers(1, 15))
def test_rga_converges_under_any_permutation(seed, n_ops):
    rng = RandomSource(seed=seed)
    source, ops = rga_history(rng, n_ops)
    scrambled = RGA("scrambled")
    shuffled = list(ops)
    rng.shuffle(shuffled)
    for op in shuffled:
        scrambled.apply_remote(op)
    assert scrambled.orphan_count == 0
    assert scrambled.value() == source.value()


@pytest.mark.parametrize("crdt_type, history", [
    (PNCounter, counter_history), (ORSet, orset_history), (RGA, rga_history),
])
@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n_ops=st.integers(1, 20))
def test_every_operation_survives_the_payload_codec(crdt_type, history, seed, n_ops):
    """A networked node carries each operation as a JSON payload: the
    decoded operation must act exactly as the one the mutator returned."""
    codec = JsonPayloadCodec()
    _, ops = history(RandomSource(seed=seed), n_ops)
    direct, decoded = crdt_type("direct"), crdt_type("decoded")
    for op in ops:
        direct.apply_remote(op)
        decoded.apply_remote(codec.decode(codec.encode(op)))
        assert decoded.state_signature() == direct.state_signature()


class TestORSetConcurrentRemoves:
    def test_concurrent_removes_of_same_tag_are_not_anomalies(self):
        """Two replicas concurrently remove the same observed add: the
        second remove finds the tag gone, which is legitimate (not a
        causal violation)."""
        a, b, c = ORSet("a"), ORSet("b"), ORSet("c")
        add_op = a.add("x")
        b.apply_remote(add_op)
        c.apply_remote(add_op)
        remove_b = b.remove("x")
        remove_c = c.remove("x")
        a.apply_remote(remove_b)
        a.apply_remote(remove_c)
        assert a.anomalies == 0
        assert a.value() == set()

    def test_remove_after_cancelled_add_is_not_an_anomaly(self):
        """A pre-removed (cancelled) add still counts as 'seen': a second
        remove observing it is fine."""
        a = ORSet("a")
        add_op = a.add("x")
        remove_1 = a.remove("x")
        late = ORSet("late")
        late.apply_remote(remove_1)  # anomaly: remove before add
        assert late.anomalies == 1
        late.apply_remote(add_op)  # cancelled by pre-tombstone
        late.apply_remote(("remove", "x", remove_1[2]))  # replayed tags
        assert late.anomalies == 1  # no new anomaly
