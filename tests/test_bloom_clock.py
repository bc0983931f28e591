"""Bloom clock (Ramabaja) unit tests and its false-positive theory.

The Bloom clock draws ``h`` hashed cells *per event* instead of the
(n, r, k) family's static per-process keys; everything downstream —
Algorithm 2's delivery condition, the pending buffers, the detectors —
reads ``timestamp.sender_keys`` and works unchanged.  These tests pin
the key derivation (deterministic across processes), the per-event
variation, causal delivery through the standard endpoint, and the
``p_fp`` curve's identity with the paper's ``P_err``.
"""

import pytest

import repro.core.clocks as clocks_module
from repro.core.clocks import BloomCausalClock
from repro.core.errors import ConfigurationError
from repro.core.protocol import CausalBroadcastEndpoint
from repro.core.theory import optimal_k, p_error, p_fp


class TestKeyDerivation:
    def test_same_owner_same_sequence_same_keys(self):
        """Key sets are a pure function of (salt, owner, seq): a restarted
        or remote replica of the same owner derives identical cells."""
        a = BloomCausalClock(64, hashes=4, owner="alice")
        b = BloomCausalClock(64, hashes=4, owner="alice")
        for _ in range(5):
            assert a.prepare_send().sender_keys == b.prepare_send().sender_keys

    def test_keys_vary_per_event(self):
        clock = BloomCausalClock(64, hashes=4, owner="alice")
        key_sets = {clock.prepare_send().sender_keys for _ in range(10)}
        assert len(key_sets) == 10  # fresh draw each event

    def test_keys_vary_per_owner(self):
        a = BloomCausalClock(64, hashes=4, owner="alice")
        b = BloomCausalClock(64, hashes=4, owner="bob")
        assert a.prepare_send().sender_keys != b.prepare_send().sender_keys

    def test_salt_shifts_the_family(self, monkeypatch):
        unsalted = BloomCausalClock(64, hashes=4, owner="alice").prepare_send()
        monkeypatch.setattr(clocks_module, "_BLOOM_SALT", 1)
        salted = BloomCausalClock(64, hashes=4, owner="alice").prepare_send()
        assert unsalted.sender_keys != salted.sender_keys

    def test_exactly_h_distinct_sorted_cells(self):
        clock = BloomCausalClock(32, hashes=5, owner="alice")
        for _ in range(8):
            keys = clock.prepare_send().sender_keys
            assert len(keys) == 5
            assert len(set(keys)) == 5
            assert list(keys) == sorted(keys)
            assert all(0 <= key < 32 for key in keys)

    def test_hashes_validation(self):
        with pytest.raises(ConfigurationError):
            BloomCausalClock(16, hashes=0, owner="a")
        with pytest.raises(ConfigurationError):
            BloomCausalClock(4, hashes=5, owner="a")

    def test_hashes_property(self):
        assert BloomCausalClock(16, hashes=3, owner="a").hashes == 3


class TestCausalDelivery:
    def _endpoint(self, name, m=48, h=3):
        return CausalBroadcastEndpoint(
            name, BloomCausalClock(m, hashes=h, owner=name)
        )

    def test_out_of_order_chain_held_and_released(self):
        sender = self._endpoint("s")
        chain = [sender.broadcast(i) for i in range(6)]
        receiver = self._endpoint("rx")
        assert receiver.on_receive(chain[2]) == []   # blocked: missing 0, 1
        assert receiver.on_receive(chain[1]) == []   # still missing 0
        records = receiver.on_receive(chain[0])      # releases 0, 1, 2
        assert [r.message.payload for r in records] == [0, 1, 2]
        records = [
            record
            for message in chain[3:]
            for record in receiver.on_receive(message)
        ]
        assert [r.message.payload for r in records] == [3, 4, 5]
        assert receiver.pending_count == 0

    def test_cross_process_dependency(self):
        alice, bob, carol = (self._endpoint(n) for n in ("a", "b", "c"))
        m1 = alice.broadcast("hi")
        bob.on_receive(m1)
        m2 = bob.broadcast("re: hi")  # causally after m1
        assert carol.on_receive(m2) == []  # must wait for m1
        records = carol.on_receive(m1)
        assert [r.message.payload for r in records] == ["hi", "re: hi"]


class TestFalsePositiveTheory:
    def test_identity_with_p_err(self):
        """One covering formula predicts both families (static keys and
        per-event keys draw from the same Bloom analysis)."""
        for m, h, x in [(100, 4, 20.0), (64, 3, 8.0), (256, 6, 40.0)]:
            assert p_fp(m, h, x) == p_error(m, h, x)

    def test_monotone_in_inserts(self):
        values = [p_fp(128, 4, x) for x in (1.0, 5.0, 20.0, 80.0)]
        assert values == sorted(values)
        assert 0.0 <= values[0] and values[-1] <= 1.0

    def test_optimal_h_matches_shared_optimum(self):
        m, x = 128, 16.0
        h_star = optimal_k(m, x)  # ln2 · m / X, shared with the (R, K) clock
        below, above = int(h_star) - 1, int(h_star) + 2
        assert p_fp(m, int(round(h_star)), x) <= p_fp(m, max(1, below), x)
        assert p_fp(m, int(round(h_star)), x) <= p_fp(m, above, x)

    def test_zero_inserts_no_false_positives(self):
        assert p_fp(64, 4, 0.0) == 0.0
