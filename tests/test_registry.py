"""The clock-scheme and detector maps (DESIGN.md §9).

Covers the map contract end to end: unknown names fail loudly with
the valid alternatives, every scheme string builds the exact class it
always did, a toy family put into ``SCHEMES`` in-test round-trips
through every assembly layer (``create_clock``/``create_endpoint``/
``NodeConfig``/``SimulationConfig``) — no layer matches on scheme
names, each reads the family's class attributes — wire scheme ids stay
pinned, and the codec's scheme byte keeps timestamp families
wire-distinguishable.
"""

from types import SimpleNamespace

import pytest

from repro.api import (
    NodeConfig,
    create_clock,
    create_detector,
    create_endpoint,
)
from repro.core import clocks
from repro.core.clocks import (
    SCHEMES,
    BloomCausalClock,
    LamportCausalClock,
    PlausibleCausalClock,
    ProbabilisticCausalClock,
    VectorCausalClock,
    scheme_class,
)
from repro.core.codec import CodecError, MessageCodec
from repro.core.detector import DETECTORS, detector_class
from repro.core.errors import ConfigurationError
from repro.sim import GaussianDelayModel, PoissonWorkload, SimulationConfig, run_simulation


class ToyClock(ProbabilisticCausalClock):
    """Test-only alias of the probabilistic clock, on the next free wire id."""

    wire_scheme_id = 6


@pytest.fixture
def toy_clock(monkeypatch):
    """A throwaway family in the scheme map for one test."""
    name = "toy-clock"
    monkeypatch.setitem(clocks.SCHEMES, name, ToyClock)
    return name


class TestLookupFailures:
    def test_unknown_clock_lists_registered(self):
        with pytest.raises(ConfigurationError, match="probabilistic"):
            scheme_class("quantum")

    def test_unknown_detector_lists_registered(self):
        with pytest.raises(ConfigurationError, match="refined"):
            detector_class("basci")

    def test_detector_typo_rejected_by_factory(self):
        """The historical bug: ``create_detector`` silently returned the
        refined detector for any unrecognized string."""
        # a config object carrying the typo (NodeConfig itself refuses it)
        stub = SimpleNamespace(detector="basci", detector_window=None)
        with pytest.raises(ConfigurationError, match="basci"):
            create_detector(stub)
        # the supported path: NodeConfig rejects the typo at construction
        with pytest.raises(ConfigurationError, match="'basci'"):
            NodeConfig(r=16, k=2, detector="basci")

    def test_node_config_rejects_unknown_scheme(self):
        with pytest.raises(ConfigurationError, match="unknown clock"):
            NodeConfig(r=16, k=2, scheme="quantum")

    def test_simulation_config_rejects_unknown_names(self):
        base = dict(
            n_nodes=4, r=16, k=2, duration_ms=100.0,
            workload=PoissonWorkload(50.0),
            delay_model=GaussianDelayModel(5.0, 1.0, 0.0),
        )
        with pytest.raises(ConfigurationError, match="unknown clock"):
            SimulationConfig(clock="quantum", **base).validate()
        with pytest.raises(ConfigurationError, match="unknown detector"):
            SimulationConfig(detector="basci", **base).validate()


class TestLegacySchemes:
    """Every scheme string builds the same class it always did."""

    EXPECTED = {
        "probabilistic": ProbabilisticCausalClock,
        "plausible": PlausibleCausalClock,
        "lamport": LamportCausalClock,
        "vector": VectorCausalClock,
        "bloom": BloomCausalClock,
    }

    @pytest.mark.parametrize("scheme,cls", sorted(EXPECTED.items()))
    def test_create_clock_builds_exact_class(self, scheme, cls):
        dense = SCHEMES[scheme].needs_dense_index
        config = NodeConfig(
            r=16, k=2, scheme=scheme, n=8 if dense else None
        )
        clock = create_clock("n0", config, index=0 if dense else None)
        assert type(clock) is cls

    def test_registration_order_preserves_legacy_prefix(self):
        assert tuple(SCHEMES)[:4] == (
            "probabilistic", "plausible", "lamport", "vector"
        )
        assert tuple(DETECTORS) == ("none", "basic", "refined")

    def test_pinned_wire_scheme_ids(self):
        assert [SCHEMES[s].wire_scheme_id for s in
                ("probabilistic", "plausible", "lamport", "vector", "bloom")
                ] == [1, 2, 3, 4, 5]
        # One id per family; 6 is the next free one.
        ids = [family.wire_scheme_id for family in SCHEMES.values()]
        assert sorted(ids) == [1, 2, 3, 4, 5]


class TestToyPlugin:
    def test_round_trips_create_clock(self, toy_clock):
        clock = create_clock("n0", NodeConfig(r=16, k=2, scheme=toy_clock))
        assert isinstance(clock, ProbabilisticCausalClock)
        assert clock.r == 16

    def test_round_trips_create_endpoint(self, toy_clock):
        config = NodeConfig(r=16, k=2, scheme=toy_clock)
        endpoint = create_endpoint("n0", config)
        message = endpoint.broadcast("hello")
        other = create_endpoint("n1", config)
        records = other.on_receive(message)
        assert [r.message.payload for r in records] == ["hello"]

    def test_round_trips_simulation(self, toy_clock):
        config = SimulationConfig(
            n_nodes=6, r=24, k=2, clock=toy_clock,
            duration_ms=1500.0, workload=PoissonWorkload(120.0),
            delay_model=GaussianDelayModel(10.0, 2.0, 0.0), seed=3,
        )
        result = run_simulation(config)
        assert result.sent > 0
        assert result.delivered_remote > 0
        assert result.stuck_pending == 0


class TestClockBuildContext:
    def test_factory_receives_context_fields(self, toy_clock, monkeypatch):
        seen = {}

        class Probe(ToyClock):
            @classmethod
            def build(cls, node_id, r, k, keys, n, index):
                seen.update(node_id=node_id, r=r, k=k, keys=keys, n=n, index=index)
                return super().build(node_id, r, k, keys, n, index)

        monkeypatch.setitem(clocks.SCHEMES, toy_clock, Probe)
        clock = create_clock("n7", NodeConfig(r=32, k=3, scheme=toy_clock), index=4)
        assert type(clock) is Probe
        assert seen["node_id"] == "n7"
        assert seen["r"] == 32 and seen["k"] == 3
        assert seen["keys"] == clock.own_keys and len(seen["keys"]) == 3
        assert all(isinstance(key, int) for key in seen["keys"])
        assert seen["n"] is None and seen["index"] == 4


class TestCodecSchemeByte:
    def _endpoint(self, scheme, node="a"):
        dense = SCHEMES[scheme].needs_dense_index
        config = NodeConfig(r=16, k=2, scheme=scheme, n=8 if dense else None)
        return create_endpoint(node, config, index=0 if dense else None)

    @pytest.mark.parametrize("scheme", sorted(TestLegacySchemes.EXPECTED))
    def test_roundtrip_preserves_scheme(self, scheme):
        codec = MessageCodec(scheme=scheme)
        message = self._endpoint(scheme).broadcast("x")
        data = codec.encode(message)
        decoded = codec.decode(data)
        assert decoded.timestamp.sender_keys == message.timestamp.sender_keys
        # The scheme byte travels: every other scheme's codec refuses it.
        for other in sorted(TestLegacySchemes.EXPECTED):
            if other != scheme:
                with pytest.raises(CodecError, match=scheme):
                    MessageCodec(scheme=other).decode(data)

    def test_cross_scheme_decode_rejected(self):
        bloom_wire = MessageCodec(scheme="bloom").encode(
            self._endpoint("bloom").broadcast("x")
        )
        with pytest.raises(CodecError, match="bloom"):
            MessageCodec(scheme="probabilistic").decode(bloom_wire)

    def test_decode_rejects_garbage(self):
        with pytest.raises(CodecError):
            MessageCodec().decode(b"nope")
