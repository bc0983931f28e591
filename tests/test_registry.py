"""The clock-scheme and detector maps (DESIGN.md §9).

Covers the map contract end to end: unknown names fail loudly with
the valid alternatives, every scheme string builds the exact class it
always did in the simulator (the node builds only the paper's clock,
``tests/test_api.py``), and a toy family put into ``SCHEMES`` in-test
runs through ``SimulationConfig`` — the simulator matches on no scheme
name, it reads the family's class attributes.  The codec's scheme byte
is pinned in ``tests/test_codec.py``.
"""

from types import SimpleNamespace

import pytest

from repro.api import NodeConfig, create_detector
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
from repro.core.detector import DETECTORS, detector_class
from repro.core.errors import ConfigurationError
from repro.sim import GaussianDelayModel, PoissonWorkload, SimulationConfig, run_simulation
from repro.sim.runner import _Run


class ToyClock(ProbabilisticCausalClock):
    """Test-only alias of the probabilistic clock."""


@pytest.fixture
def toy_clock(monkeypatch):
    """A throwaway family in the scheme map for one test."""
    name = "toy-clock"
    monkeypatch.setitem(clocks.SCHEMES, name, ToyClock)
    return name


def sim_clock(scheme, slot, **fields):
    """The clock and key assignment the simulator builds for ``slot``."""
    config = SimulationConfig(clock=scheme, duration_ms=100.0, **fields)
    return _Run(config)._make_clock(slot)


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
        # The node runs the paper's clock only: it takes no scheme at all.
        for scheme in ("quantum", "probabilistic"):
            with pytest.raises(TypeError):
                NodeConfig(r=16, k=2, scheme=scheme)

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
        # Where each family runs: the simulator's clock=scheme.
        clock, _ = sim_clock(scheme, 0, n_nodes=8, r=16, k=2)
        assert type(clock) is cls

    def test_registration_order_preserves_legacy_prefix(self):
        assert tuple(SCHEMES)[:4] == (
            "probabilistic", "plausible", "lamport", "vector"
        )
        assert tuple(DETECTORS) == ("none", "basic", "refined")


class TestToyPlugin:
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
        clock, assignment = sim_clock(toy_clock, 4, n_nodes=8, r=32, k=3)
        assert type(clock) is Probe
        assert seen["node_id"] == 4
        assert seen["r"] == 32 and seen["k"] == 3
        assert seen["keys"] == clock.own_keys == tuple(assignment.keys)
        assert len(seen["keys"]) == 3
        assert all(isinstance(key, int) for key in seen["keys"])
        assert seen["n"] == 8 and seen["index"] == 4
