"""Tests for the repro.api assembly layer (NodeConfig + factories)."""

import asyncio
import dataclasses
import inspect

import pytest

from repro import NodeConfig, create_clock, create_detector, create_endpoint, create_node
from repro.api import AdaptivePolicy, LivenessPolicy, MembershipConfig, RetransmitPolicy
from repro.core.clocks import (
    LamportCausalClock,
    PlausibleCausalClock,
    ProbabilisticCausalClock,
    VectorCausalClock,
)
from repro.core.detector import BasicAlertDetector, NullDetector, RefinedAlertDetector
from repro.core.errors import ConfigurationError
from repro.core.keyspace import HashKeyAssigner, RandomKeyAssigner
from repro.core.protocol import CausalBroadcastEndpoint
from repro.core.clocks import SCHEMES
from repro.core.detector import DETECTORS
from repro.net import LocalAsyncBus, ReliableCausalNode
from repro.net.repair import MessageStore
from repro.net.overlay import PartialView
from repro.util.rng import RandomSource
from tests.recording import Deliveries


class TestNodeConfig:
    def test_defaults_are_valid(self):
        config = NodeConfig()
        assert type(create_clock("n", config)) is ProbabilisticCausalClock
        assert config.r > 0 and 0 < config.k <= config.r

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rx_batch=0),
            dict(detector="psychic"),
            dict(dissemination="broadcast"),
            dict(metrics_port=70000),
            dict(r=0),
            dict(k=0),
            dict(r=4, k=9),
            dict(anti_entropy_interval=-0.5),
            dict(membership=True),           # a layer is a policy object
            dict(adaptive=AdaptivePolicy()),  # adaptive without membership
            dict(retransmit=None),
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            NodeConfig(**kwargs)

    def test_knobs_nothing_set_are_gone(self):
        """Every tuning value is declared once, in the policy class of
        the layer that reads it; the config holds those objects and the
        old flat copies fail loudly instead of being silently ignored."""
        assert [field.name for field in dataclasses.fields(NodeConfig)] == [
            "r", "k", "detector", "keys",
            "detector_window", "host", "port", "rx_batch", "tx_batch",
            "retransmit", "anti_entropy_interval",
            "dissemination", "fanout",
            "view_size", "data_dir", "journal_snapshot_interval",
            "journal_fsync", "liveness", "membership", "adaptive",
            "metrics_path", "metrics_interval", "metrics_port",
        ]
        # Each policy keeps only what something outside the tests sets.
        for policy, names in (
            (RetransmitPolicy, ["initial_timeout"]),
            (LivenessPolicy, ["heartbeat_interval", "quarantine_after"]),
            (MembershipConfig, ["seed_peers", "join_timeout", "join_retries", "evict_after"]),
            (AdaptivePolicy, ["interval", "band", "k_max", "cooldown", "min_window"]),
        ):
            assert [field.name for field in dataclasses.fields(policy)] == names
        assert list(inspect.signature(PartialView).parameters) == [
            "local_id", "fanout", "view_size", "seed",
        ]
        # The rest are module constants of the layer that reads them.
        for build, names in (
            (RetransmitPolicy, (
                "backoff_factor", "max_timeout", "jitter", "max_retries", "send_buffer",
                "tick_interval", "nack_interval", "coalesce_mtu", "flush_interval",
            )),
            (MembershipConfig, ("join_backoff", "announce_interval")),
            (AdaptivePolicy, ("hysteresis", "x_floor")),
            (lambda **knob: PartialView("n", **knob),
             ("piggyback_size", "merge_probability", "max_hops")),
            (MessageStore, ("limit",)),
            (lambda **knob: MessageStore().missing_for({}, **knob), ("limit",)),
        ):
            for name in names:
                with pytest.raises(TypeError):
                    build(**{name: 1})
        # The node reads everything else off its NodeConfig.
        assert list(inspect.signature(ReliableCausalNode).parameters) == [
            "node_id", "config", "clock", "transport", "on_delivery",
        ]
        config = NodeConfig()
        assert config.retransmit == RetransmitPolicy()
        assert config.liveness is config.membership is config.adaptive is None
        for name in (
            "max_retry_timeout", "piggyback_size", "merge_probability",
            "relay_max_hops", "adaptive_cooldown", "wire_delta", "store_limit",
            "payload_codec",  # JSON is the only payload format
            "keyspace_seed", "max_pending",  # only tests set them
            "scheme", "n",  # the node runs the paper's clock only
            # the 20 copies of policy fields
            "ack_timeout", "backoff_factor", "max_retries", "send_buffer",
            "coalesce_mtu", "flush_interval",
            "heartbeat_interval", "quarantine_after",
            "seed_peers", "join_timeout", "join_retries", "join_backoff",
            "evict_after", "view_announce_interval",
            "adaptive_interval", "adaptive_band", "adaptive_k_max",
        ):
            with pytest.raises(TypeError):
                NodeConfig(**{name: 1})
            with pytest.raises(TypeError):
                config.replace(**{name: 1})
        # The other two of the 20: the on/off flags became the holders.
        for name in ("membership", "adaptive"):
            with pytest.raises(ConfigurationError):
                NodeConfig(**{name: True})
            with pytest.raises(ConfigurationError):
                config.replace(**{name: True})
        # So a layer that is off can no longer carry invalid settings:
        # the flat spelling is gone and the policy refuses the values.
        for flat, policy in (
            (lambda: NodeConfig(quarantine_after=-5),
             lambda: LivenessPolicy(quarantine_after=-5)),
            (lambda: NodeConfig(join_timeout=-1, join_retries=-3),
             lambda: MembershipConfig(join_timeout=-1, join_retries=-3)),
            (lambda: NodeConfig(adaptive_band=(5, 1), adaptive_k_max=0),
             lambda: AdaptivePolicy(band=(5, 1), k_max=0)),
        ):
            with pytest.raises(TypeError):
                flat()
            with pytest.raises(ConfigurationError):
                policy()

    def test_replace_produces_modified_copy(self):
        base = NodeConfig(r=64)
        changed = base.replace(k=5)
        assert changed.k == 5 and changed.r == 64
        assert base.k == 3  # original untouched

    def test_retransmit_policy_reflects_config(self):
        """The session runs the very policy object the config holds."""
        policy = RetransmitPolicy(initial_timeout=0.1)

        async def scenario():
            node = await create_node(
                "n", NodeConfig(retransmit=policy),
                transport=LocalAsyncBus().attach("n"), start=False,
            )
            assert node.session._policy is policy

        asyncio.run(scenario())

    def test_explicit_keys_decide_k(self):
        """``config.k`` is what the CLI banner prints and the e2e
        harness feeds to ``p_error``: it must be the clock's K."""
        config = NodeConfig(r=16, k=3, keys=(1, 2))
        assert config.k == 2 == create_clock("n", config).k
        assert config.replace(k=5).k == 2

    @pytest.mark.parametrize("keys", [(1, 1), (-1, 2), (3, 16), ()])
    def test_bad_explicit_keys_rejected_at_construction(self, keys):
        with pytest.raises(ConfigurationError):
            NodeConfig(r=16, keys=keys)


class TestCreateClock:
    """``create_clock`` builds the paper's clock; the other families
    are built as the simulator builds them, by ``SCHEMES[name].build``."""

    def test_probabilistic_clock(self):
        clock = create_clock("alice", NodeConfig(r=64, k=3))
        assert isinstance(clock, ProbabilisticCausalClock)
        assert clock.r == 64 and clock.k == 3

    def test_hash_assignment_is_stable_and_salted(self):
        config = NodeConfig(r=64, k=3)
        again = create_clock("alice", config)
        assert create_clock("alice", config).own_keys == again.own_keys
        # The preimage is (0, node id): every key set stays what it was.
        assert again.own_keys == HashKeyAssigner(64, 3).assign((0, "alice")).keys

    def test_plausible_clock(self):
        clock = SCHEMES["plausible"].build("bob", 32, 1, (5,), None, None)
        assert isinstance(clock, PlausibleCausalClock)
        assert clock.k == 1

    def test_lamport_clock(self):
        clock = SCHEMES["lamport"].build("bob", 64, 1, (), None, None)
        assert isinstance(clock, LamportCausalClock)
        assert clock.r == 1 and clock.k == 1

    def test_vector_clock_needs_index(self):
        clock = SCHEMES["vector"].build("p2", 64, 1, (), 5, 2)
        assert isinstance(clock, VectorCausalClock)
        assert clock.r == 5 and clock.own_keys == (2,)
        with pytest.raises(ConfigurationError):
            SCHEMES["vector"].build("p2", 64, 1, (), 5, None)

    def test_explicit_keys_override_hash(self):
        clock = create_clock("alice", NodeConfig(r=16, k=2, keys=(1, 9)))
        assert clock.own_keys == (1, 9)

    def test_coordinated_assigner_honoured(self):
        assigner = RandomKeyAssigner(16, 2, rng=RandomSource(seed=3))
        clock = create_clock("alice", NodeConfig(r=16, k=2), assigner=assigner)
        assert clock.own_keys == assigner.lookup("alice").keys

    def test_plausible_rejects_multi_key_override(self):
        with pytest.raises(ConfigurationError):
            SCHEMES["plausible"].build("x", 16, 1, (1, 2), None, None)


class TestCreateDetector:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("none", NullDetector),
            ("basic", BasicAlertDetector),
            ("refined", RefinedAlertDetector),
        ],
    )
    def test_each_detector_kind(self, name, kind):
        assert isinstance(create_detector(NodeConfig(detector=name)), kind)

    def test_detector_list_is_exhaustive(self):
        assert set(DETECTORS) == {"none", "basic", "refined"}


class TestCreateEndpoint:
    @pytest.mark.parametrize("scheme", tuple(SCHEMES))
    def test_every_scheme_yields_working_endpoint(self, scheme):
        """``create_endpoint`` runs the paper's clock; the endpoint
        itself runs every family's clock, as the simulator builds it."""
        if scheme == "probabilistic":
            endpoints = [create_endpoint(f"p{i}", NodeConfig(r=16, k=2)) for i in range(2)]
        else:
            family = SCHEMES[scheme]
            endpoints = [
                CausalBroadcastEndpoint(
                    f"p{i}", family.build(i, 16, 2, (i,), 4, i), NullDetector()
                )
                for i in range(2)
            ]
        message = endpoints[0].broadcast("hi")
        records = endpoints[1].on_receive(message)
        assert [r.message.payload for r in records] == ["hi"]

    def test_default_config_used_when_omitted(self):
        endpoint = create_endpoint("solo")
        assert isinstance(endpoint, CausalBroadcastEndpoint)

    def test_delivery_callback_wired(self):
        seen = []
        endpoint = create_endpoint("solo", on_delivery=seen.append)
        endpoint.broadcast("x")
        assert len(seen) == 1 and seen[0].local


class TestCreateNode:
    def test_node_over_bus_transport(self):
        async def scenario():
            bus = LocalAsyncBus()
            config = NodeConfig(r=32, k=2, anti_entropy_interval=0.0)
            a = await create_node("a", config, transport=bus.attach("a"))
            log = Deliveries()
            b = await create_node("b", config, transport=bus.attach("b"), on_delivery=log.append)
            assert isinstance(a, ReliableCausalNode)
            a.add_peer("b")
            b.add_peer("a")
            for payload in ("over the bus", "and again"):
                await a.broadcast(payload)
                # Let the ack round-trip settle before tearing down.
                for _ in range(1000):
                    if a.session.unacked_count("b") == 0:
                        break
                    await bus.drain()
                    await asyncio.sleep(0.01)
            assert log.payloads() == ["over the bus", "and again"]
            wire = a.transport_stats()
            await a.close()
            await b.close()
            return wire

        # The second message rides as a delta against the first.
        wire = asyncio.run(scenario())
        assert (wire.delta_sent, wire.full_sent) == (1, 1)

    def test_start_false_defers_background_tasks(self):
        async def scenario():
            bus = LocalAsyncBus()
            node = await create_node(
                "late", NodeConfig(r=16, k=2), transport=bus.attach("late"),
                start=False,
            )
            assert node.session._tick_task is None
            await node.start()
            assert node.session._tick_task is not None
            await node.close()

        asyncio.run(scenario())


class TestBackwardCompatibility:
    def test_old_constructors_still_work(self):
        """The facade must not break the hand-wired path."""
        from repro.core import (
            BasicAlertDetector,
            CausalBroadcastEndpoint,
            ProbabilisticCausalClock,
            RandomKeyAssigner,
        )

        assigner = RandomKeyAssigner(32, 3, rng=RandomSource(seed=1))
        endpoint = CausalBroadcastEndpoint(
            process_id="old-school",
            clock=ProbabilisticCausalClock(32, assigner.assign("old-school").keys),
            detector=BasicAlertDetector(),
        )
        endpoint.broadcast("still works")
        assert endpoint.stats.sent == 1

    def test_package_all_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"
