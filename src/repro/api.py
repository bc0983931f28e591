"""The one-call assembly API: configure a node, get a running endpoint.

A declarative :class:`NodeConfig` plus two factories:

* :func:`create_endpoint` — a transport-less protocol endpoint on the
  paper's (n, r, k) clock, for embedding in your own I/O;
* :func:`create_node` — a fully wired networked node: UDP transport (or
  any transport you pass), reliable session (acks, retransmission,
  anti-entropy) and the protocol endpoint.

The paper's parameters (R, K, the alert check) and the node's own
scalars are fields of the config; the other clock families (plausible,
Lamport, vector, Bloom) run in the simulator, ``SimulationConfig(clock=…)``.
Each optional layer is configured by handing it that layer's policy
object — absent means the layer is off::

    from repro.api import LivenessPolicy, NodeConfig, create_node

    config = NodeConfig(r=128, k=3, liveness=LivenessPolicy(heartbeat_interval=0.5))
    node = await create_node("alice", config)          # binds loopback UDP
    node.add_peer(("127.0.0.1", 9001))
    await node.broadcast({"op": "add", "item": "milk"})
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Sequence, Tuple

from repro.core.clocks import ProbabilisticCausalClock
from repro.core.detector import DeliveryErrorDetector, detector_class
from repro.core.errors import ConfigurationError
from repro.core.keyspace import HashKeyAssigner, KeyAssigner
from repro.core.protocol import CausalBroadcastEndpoint, DeliveryRecord
from repro.net.adaptive import AdaptiveClockController, AdaptivePolicy
from repro.net.membership import GroupMembership, MembershipConfig
from repro.net.node import ReliableCausalNode
from repro.net.overlay import PartialView
from repro.net.peer import Transport
from repro.net.session import LivenessPolicy, RetransmitPolicy
from repro.net.udp import BatchedUdpTransport

__all__ = [
    "NodeConfig",
    "RetransmitPolicy",
    "LivenessPolicy",
    "MembershipConfig",
    "AdaptivePolicy",
    "create_clock",
    "create_detector",
    "create_endpoint",
    "create_node",
]

DISSEMINATION_MODES = ("mesh", "overlay")

DeliveryHandler = Callable[[DeliveryRecord], None]


@dataclass(frozen=True)
class NodeConfig:
    """Everything needed to assemble one causal broadcast participant.

    The paper's clock, (n, r, k) with static per-process keys:

    Attributes:
        r: vector size R.
        k: entries per process K.  With explicit ``keys`` it is ``len(keys)``.
        detector: pre-delivery alert check — ``none`` | ``basic``
            (Algorithm 4) | ``refined`` (Algorithm 5).
        keys: explicit key set (overrides the hash-derived assignment):
            distinct entries in ``[0, r)``.
        detector_window: ``detector="refined"`` only — retain delivered
            messages in the recent list L for this many seconds (the
            paper recommends the order of the propagation time);
            ``None`` keeps L bounded by count alone.

    Transport and reliability (used by :func:`create_node`; payloads
    travel as JSON, :class:`~repro.core.codec.JsonPayloadCodec`):

    Attributes:
        host: bind address for the default UDP transport.
        port: bind port (0 picks an ephemeral port).
        rx_batch: receive-batch budget — max datagrams the default
            :class:`~repro.net.udp.BatchedUdpTransport` drains per
            event-loop wakeup.
        tx_batch: send-burst budget — max datagrams it writes per flush
            pass.
        retransmit: the reliable session's first retransmit timeout;
            see :class:`~repro.net.session.RetransmitPolicy`.
        anti_entropy_interval: seconds between digest rounds (0 disables).

    Dissemination (used by :func:`create_node`):

    Attributes:
        dissemination: how broadcasts spread — ``mesh`` (the default:
            one reliable unicast per peer, exact but O(N) per
            broadcast at the origin) or ``overlay`` (relay along
            per-origin eager trees over a partial view: about one copy
            per receiver, none of it growing with N at any node; the gap
            pull and anti-entropy heal what a tree loses).
        fanout: eager links a node starts with (``overlay`` only).
        view_size: bound on the gossip-maintained partial view
            (``overlay`` only; must be >= ``fanout``).

    Durability (used by :func:`create_node`):

    Attributes:
        data_dir: directory for the node's crash journal (WAL +
            snapshots); ``None`` (the default) runs without durability.
            A restart pointed at the same directory resumes with its
            pre-crash vector clock, sequence numbers, and frontiers.
        journal_snapshot_interval: WAL records between snapshots.
        journal_fsync: fsync the WAL per append (survives machine
            crashes, not just process crashes; costly).

    Optional layers (used by :func:`create_node`; ``None``, the default,
    leaves the layer out of the node):

    Attributes:
        liveness: heartbeats and peer quarantine; see
            :class:`~repro.net.session.LivenessPolicy`.
        membership: the live group-view layer
            (:class:`~repro.net.membership.GroupMembership`); see
            :class:`~repro.net.membership.MembershipConfig`.  With empty
            ``seed_peers`` the node bootstraps a group of one; otherwise
            :func:`create_node` joins through the seeds before returning.
            Forced eviction ages a liveness quarantine, so it only
            acts when ``liveness`` is set too.
        adaptive: the self-tuning (R, K) controller
            (:class:`~repro.net.adaptive.AdaptiveClockController`); see
            :class:`~repro.net.adaptive.AdaptivePolicy`.  Epoch bumps
            are negotiated through the group view: needs ``membership``.
            It reads X off Algorithm 4's alert rate at the current
            (R, K): needs ``detector="basic"``.

    Observability (used by :func:`create_node`):

    Attributes:
        metrics_path: append one metrics-registry snapshot per
            ``metrics_interval`` seconds to this JSONL file (plus a
            final line on close); ``None`` disables the exporter.
        metrics_interval: seconds between JSONL export lines.
        metrics_port: serve Prometheus text at
            ``http://127.0.0.1:<port>/metrics`` (0 picks an ephemeral
            port); ``None`` disables the endpoint.
    """

    r: int = 128
    k: int = 3
    detector: str = "basic"
    keys: Optional[Tuple[int, ...]] = None
    detector_window: Optional[float] = None
    host: str = "127.0.0.1"
    port: int = 0
    rx_batch: int = 32
    tx_batch: int = 32
    retransmit: RetransmitPolicy = RetransmitPolicy()
    anti_entropy_interval: float = 0.5
    dissemination: str = "mesh"
    fanout: int = 3
    view_size: int = 12
    data_dir: Optional[str] = None
    journal_snapshot_interval: int = 256
    journal_fsync: bool = False
    liveness: Optional[LivenessPolicy] = None
    membership: Optional[MembershipConfig] = None
    adaptive: Optional[AdaptivePolicy] = None
    metrics_path: Optional[str] = None
    metrics_interval: float = 1.0
    metrics_port: Optional[int] = None

    def __post_init__(self) -> None:
        # An unknown detector string raises listing the valid names
        # (never a silent fallback — a typo like "basci" must not pick
        # a detector).
        detector_class(self.detector)
        if self.dissemination not in DISSEMINATION_MODES:
            raise ConfigurationError(
                f"unknown dissemination {self.dissemination!r}; "
                f"expected one of {DISSEMINATION_MODES}"
            )
        if self.dissemination == "overlay":
            # PartialView owns the fanout / view_size rules: build one.
            self.build_overlay("__validate__")
        if self.rx_batch <= 0:
            raise ConfigurationError(f"rx_batch must be positive, got {self.rx_batch}")
        if self.tx_batch <= 0:
            raise ConfigurationError(f"tx_batch must be positive, got {self.tx_batch}")
        if self.r <= 0:
            raise ConfigurationError(f"vector size R must be positive, got {self.r}")
        if self.keys is not None:
            # The clock owns the key-set rules (distinct, in [0, r)):
            # build one.  It is built from the keys, so k follows.
            create_clock("__validate__", self)
            object.__setattr__(self, "k", len(self.keys))
        if self.k <= 0:
            raise ConfigurationError(f"key count K must be positive, got {self.k}")
        if self.k > self.r:
            raise ConfigurationError(f"need K <= R, got K={self.k}, R={self.r}")
        if self.anti_entropy_interval < 0:
            raise ConfigurationError(
                f"anti_entropy_interval must be >= 0, got {self.anti_entropy_interval}"
            )
        if self.journal_snapshot_interval <= 0:
            raise ConfigurationError(
                f"journal_snapshot_interval must be positive, "
                f"got {self.journal_snapshot_interval}"
            )
        if self.detector_window is not None and self.detector_window <= 0:
            raise ConfigurationError(
                f"detector_window must be > 0, got {self.detector_window}"
            )
        if self.metrics_interval <= 0:
            raise ConfigurationError(
                f"metrics_interval must be > 0, got {self.metrics_interval}"
            )
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ConfigurationError(
                f"metrics_port must lie in [0, 65535], got {self.metrics_port}"
            )
        # A policy object validates itself, so holding one is enough.
        for name, kind in (
            ("retransmit", RetransmitPolicy),
            ("liveness", LivenessPolicy),
            ("membership", MembershipConfig),
            ("adaptive", AdaptivePolicy),
        ):
            value = getattr(self, name)
            if value is None and name != "retransmit":
                continue  # the layer is off
            if not isinstance(value, kind):
                raise ConfigurationError(
                    f"{name} takes a {kind.__name__}, got {value!r}"
                )
        if self.adaptive is not None and self.membership is None:
            raise ConfigurationError(
                "adaptive needs membership: epoch bumps are negotiated "
                "through the group view"
            )
        if self.adaptive is not None and self.detector != "basic":
            raise ConfigurationError(
                "adaptive needs detector='basic': it reads X off "
                "Algorithm 4's alert rate at the current (R, K)"
            )

    def replace(self, **changes: Any) -> "NodeConfig":
        """A copy with the given fields changed (frozen-dataclass helper)."""
        return dataclasses.replace(self, **changes)

    def build_overlay(self, node_id: Hashable) -> PartialView:
        """The overlay knobs as a fresh partial view for ``node_id``."""
        return PartialView(
            local_id=node_id,
            fanout=self.fanout,
            view_size=self.view_size,
        )


def create_clock(
    node_id: Hashable,
    config: NodeConfig,
    *,
    assigner: Optional[KeyAssigner] = None,
) -> ProbabilisticCausalClock:
    """Build the paper's (n, r, k) clock for ``node_id``.

    The key set is ``config.keys`` when given, else
    ``assigner.assign(node_id)``, else coordination-free:
    :class:`HashKeyAssigner` over ``(0, node_id)``, so a node leaving
    and rejoining gets the same keys without any shared assigner state.

    Args:
        node_id: the process identity (drives hash key assignment).
        config: the node configuration.
        assigner: optional coordinated :class:`KeyAssigner`; when given,
            ``assigner.assign(node_id)`` replaces the hash assignment.
    """
    if config.keys is not None:
        keys: Sequence[int] = config.keys
    elif assigner is not None:
        keys = assigner.assign(node_id).keys
    else:
        keys = HashKeyAssigner(config.r, config.k).assign((0, node_id)).keys
    return ProbabilisticCausalClock(config.r, keys)


def create_detector(config: NodeConfig) -> DeliveryErrorDetector:
    """Build the configured delivery-error detector.

    An unrecognized name raises :class:`ConfigurationError` listing the
    valid detectors.
    """
    return detector_class(config.detector).build(window=config.detector_window)


def create_endpoint(
    node_id: Hashable,
    config: Optional[NodeConfig] = None,
    *,
    on_delivery: Optional[DeliveryHandler] = None,
    assigner: Optional[KeyAssigner] = None,
) -> CausalBroadcastEndpoint:
    """Build a transport-less protocol endpoint from a config.

    The endpoint is the pure protocol machine (Algorithms 1–2 plus the
    configured detector); feed it yourself, or use :func:`create_node`
    for the batteries-included networked version.
    """
    config = config if config is not None else NodeConfig()
    return CausalBroadcastEndpoint(
        process_id=str(node_id),
        clock=create_clock(node_id, config, assigner=assigner),
        detector=create_detector(config),
        deliver_callback=on_delivery,
    )


async def create_node(
    node_id: Hashable,
    config: Optional[NodeConfig] = None,
    *,
    transport: Optional[Transport] = None,
    on_delivery: Optional[DeliveryHandler] = None,
    assigner: Optional[KeyAssigner] = None,
    start: bool = True,
) -> ReliableCausalNode:
    """Build (and by default start) a fully wired networked node.

    Args:
        node_id: this node's identity.
        config: the node configuration (defaults to :class:`NodeConfig()`).
        transport: datagram substrate; ``None`` binds a fresh
            :class:`~repro.net.udp.BatchedUdpTransport` on
            ``(config.host, config.port)``.
        on_delivery: synchronous callback per delivery.
        assigner: optional coordinated key assigner (see :func:`create_clock`).
        start: start the retransmit timer and anti-entropy loop before
            returning (pass False to start manually later).
    """
    config = config if config is not None else NodeConfig()
    if transport is None:
        transport = await BatchedUdpTransport.create(
            host=config.host,
            port=config.port,
            rx_batch=config.rx_batch,
            tx_batch=config.tx_batch,
        )
    clock = create_clock(node_id, config, assigner=assigner)
    node = ReliableCausalNode(node_id, config, clock, transport, on_delivery)
    if config.membership is not None:
        GroupMembership(node, config.membership, assigner=assigner)
    if config.adaptive is not None:
        node.adaptive = AdaptiveClockController(node, config.adaptive)
    if start:
        await node.start()
        if config.membership is not None:
            if config.membership.seed_peers:
                await node.membership.join()
            else:
                node.membership.bootstrap()
    return node
