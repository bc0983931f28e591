"""The one-call assembly API: configure a node, get a running endpoint.

A declarative :class:`NodeConfig` plus two factories:

* :func:`create_endpoint` — a transport-less protocol endpoint (any
  member of the (n, r, k) clock family), for embedding in your own I/O;
* :func:`create_node` — a fully wired networked node: UDP transport (or
  any transport you pass), reliable session (acks, retransmission,
  anti-entropy) and the protocol endpoint.

The paper's parameters (R, K, the alert check) and the node's own
scalars are fields of the config; each optional layer is configured by
handing it that layer's policy object — absent means the layer is off::

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

from repro.core.clocks import EntryVectorClock
from repro.core.codec import JsonPayloadCodec, MessageCodec, RawBytesPayloadCodec
from repro.core.detector import DeliveryErrorDetector
from repro.core.errors import ConfigurationError
from repro.core.keyspace import HashKeyAssigner, KeyAssigner
from repro.core.protocol import CausalBroadcastEndpoint, DeliveryRecord
from repro.core.registry import ClockBuildContext, get_clock_spec, get_detector_spec
from repro.net.adaptive import AdaptiveClockController, AdaptivePolicy
from repro.net.journal import NodeJournal
from repro.net.liveness import LivenessPolicy
from repro.net.membership import GroupMembership, MembershipConfig
from repro.net.node import ReliableCausalNode
from repro.net.overlay import PartialView
from repro.net.peer import Transport
from repro.net.session import RetransmitPolicy
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

PAYLOAD_CODECS = ("json", "raw")
DISSEMINATION_MODES = ("mesh", "overlay")

DeliveryHandler = Callable[[DeliveryRecord], None]


@dataclass(frozen=True)
class NodeConfig:
    """Everything needed to assemble one causal broadcast participant.

    Clock family (the paper's (a, b, c) design space):

    Attributes:
        r: vector size R (ignored by ``lamport``; equals N for ``vector``).
        k: entries per process K (``probabilistic`` and ``bloom``; the
            others fix it).  With explicit ``keys`` it is ``len(keys)``.
        scheme: ``probabilistic`` (n, r, k) | ``plausible`` (n, r, 1) |
            ``lamport`` (n, 1, 1) | ``vector`` (n, n, 1) | ``bloom``
            (per-event hashed keys).
        n: system size; required by ``scheme="vector"`` (it sizes the vector).
        detector: pre-delivery alert check — ``none`` | ``basic``
            (Algorithm 4) | ``refined`` (Algorithm 5).
        keys: explicit key set (overrides the hash-derived assignment):
            distinct entries in ``[0, r)``.
        keyspace_seed: salts the coordination-free hash key assignment,
            so disjoint deployments draw independent key sets.
        detector_window: ``detector="refined"`` only — retain delivered
            messages in the recent list L for this many seconds (the
            paper recommends the order of the propagation time);
            ``None`` keeps L bounded by count alone.

    Transport and reliability (used by :func:`create_node`):

    Attributes:
        host: bind address for the default UDP transport.
        port: bind port (0 picks an ephemeral port).
        rx_batch: receive-batch budget — max datagrams the default
            :class:`~repro.net.udp.BatchedUdpTransport` drains per
            event-loop wakeup.
        tx_batch: send-burst budget — max datagrams it writes per flush
            pass.
        payload_codec: application payload wire format: ``json`` | ``raw``.
        retransmit: the reliable session's first retransmit timeout;
            see :class:`~repro.net.session.RetransmitPolicy`.
        anti_entropy_interval: seconds between digest rounds (0 disables).
        max_pending: optional safety bound on the endpoint's pending queue.

    Dissemination (used by :func:`create_node`):

    Attributes:
        dissemination: how broadcasts spread — ``mesh`` (the default:
            one reliable unicast per peer, exact but O(N) per
            broadcast at the origin) or ``overlay`` (bounded-fanout
            relay gossip over a partial view: O(fanout) per node per
            broadcast, anti-entropy heals the probabilistic tail).
        fanout: relay targets per push (``overlay`` only).
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
            :class:`~repro.net.liveness.LivenessPolicy`.
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
    scheme: str = "probabilistic"
    n: Optional[int] = None
    detector: str = "basic"
    keys: Optional[Tuple[int, ...]] = None
    keyspace_seed: int = 0
    detector_window: Optional[float] = None
    host: str = "127.0.0.1"
    port: int = 0
    rx_batch: int = 32
    tx_batch: int = 32
    payload_codec: str = "json"
    retransmit: RetransmitPolicy = RetransmitPolicy()
    anti_entropy_interval: float = 0.5
    max_pending: Optional[int] = None
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
        # Unknown scheme / detector strings raise listing the valid
        # names (never a silent fallback — a typo like "basci" must not
        # pick a detector).
        spec = get_clock_spec(self.scheme)
        get_detector_spec(self.detector)
        if self.payload_codec not in PAYLOAD_CODECS:
            raise ConfigurationError(
                f"unknown payload codec {self.payload_codec!r}; "
                f"expected one of {PAYLOAD_CODECS}"
            )
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
        if spec.needs_dense_index and self.n is None:
            raise ConfigurationError(
                f"scheme={self.scheme!r} needs n (the system size)"
            )
        if self.r <= 0:
            raise ConfigurationError(f"vector size R must be positive, got {self.r}")
        if self.keys is not None and spec.needs_key_assignment:
            # The clock owns the key-set rules (distinct, in [0, r), one
            # entry for a fixed-K scheme): build one.
            create_clock("__validate__", self)
            if spec.fixed_k is None:
                # One K: the clock is built from the keys, so k follows.
                object.__setattr__(self, "k", len(self.keys))
        if self.k <= 0:
            raise ConfigurationError(f"key count K must be positive, got {self.k}")
        if spec.fixed_k is None and spec.fixed_r is None and self.k > self.r:
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


def _hash_keys(node_id: Hashable, config: NodeConfig, k: int) -> Tuple[int, ...]:
    """Coordination-free key assignment: stable per (seed, node id).

    Uses :class:`HashKeyAssigner` so a node leaving and rejoining gets
    the same keys without any shared assigner state — the right default
    for networked nodes that cannot consult a central allocator.
    """
    assigner = HashKeyAssigner(config.r, k)
    return assigner.assign((config.keyspace_seed, node_id)).keys


def create_clock(
    node_id: Hashable,
    config: NodeConfig,
    *,
    index: Optional[int] = None,
    assigner: Optional[KeyAssigner] = None,
) -> EntryVectorClock:
    """Build the configured clock-family member for ``node_id``.

    Resolves the scheme through :mod:`repro.core.registry` and fills a
    :class:`~repro.core.registry.ClockBuildContext` with what the spec's
    capability descriptors declare it needs.

    Args:
        node_id: the process identity (drives hash key assignment).
        config: the node configuration.
        index: dense process index, required by ``scheme="vector"``.
        assigner: optional coordinated :class:`KeyAssigner`; when given,
            ``assigner.assign(node_id)`` replaces the hash assignment
            (key-assignment schemes only).
    """
    spec = get_clock_spec(config.scheme)
    keys: Sequence[int] = ()
    if spec.needs_key_assignment:
        if config.keys is not None:
            keys = config.keys
        elif assigner is not None:
            keys = assigner.assign(node_id).keys
        else:
            keys = _hash_keys(node_id, config, spec.fixed_k or config.k)
    context = ClockBuildContext(
        node_id=node_id,
        r=config.r,
        k=spec.fixed_k or config.k,
        n=config.n,
        index=index,
        keys=tuple(int(key) for key in keys),
    )
    return spec.factory(context)


def create_detector(config: NodeConfig) -> DeliveryErrorDetector:
    """Build the configured delivery-error detector.

    An unrecognized name raises :class:`ConfigurationError` listing the
    valid detectors.
    """
    return get_detector_spec(config.detector).build(window=config.detector_window)


def create_endpoint(
    node_id: Hashable,
    config: Optional[NodeConfig] = None,
    *,
    on_delivery: Optional[DeliveryHandler] = None,
    index: Optional[int] = None,
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
        clock=create_clock(node_id, config, index=index, assigner=assigner),
        detector=create_detector(config),
        deliver_callback=on_delivery,
        max_pending=config.max_pending,
    )


def _message_codec(config: NodeConfig) -> MessageCodec:
    payload = JsonPayloadCodec() if config.payload_codec == "json" else RawBytesPayloadCodec()
    return MessageCodec(payload_codec=payload, scheme=config.scheme)


async def create_node(
    node_id: Hashable,
    config: Optional[NodeConfig] = None,
    *,
    transport: Optional[Transport] = None,
    on_delivery: Optional[DeliveryHandler] = None,
    index: Optional[int] = None,
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
        index: dense process index (``scheme="vector"`` only).
        assigner: optional coordinated key assigner (see :func:`create_clock`).
        start: start the retransmit timer and anti-entropy loop before
            returning (pass False to start manually later).
    """
    config = config if config is not None else NodeConfig()
    spec = get_clock_spec(config.scheme)
    if transport is None:
        transport = await BatchedUdpTransport.create(
            host=config.host,
            port=config.port,
            rx_batch=config.rx_batch,
            tx_batch=config.tx_batch,
        )
    clock = create_clock(node_id, config, index=index, assigner=assigner)
    journal = None
    if config.data_dir is not None:
        journal = NodeJournal(
            data_dir=config.data_dir,
            node_id=node_id,
            r=clock.r,
            own_keys=clock.own_keys,
            snapshot_interval=config.journal_snapshot_interval,
            fsync=config.journal_fsync,
        )
    node = ReliableCausalNode(
        node_id=node_id,
        clock=clock,
        transport=transport,
        detector=create_detector(config),
        codec=_message_codec(config),
        on_delivery=on_delivery,
        policy=config.retransmit,
        anti_entropy_interval=config.anti_entropy_interval,
        max_pending=config.max_pending,
        journal=journal,
        liveness=config.liveness,
        overlay=(
            config.build_overlay(node_id)
            if config.dissemination == "overlay"
            else None
        ),
        # A delta carries no keys (the receiver takes them from the
        # full it names), so schemes that draw keys per message (bloom)
        # always send the full encoding.
        wire_delta=not spec.per_message_keys,
        metrics_path=config.metrics_path,
        metrics_interval=config.metrics_interval,
        metrics_port=config.metrics_port,
    )
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
