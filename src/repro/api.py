"""The one-call assembly API: configure a node, get a running endpoint.

Hand-wiring a deployable participant used to take five constructors
(keyspace → clock → detector → endpoint → transport).  This module
collapses that into a declarative :class:`NodeConfig` plus two factories:

* :func:`create_endpoint` — a transport-less protocol endpoint (any
  member of the (n, r, k) clock family), for embedding in your own I/O;
* :func:`create_node` — a fully wired networked node: UDP transport (or
  any transport you pass), reliable session (acks, retransmission,
  anti-entropy) and the protocol endpoint.

Every point of the paper's design space is one config away::

    from repro.api import NodeConfig, create_node

    config = NodeConfig(r=128, k=3, scheme="probabilistic")
    node = await create_node("alice", config)          # binds loopback UDP
    node.add_peer(("127.0.0.1", 9001))
    await node.start()
    await node.broadcast({"op": "add", "item": "milk"})

The old constructors keep working — this is a facade, not a rewrite.
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
from repro.core.registry import (
    ClockBuildContext,
    clock_schemes,
    detector_names,
    get_clock_spec,
    get_detector_spec,
)
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
    "create_clock",
    "create_detector",
    "create_endpoint",
    "create_node",
]

# Snapshots of the registries at import time (the built-ins).  Validation
# resolves through the live registry (repro.core.registry), so schemes
# and detectors registered after import work verbatim.
SCHEMES = clock_schemes()
DETECTORS = detector_names()
PAYLOAD_CODECS = ("json", "raw")
DISSEMINATION_MODES = ("mesh", "overlay")

DeliveryHandler = Callable[[DeliveryRecord], None]


@dataclass(frozen=True)
class NodeConfig:
    """Everything needed to assemble one causal broadcast participant.

    Clock family (the paper's (a, b, c) design space):

    Attributes:
        r: vector size R (ignored by ``lamport``; equals N for ``vector``).
        k: entries per process K (``probabilistic`` only; the others fix it).
        scheme: ``probabilistic`` (n, r, k) | ``plausible`` (n, r, 1) |
            ``lamport`` (n, 1, 1) | ``vector`` (n, n, 1) | ``bloom``
            (per-event hashed keys) — or any scheme registered through
            :func:`repro.core.registry.register_clock`.
        n: system size; required by ``scheme="vector"`` (it sizes the vector).
        detector: pre-delivery alert check — ``none`` | ``basic``
            (Algorithm 4) | ``refined`` (Algorithm 5).
        keys: explicit key set (overrides the hash-derived assignment).
        keyspace_seed: salts the coordination-free hash key assignment,
            so disjoint deployments draw independent key sets.

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
        ack_timeout: initial retransmit timeout in seconds.
        backoff_factor: exponential backoff multiplier per retransmission.
        max_retries: retransmissions before a frame is left to anti-entropy.
        send_buffer: per-peer unacked-frame bound (backpressure beyond it).
        coalesce_mtu: per-datagram budget for frame coalescing — queued
            frames flush as one BATCH datagram when they fill it.
        flush_interval: how long a queued frame may wait for company
            before its batch flushes anyway (seconds).
        ack_delay: delayed-ack window — received data is acknowledged
            once per window with one cumulative ACK, piggybacked onto
            outgoing batches when traffic is bidirectional.
        anti_entropy_interval: seconds between digest rounds (0 disables).
        store_limit: bound on the recent-messages store serving anti-entropy.
        max_pending: optional safety bound on the endpoint's pending queue.

    Durability and liveness (used by :func:`create_node`):

    Attributes:
        data_dir: directory for the node's crash journal (WAL +
            snapshots); ``None`` (the default) runs without durability.
            A restart pointed at the same directory resumes with its
            pre-crash vector clock, sequence numbers, and frontiers.
        journal_snapshot_interval: WAL records between snapshots.
        journal_fsync: fsync the WAL per append (survives machine
            crashes, not just process crashes; costly).
        heartbeat_interval: seconds between HEARTBEAT frames to every
            peer; 0 (the default) disables the failure detector.
        quarantine_after: silence after which a peer is quarantined
            (retransmissions pause, broadcasts skip it) until it is
            heard from again.

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

    Dynamic membership (used by :func:`create_node`):

    Attributes:
        membership: run the live group-view layer
            (:class:`~repro.net.membership.GroupMembership`).  With an
            empty ``seed_peers`` the node bootstraps a group of one;
            otherwise :func:`create_node` joins it through the seeds
            before returning.
        seed_peers: ``(host, port)`` addresses of running members the
            JOIN handshake contacts first.
        join_timeout: seconds to wait for a JOIN_ACK before retrying.
        join_retries: JOIN retransmissions after the first attempt.
        join_backoff: multiplier on the join timeout per attempt.
        evict_after: seconds a member may sit in liveness quarantine
            before the acting coordinator evicts it from the view
            (0 disables forced eviction; needs ``heartbeat_interval``
            > 0 to matter, since quarantine is what ages into it).
        view_announce_interval: seconds between the coordinator's
            periodic VIEW re-announcements and eviction sweeps.

    Adaptive clock sizing (used by :func:`create_node`):

    Attributes:
        adaptive: run the self-tuning (R, K) controller
            (:class:`~repro.net.adaptive.AdaptiveClockController`):
            every ``adaptive_interval`` seconds the node re-estimates
            the in-flight concurrency X from its own metrics stream,
            and the acting coordinator renegotiates the group's K via
            an epoch bump whenever the measured alert rate leaves
            ``adaptive_band``.  Requires ``membership=True``.
        adaptive_interval: seconds between controller decisions.
        adaptive_band: ``(low, high)`` target alert-rate band (alerts
            per delivery); inside it the controller holds.
        adaptive_k_max: upper bound on the negotiated K.

    Observability (used by :func:`create_node`):

    Attributes:
        detector_window: ``detector="refined"`` only — retain delivered
            messages in the recent list L for this many seconds (the
            paper recommends the order of the propagation time);
            ``None`` keeps L bounded by count alone.
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
    host: str = "127.0.0.1"
    port: int = 0
    rx_batch: int = 32
    tx_batch: int = 32
    payload_codec: str = "json"
    ack_timeout: float = 0.05
    backoff_factor: float = 2.0
    max_retries: int = 10
    send_buffer: int = 1024
    coalesce_mtu: int = 1400
    flush_interval: float = 0.001
    ack_delay: float = 0.005
    anti_entropy_interval: float = 0.5
    store_limit: int = 8192
    max_pending: Optional[int] = None
    dissemination: str = "mesh"
    fanout: int = 3
    view_size: int = 12
    data_dir: Optional[str] = None
    journal_snapshot_interval: int = 256
    journal_fsync: bool = False
    heartbeat_interval: float = 0.0
    quarantine_after: float = 2.0
    membership: bool = False
    seed_peers: Tuple[Any, ...] = ()
    join_timeout: float = 1.0
    join_retries: int = 5
    join_backoff: float = 2.0
    evict_after: float = 10.0
    view_announce_interval: float = 2.0
    adaptive: bool = False
    adaptive_interval: float = 5.0
    adaptive_band: Tuple[float, float] = (0.0, 0.05)
    adaptive_k_max: int = 16
    detector_window: Optional[float] = None
    metrics_path: Optional[str] = None
    metrics_interval: float = 1.0
    metrics_port: Optional[int] = None

    def __post_init__(self) -> None:
        # Strict registry validation: unknown scheme / detector strings
        # raise listing the registered names (never a silent
        # fallback — a typo like "basci" must not pick a detector).
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
            # Fails fast on bad overlay knobs (the view re-checks).
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
        if self.heartbeat_interval < 0:
            raise ConfigurationError(
                f"heartbeat_interval must be >= 0, got {self.heartbeat_interval}"
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
        if self.seed_peers and not self.membership:
            raise ConfigurationError(
                "seed_peers given but membership=False; enable the "
                "membership layer to join a group"
            )
        if self.membership:
            # Fails fast on bad membership knobs (the layer re-checks).
            self.membership_config()
        if self.adaptive:
            if not self.membership:
                raise ConfigurationError(
                    "adaptive=True needs membership=True: epoch bumps "
                    "are negotiated through the group view"
                )
            # Fails fast on bad controller knobs (the policy re-checks).
            self.adaptive_policy()
        # Fails fast on bad reliability knobs (the session re-checks).
        self.retransmit_policy()
        if self.heartbeat_interval > 0:
            # Fails fast on an inconsistent pair (the policy re-checks).
            LivenessPolicy(
                heartbeat_interval=self.heartbeat_interval,
                quarantine_after=self.quarantine_after,
            )

    def replace(self, **changes: Any) -> "NodeConfig":
        """A copy with the given fields changed (frozen-dataclass helper)."""
        return dataclasses.replace(self, **changes)

    def retransmit_policy(self) -> RetransmitPolicy:
        """The reliability knobs as a session policy."""
        return RetransmitPolicy(
            initial_timeout=self.ack_timeout,
            backoff_factor=self.backoff_factor,
            max_retries=self.max_retries,
            send_buffer=self.send_buffer,
            coalesce_mtu=self.coalesce_mtu,
            flush_interval=self.flush_interval,
            ack_delay=self.ack_delay,
        )

    def build_overlay(self, node_id: Hashable) -> PartialView:
        """The overlay knobs as a fresh partial view for ``node_id``."""
        return PartialView(
            local_id=node_id,
            fanout=self.fanout,
            view_size=self.view_size,
        )

    def adaptive_policy(self) -> AdaptivePolicy:
        """The adaptive clock-sizing knobs as a controller policy."""
        return AdaptivePolicy(
            interval=self.adaptive_interval,
            band=tuple(self.adaptive_band),
            k_max=self.adaptive_k_max,
        )

    def membership_config(self) -> MembershipConfig:
        """The dynamic-membership knobs as a layer config."""
        return MembershipConfig(
            seed_peers=tuple(self.seed_peers),
            join_timeout=self.join_timeout,
            join_retries=self.join_retries,
            join_backoff=self.join_backoff,
            evict_after=self.evict_after,
            announce_interval=self.view_announce_interval,
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

    Resolves through the detector registry: an unrecognized name raises
    :class:`ConfigurationError` listing the registered detectors.
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
    liveness = None
    if config.heartbeat_interval > 0:
        liveness = LivenessPolicy(
            heartbeat_interval=config.heartbeat_interval,
            quarantine_after=config.quarantine_after,
        )
    node = ReliableCausalNode(
        node_id=node_id,
        clock=clock,
        transport=transport,
        detector=create_detector(config),
        codec=_message_codec(config),
        on_delivery=on_delivery,
        policy=config.retransmit_policy(),
        anti_entropy_interval=config.anti_entropy_interval,
        store_limit=config.store_limit,
        max_pending=config.max_pending,
        journal=journal,
        liveness=liveness,
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
    if config.membership:
        GroupMembership(node, config.membership_config(), assigner=assigner)
    if config.adaptive:
        node.adaptive = AdaptiveClockController(node, config.adaptive_policy())
    if start:
        await node.start()
        if node.membership is not None:
            if config.seed_peers:
                await node.membership.join()
            else:
                node.membership.bootstrap()
    return node
