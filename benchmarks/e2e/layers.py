"""The layer map: which public functions are traced, which public
counters are read, and how both become the per-layer metrics.

A *layer* is a module of ``repro``.  Everything here reaches a layer
through its public functions and public stats objects only — nothing
under ``src/`` is edited for the benchmark.

Span names are ``<layer>/<Class.method>``; the part before the slash is
the budget line the span's self time is charged to.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from spans import ASYNC, GENERATOR, SYNC, SpanTotals, Tracer

# (module, class, attribute, kind).  Each class must define the attribute
# itself; the clock family and the detectors inherit theirs from the
# base classes named here, so one patch covers every scheme.
TRACED_FUNCTIONS: Tuple[Tuple[str, str, str, str], ...] = (
    ("core.codec", "MessageCodec", "encode", SYNC),
    ("core.codec", "MessageCodec", "decode", SYNC),
    ("core.codec", "MessageCodec", "encode_delta", SYNC),
    ("core.codec", "MessageCodec", "decode_delta", SYNC),
    ("core.codec", "MessageCodec", "delta_header", SYNC),
    ("core.codec", "FrameCodec", "encode", SYNC),
    ("core.codec", "FrameCodec", "decode", SYNC),
    ("core.codec", "FrameCodec", "encode_data_body", SYNC),
    ("core.codec", "FrameCodec", "encode_data_with_body", SYNC),
    ("core.protocol", "CausalBroadcastEndpoint", "broadcast", SYNC),
    ("core.protocol", "CausalBroadcastEndpoint", "on_receive", SYNC),
    ("core.pending", "PendingBuffer", "add", SYNC),
    ("core.pending", "PendingBuffer", "drain", SYNC),
    ("core.pending", "PendingBuffer", "notify_increment", SYNC),
    ("core.pending", "SeenFilter", "add", SYNC),
    ("core.clocks", "EntryVectorClock", "prepare_send", SYNC),
    ("core.clocks", "EntryVectorClock", "is_deliverable", SYNC),
    ("core.clocks", "EntryVectorClock", "record_delivery", SYNC),
    ("core.detector", "DeliveryErrorDetector", "check", SYNC),
    ("net.node", "MessageStore", "add", SYNC),
    ("net.node", "MessageStore", "missing_for", GENERATOR),
    ("net.node", "MessageStore", "frontiers", SYNC),
    ("net.node", "ReliableCausalNode", "broadcast", ASYNC),
    ("net.session", "ReliableSession", "push", SYNC),
    ("net.session", "ReliableSession", "send_relay", SYNC),
    ("net.session", "ReliableSession", "flush", SYNC),
    ("net.session", "ReliableSession", "data_body", SYNC),
    ("net.session", "ReliableSession", "send", ASYNC),
    ("net.session", "ReliableSession", "send_digest", ASYNC),
    ("net.udp", "BatchedUdpTransport", "send_now", SYNC),
    ("net.overlay", "PartialView", "push_targets", SYNC),
    ("net.overlay", "PartialView", "merge_sample", SYNC),
    ("net.overlay", "PartialView", "gossip_sample", SYNC),
    ("net.overlay", "PartialView", "digest_targets", SYNC),
)

# Callbacks the session hands downwards (its ingress) and the node hands
# to the session (its intake): wrapped where they are registered.
INGRESS = "net.session/ingress"
ON_MESSAGE = "net.node/on_message"
ON_DIGEST = "net.node/on_digest"
ON_RELAY = "net.node/on_relay"
HARNESS_DELIVERY = "harness/on_delivery"

# Budget lines, in pipeline order; "harness" is the benchmark's own
# delivery callback (ledger + oracle).
BUDGET_LAYERS: Tuple[str, ...] = (
    "core.codec", "core.clocks", "core.protocol", "core.pending",
    "core.detector", "net.node", "net.session", "net.udp", "net.overlay",
    "harness",
)

# metric -> span names whose self time it sums (µs per delivery).
SELF_TIME_METRICS: Dict[str, Tuple[str, ...]] = {
    "codec.message_encode_us": ("core.codec/MessageCodec.encode",),
    "codec.message_decode_us": ("core.codec/MessageCodec.decode",),
    "codec.delta_encode_us": ("core.codec/MessageCodec.encode_delta",),
    "codec.delta_decode_us": (
        "core.codec/MessageCodec.decode_delta",
        "core.codec/MessageCodec.delta_header",
    ),
    "codec.frame_encode_us": (
        "core.codec/FrameCodec.encode",
        "core.codec/FrameCodec.encode_data_body",
        "core.codec/FrameCodec.encode_data_with_body",
    ),
    "codec.frame_decode_us": ("core.codec/FrameCodec.decode",),
    "protocol.broadcast_us": ("core.protocol/CausalBroadcastEndpoint.broadcast",),
    "protocol.on_receive_us": ("core.protocol/CausalBroadcastEndpoint.on_receive",),
    "pending.self_us": (
        "core.pending/PendingBuffer.add",
        "core.pending/PendingBuffer.drain",
        "core.pending/PendingBuffer.notify_increment",
    ),
    "pending.seen_filter_us": ("core.pending/SeenFilter.add",),
    "detector.check_us": ("core.detector/DeliveryErrorDetector.check",),
    "store.add_us": ("net.node/MessageStore.add",),
    "store.missing_for_us": ("net.node/MessageStore.missing_for",),
    "store.frontiers_us": ("net.node/MessageStore.frontiers",),
    "node.intake_us": (ON_MESSAGE,),
    "node.relay_intake_us": (ON_RELAY,),
    "node.digest_us": (ON_DIGEST,),
    "session.ingress_us": (INGRESS,),
    "session.push_us": ("net.session/ReliableSession.push",),
    "session.send_relay_us": ("net.session/ReliableSession.send_relay",),
    "udp.send_now_us": ("net.udp/BatchedUdpTransport.send_now",),
}

# metric -> budget layer whose whole self time it reports.
LAYER_TOTAL_METRICS: Dict[str, str] = {
    "codec.self_us": "core.codec",
    "clocks.self_us": "core.clocks",
    "session.self_us": "net.session",
    "overlay.self_us": "net.overlay",
    "harness.self_us": "harness",
}

# metric -> async span whose awaited wall time it reports (µs per delivery).
AWAITED_METRICS: Dict[str, str] = {
    "node.broadcast_wait_us": "net.node/ReliableCausalNode.broadcast",
    "session.send_wait_us": "net.session/ReliableSession.send",
}


def install(tracer: Tracer) -> None:
    """Patch every traced function; must run before any node is built
    (sessions bind ``transport.send_now`` at construction)."""
    import importlib

    for module_name, class_name, attribute, kind in TRACED_FUNCTIONS:
        module = importlib.import_module(f"repro.{module_name}")
        tracer.patch(
            getattr(module, class_name), attribute, kind,
            f"{module_name}/{class_name}.{attribute}",
        )
    from repro.net.session import ReliableSession
    from repro.net.udp import BatchedUdpTransport

    # The session's ingress is whatever it registers as the transport's
    # receiver; FaultyTransport forwards set_receiver to the socket
    # transport it wraps, so patching the socket transport covers both.
    for method in ("set_receiver", "set_batch_receiver"):
        tracer.wrap_arguments(BatchedUdpTransport, method, {"callback": INGRESS})
    tracer.wrap_arguments(
        ReliableSession, "__init__",
        {"on_message": ON_MESSAGE, "on_digest": ON_DIGEST, "on_relay": ON_RELAY},
    )


# ----------------------------------------------------------------------
# public counters
# ----------------------------------------------------------------------


def snapshot_counters(nodes: Sequence, oracle) -> Dict[str, float]:
    """Every public counter the layers keep, summed over ``nodes``.

    Taken at the start and at the end of the timed region; the metrics
    are computed from the difference.  ``pending.peak`` is a high-water
    mark since node start (it cannot be reset from outside), reported as
    the maximum over nodes.
    """
    total: Counter = Counter()
    peak = 0
    for node in nodes:
        for prefix, stats in (
            ("wire", node.transport_stats()),
            ("endpoint", node.endpoint.stats),
            ("detector", node.endpoint.detector.stats),
            ("store", node.store.stats),
        ):
            for field in dataclasses.fields(stats):
                value = getattr(stats, field.name)
                if isinstance(value, int):
                    total[f"{prefix}.{field.name}"] += value
        peak = max(peak, node.endpoint.stats.pending_peak)
        for tallies in (node.codec_counters, node.session.codec_counters):
            for name, value in tallies.snapshot().items():
                total[f"codec.{name}"] += value
        total["node.decode_errors"] += node.decode_errors
        total["session.frame_errors"] += node.session.frame_errors
        io_stats = getattr(node.transport, "io_stats", None)
        if io_stats is not None:
            for name, value in io_stats.snapshot().items():
                if not name.endswith("_max"):
                    total[f"io.{name}"] += value
        if node.overlay is not None:
            for field in dataclasses.fields(node.overlay.stats):
                total[f"overlay.{field.name}"] += getattr(node.overlay.stats, field.name)
        for name in ("dropped", "reordered"):
            total[f"faults.{name}"] += getattr(node.transport, name, 0)
    for name in ("deliveries", "violations", "ambiguous"):
        total[f"oracle.{name}"] = getattr(oracle.totals, name)
    total.pop("endpoint.pending_peak", None)
    out = dict(total)
    out["pending.peak"] = peak
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(delta: Mapping[str, float], operations: int) -> Dict[str, float]:
    """Per-layer ratios and counts from the public counters of one run
    (``delta`` = end snapshot − start snapshot, ``pending.peak`` as is)."""
    def get(name: str) -> float:
        return delta.get(name, 0)  # a layer the workload does not use reads 0

    return {
        "codec.retained_bytes_per_delivery": _ratio(get("codec.retained_bytes"), operations),
        "protocol.duplicate_ratio": _ratio(
            get("endpoint.duplicates"), get("endpoint.received")
        ),
        "protocol.causal_violation_ratio": _ratio(
            get("oracle.violations") + get("oracle.ambiguous"), get("oracle.deliveries")
        ),
        "pending.peak_depth": get("pending.peak"),
        "detector.alert_ratio": _ratio(get("detector.alerts"), get("detector.checks")),
        "store.evictions": get("store.evictions"),
        "session.frames_per_datagram": _ratio(
            get("wire.frames_sent"), get("wire.datagrams_sent")
        ),
        "session.ack_piggyback_ratio": _ratio(
            get("wire.acks_piggybacked"), get("wire.acks_sent")
        ),
        "session.retransmit_ratio": _ratio(get("wire.retransmits"), get("wire.data_sent")),
        "session.nacks_per_delivery": _ratio(get("wire.nacks_sent"), operations),
        "session.drops": get("wire.drops"),
        "session.digests_per_delivery": _ratio(get("wire.digests_sent"), operations),
        "session.delta_share": _ratio(
            get("wire.delta_sent"), get("wire.delta_sent") + get("wire.full_sent")
        ),
        "session.delta_ref_miss_ratio": _ratio(
            get("wire.delta_ref_misses"), get("wire.delta_sent")
        ),
        "udp.rx_datagrams_per_wakeup": _ratio(get("io.rx_datagrams"), get("io.rx_wakeups")),
        "udp.tx_datagrams_per_flush": _ratio(get("io.tx_datagrams"), get("io.tx_flushes")),
        "udp.rx_budget_exhausted_ratio": _ratio(
            get("io.rx_budget_exhausted"), get("io.rx_wakeups")
        ),
        "udp.tx_blocked": get("io.tx_blocked"),
        "overlay.relay_duplicate_ratio": _ratio(
            get("overlay.relay_duplicates"),
            get("overlay.relay_duplicates") + get("overlay.relay_first_intake"),
        ),
        "overlay.forwards_per_delivery": _ratio(get("overlay.relay_forwarded"), operations),
        "faults.dropped_ratio": _ratio(get("faults.dropped"), get("wire.datagrams_sent")),
        "faults.reordered_ratio": _ratio(get("faults.reordered"), get("wire.datagrams_sent")),
    }


# ----------------------------------------------------------------------
# span attribution
# ----------------------------------------------------------------------


def budget(totals: SpanTotals, operations: int) -> Dict[str, float]:
    """Self time per budget layer, in µs per delivery."""
    lines = {layer: 0.0 for layer in BUDGET_LAYERS}
    for name, (_calls, self_seconds, _total) in totals.items():
        lines[name.split("/", 1)[0]] += self_seconds
    return {layer: seconds * 1e6 / operations for layer, seconds in lines.items()}


def span_metrics(
    totals: SpanTotals,
    awaited: Mapping[str, Iterable[float]],
    operations: int,
) -> Dict[str, float]:
    """Per-layer times (µs per delivery) and call-derived ratios from
    the traced run's spans."""
    def self_us(names: Iterable[str]) -> float:
        return sum(totals.get(name, (0, 0.0, 0.0))[1] for name in names) * 1e6 / operations

    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0, 0.0))[0]

    metrics = {metric: self_us(names) for metric, names in SELF_TIME_METRICS.items()}
    lines = budget(totals, operations)
    for metric, layer in LAYER_TOTAL_METRICS.items():
        metrics[metric] = lines[layer]
    for metric, name in AWAITED_METRICS.items():
        _count, seconds = awaited.get(name, (0, 0.0))
        metrics[metric] = seconds * 1e6 / operations
    digests = calls(ON_DIGEST)
    metrics["codec.message_encode_calls"] = _ratio(
        calls("core.codec/MessageCodec.encode"), operations
    )
    metrics["store.missing_for_calls"] = digests
    metrics["store.served_per_digest"] = _ratio(
        calls("net.session/ReliableSession.push"), digests
    )
    # A receive that is neither a duplicate nor delivered on arrival
    # joins the pending buffer; no public counter tells them apart.
    metrics["pending.pended_ratio"] = _ratio(
        calls("core.pending/PendingBuffer.add"),
        calls("core.protocol/CausalBroadcastEndpoint.on_receive"),
    )
    return metrics


def span_summary(totals: SpanTotals) -> List[dict]:
    """The raw per-name table for the result file (most expensive first)."""
    rows = [
        {"name": name, "calls": calls, "self_s": self_seconds, "total_s": total_seconds}
        for name, (calls, self_seconds, total_seconds) in totals.items()
    ]
    return sorted(rows, key=lambda row: -row["self_s"])
