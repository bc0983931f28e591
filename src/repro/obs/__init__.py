"""``repro.obs`` — the dependency-free observability layer.

One registry per node (or per simulation run), constant labels for
identity, collectors that read counters and gauges off the runtime's
existing stats structs, push histograms on the few paths that need
distributions, a trace-event ring for discrete incidents, a JSONL
exporter for durable series, and a minimal Prometheus-text HTTP
endpoint for live scrapes.  See DESIGN.md
§8 for the metric-name inventory and conventions.
"""

from repro.obs.export import JsonlExporter, last_snapshot, read_snapshots
from repro.obs.http import MetricsHttpServer
from repro.obs.registry import (
    DEFAULT_TIME_BOUNDS_MS,
    DEFAULT_TIME_BOUNDS_SECONDS,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.trace import TraceRing

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "render_prometheus",
    "DEFAULT_TIME_BOUNDS_SECONDS",
    "DEFAULT_TIME_BOUNDS_MS",
    "TraceRing",
    "JsonlExporter",
    "read_snapshots",
    "last_snapshot",
    "MetricsHttpServer",
]
