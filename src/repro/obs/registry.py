"""The metrics registry: counters and gauges read, histograms pushed.

The live runtime (and, with the same series names, the simulator) needs
the observability any serving stack has: the paper's headline deliverable
is *measuring* probabilistic failure — the Algorithm 4/5 alert rate
against the predicted ``P_err(R, K, X)`` — and a rate nobody can export
might as well not exist.  This module is the dependency-free core of
``repro.obs``:

* :class:`MetricsRegistry` — what one node exports.  Counters and gauges
  are *read, not stored*: each layer registers a **collector** that
  returns ``{series: value}`` from the stats struct already holding the
  tally (e.g. the session's :class:`~repro.net.session.TransportStats`),
  run at snapshot time — zero per-datagram overhead, and one record of
  every tally.  A series ending in ``_total`` is a counter, any other
  a gauge.
* :class:`Histogram` — the one push instrument (a distribution cannot
  be rebuilt after the fact): fixed bucket bounds chosen at creation,
  constant memory per series, mergeable across processes (bounds must
  match).

Snapshots are plain JSON-ready dicts (see :meth:`MetricsRegistry.snapshot`)
so the JSONL exporter, the ``repro stats`` renderer, and cross-process
aggregation (:func:`merge_snapshots`) all speak one format.

Naming conventions (DESIGN.md §8): every series is prefixed ``repro_``,
counters end in ``_total``, time histograms end in their unit
(``_seconds`` live, ``_ms`` simulated), and identity rides on registry
level constant labels (``node="a"`` / ``mode="sim"``), which keeps
cardinality flat.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.errors import ConfigurationError

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "render_prometheus",
    "DEFAULT_TIME_BOUNDS_SECONDS",
    "DEFAULT_TIME_BOUNDS_MS",
]

# Latency-shaped defaults: sub-millisecond to seconds (live runtime)...
DEFAULT_TIME_BOUNDS_SECONDS: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)
# ... and the same shape in simulated milliseconds.
DEFAULT_TIME_BOUNDS_MS: Tuple[float, ...] = (
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0,
)


class Histogram:
    """Fixed-bound bucket histogram with exact count/sum.

    ``bounds`` are the finite upper bucket edges, strictly increasing;
    an implicit +Inf bucket catches the overflow, so ``counts`` has
    ``len(bounds) + 1`` cells.  Memory is constant per series no matter
    how many observations arrive, and two histograms with identical
    bounds merge by elementwise addition — which is what lets the sweep
    fan-out and multi-node exports aggregate.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        cleaned = tuple(float(b) for b in bounds)
        if not cleaned:
            raise ConfigurationError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(cleaned, cleaned[1:])):
            raise ConfigurationError(
                f"histogram bounds must be strictly increasing, got {cleaned}"
            )
        if any(math.isnan(b) or math.isinf(b) for b in cleaned):
            raise ConfigurationError("histogram bounds must be finite")
        self.bounds = cleaned
        self.counts = [0] * (len(cleaned) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        """Record one observation (buckets are ``value <= bound``)."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        """Exact mean of all observations (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-resolution ``q``-quantile (linear within the bucket).

        The +Inf bucket has no upper edge, so observations landing there
        report the largest finite bound — a floor, clearly labelled as
        bucket-limited in the docs.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must lie in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank and bucket_count:
                if index >= len(self.bounds):
                    return self.bounds[-1]
                lower = self.bounds[index - 1] if index > 0 else 0.0
                upper = self.bounds[index]
                fraction = (rank - previous) / bucket_count
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.bounds[-1]

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram with identical bounds into this one."""
        if self.bounds != other.bounds:
            raise ConfigurationError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        for index, bucket_count in enumerate(other.counts):
            self.counts[index] += bucket_count
        self.sum += other.sum
        self.count += other.count

    def as_dict(self) -> dict:
        """JSON-ready form (the snapshot/JSONL shape)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Histogram":
        """Rebuild from :meth:`as_dict` output (exporter round-trip)."""
        histogram = cls(data["bounds"])
        counts = list(data["counts"])
        if len(counts) != len(histogram.counts):
            raise ConfigurationError(
                f"histogram dict has {len(counts)} buckets, "
                f"expected {len(histogram.counts)}"
            )
        histogram.counts = [int(c) for c in counts]
        histogram.sum = float(data["sum"])
        histogram.count = int(data["count"])
        return histogram


Collector = Callable[[], Mapping[str, float]]


class MetricsRegistry:
    """The series one node (or one simulation run) exports.

    Args:
        labels: constant labels attached to every exported series
            (identity lives here: ``node="a"``, ``mode="sim"``).
    """

    def __init__(self, labels: Optional[Mapping[str, str]] = None) -> None:
        self.labels: Dict[str, str] = dict(labels or {})
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Collector] = []
        # The collected series in snapshot order, kept while the set of
        # names stands.
        self._names: Set[str] = set()
        self._counter_names: List[str] = []
        self._gauge_names: List[str] = []

    def histogram(
        self, name: str, bounds: Sequence[float] = DEFAULT_TIME_BOUNDS_SECONDS
    ) -> Histogram:
        """Get or create the histogram called ``name``.

        ``bounds`` only applies on creation; a later call with different
        bounds is a configuration error (bounds are part of the series'
        identity — silent rebinning would corrupt merged exports).
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(bounds)
        elif instrument.bounds != tuple(float(b) for b in bounds):
            raise ConfigurationError(
                f"histogram {name!r} already exists with bounds "
                f"{instrument.bounds}, requested {tuple(bounds)}"
            )
        return instrument

    def register_collector(self, collect: Collector) -> None:
        """Register a reader run at every snapshot.

        ``collect()`` returns ``{series: value}`` read from the struct
        that keeps the tally (TransportStats, EndpointStats,
        DetectorStats...); a later collector's value for a series
        replaces an earlier one's.
        """
        self._collectors.append(collect)

    def snapshot(self) -> dict:
        """JSON-ready snapshot of every series (collectors read first).

        A series whose name ends in ``_total`` is a counter, any other
        collected series a gauge.
        """
        values: Dict[str, float] = {}
        for collect in self._collectors:
            values.update(collect())
        if values.keys() != self._names:
            # A collector was added or returned other names: sort anew.
            self._names = set(values)
            ordered = sorted(values)
            self._counter_names = [n for n in ordered if n.endswith("_total")]
            self._gauge_names = [n for n in ordered if not n.endswith("_total")]
        return {
            "labels": dict(self.labels),
            "counters": {name: values[name] for name in self._counter_names},
            "gauges": {name: values[name] for name in self._gauge_names},
            "histograms": {
                name: h.as_dict() for name, h in sorted(self._histograms.items())
            },
        }

    def render_prometheus(self) -> str:
        """The snapshot in Prometheus text exposition format."""
        return render_prometheus(self.snapshot())


def merge_snapshots(snapshots: Iterable[dict]) -> dict:
    """Aggregate snapshots from several registries into one.

    Counters and gauges sum (gauges here are depth-like quantities where
    the fleet-wide total is the meaningful aggregate); histograms merge
    bucket-wise and must share bounds.  Constant labels survive only
    where every input agrees — disagreeing labels (e.g. ``node``) are
    dropped, which is exactly the identity erasure aggregation implies.
    """
    merged_counters: Dict[str, float] = {}
    merged_gauges: Dict[str, float] = {}
    merged_histograms: Dict[str, Histogram] = {}
    merged_labels: Optional[Dict[str, str]] = None
    for snapshot in snapshots:
        labels = dict(snapshot.get("labels", {}))
        if merged_labels is None:
            merged_labels = labels
        else:
            merged_labels = {
                k: v for k, v in merged_labels.items() if labels.get(k) == v
            }
        for key, value in snapshot.get("counters", {}).items():
            merged_counters[key] = merged_counters.get(key, 0) + value
        for key, value in snapshot.get("gauges", {}).items():
            merged_gauges[key] = merged_gauges.get(key, 0.0) + value
        for key, data in snapshot.get("histograms", {}).items():
            incoming = Histogram.from_dict(data)
            existing = merged_histograms.get(key)
            if existing is None:
                merged_histograms[key] = incoming
            else:
                existing.merge(incoming)
    return {
        "labels": merged_labels or {},
        "counters": dict(sorted(merged_counters.items())),
        "gauges": dict(sorted(merged_gauges.items())),
        "histograms": {
            key: h.as_dict() for key, h in sorted(merged_histograms.items())
        },
    }


def _escape(value: str) -> str:
    """A label value as the text exposition format spells it."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus(snapshot: Mapping) -> str:
    """Render a snapshot dict in Prometheus text exposition format."""
    labels = snapshot.get("labels", {})
    constant = ",".join(f'{k}="{_escape(str(labels[k]))}"' for k in sorted(labels))

    def series(name: str, extra: str = "") -> str:
        rendered = ",".join(part for part in (constant, extra) if part)
        return f"{name}{{{rendered}}}" if rendered else name

    lines: List[str] = []
    for section in ("counters", "gauges"):
        for name, value in snapshot.get(section, {}).items():
            lines.append(f"{series(name)} {value}")
    for name, data in snapshot.get("histograms", {}).items():
        bucket = name + "_bucket"
        cumulative = 0
        for bound, count in zip(data["bounds"], data["counts"]):
            cumulative += count
            lines.append(series(bucket, f'le="{bound}"') + f" {cumulative}")
        lines.append(series(bucket, 'le="+Inf"') + f" {data['count']}")
        lines.append(f"{series(name + '_sum')} {data['sum']}")
        lines.append(f"{series(name + '_count')} {data['count']}")
    return "\n".join(lines) + "\n"
