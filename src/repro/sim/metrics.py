"""Metric collectors for simulation runs.

Gathers three families of measurements:

* **ordering quality** — the ε_min / ε_max error-rate bounds from the
  oracle (:class:`repro.sim.oracle.OracleCounters`);
* **alert quality** — how Algorithm 4/5 alerts correlate with the oracle's
  verdicts (precision / recall, with ambiguous deliveries reported
  separately because their ground truth is undecidable);
* **performance** — delivery latency (send→deliver) and pending-queue
  pressure, via a streaming summary that stays O(1) in memory no matter
  how many deliveries the run produces (exact moments + reservoir sample
  for quantiles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.errors import ConfigurationError
from repro.sim.oracle import DeliveryVerdict
from repro.util.rng import RandomSource

__all__ = ["StreamingSummary", "AlertConfusion", "MetricSet"]


class StreamingSummary:
    """O(1)-memory summary of a stream of numbers.

    Exact count/mean/variance (Welford) and min/max; approximate quantiles
    from a fixed-size uniform reservoir sample.
    """

    def __init__(self, reservoir_size: int = 4096, rng: Optional[RandomSource] = None) -> None:
        if reservoir_size <= 0:
            raise ConfigurationError(f"reservoir_size must be positive, got {reservoir_size}")
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir: List[float] = []
        self._reservoir_size = reservoir_size
        self._rng = rng if rng is not None else RandomSource(seed=0x5EED).spawn("reservoir")

    def observe(self, value: float) -> None:
        """Add one observation."""
        self._count += 1
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(value)
        else:
            slot = self._rng.integer(0, self._count)
            if slot < self._reservoir_size:
                self._reservoir[slot] = value

    @property
    def count(self) -> int:
        """Number of observations."""
        return self._count

    @property
    def mean(self) -> float:
        """Exact running mean (0 when empty)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (ddof=1); 0 with fewer than two observations."""
        return self._m2 / (self._count - 1) if self._count > 1 else 0.0

    @property
    def std(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest observation (0 when empty)."""
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        """Largest observation (0 when empty)."""
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the reservoir (q in [0, 1])."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must lie in [0, 1], got {q}")
        if not self._reservoir:
            return 0.0
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
        return ordered[index]

    def as_dict(self) -> dict:
        """Plain-dict summary for reports."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.maximum,
        }


@dataclass
class AlertConfusion:
    """Cross-tabulation of detector alerts against oracle verdicts.

    Algorithm 4/5's alert targets the **late** side of a violation: it
    fires at the delivery of a message ``m`` whose entries were already
    covered — i.e. a message that may have been *bypassed* by some causal
    successor delivered earlier.  In oracle terms a bypassed message is
    exactly an :attr:`~repro.sim.oracle.DeliveryVerdict.AMBIGUOUS`
    delivery (an earlier merge, caused by the wrong delivery of a
    successor, marked it as already known).  The paper's soundness claim
    "no alert implies no error" therefore translates to: **every
    ambiguous delivery raises a basic alert** (``recall_late == 1.0``).

    Deliveries the oracle proves to be violations are the *early* side
    (a successor delivered while ``m`` was missing); the paper makes no
    detection claim about those, so their alert counts are reported
    separately.
    """

    late_caught: int = 0
    """Bypassed (ambiguous) deliveries that raised an alert — true positives."""

    late_missed: int = 0
    """Bypassed deliveries with no alert — must stay 0 for Algorithm 4."""

    early_alerted: int = 0
    """Proven-violation (early) deliveries that also raised an alert."""

    early_silent: int = 0
    """Proven-violation deliveries with no alert (expected; no claim made)."""

    false_positives: int = 0
    """Alerts on deliveries the oracle proves correct."""

    true_negatives: int = 0
    """Silent, correct deliveries."""

    def observe(self, alert: bool, verdict: DeliveryVerdict) -> None:
        """Tally one (alert, oracle verdict) pair."""
        if verdict is DeliveryVerdict.AMBIGUOUS:
            if alert:
                self.late_caught += 1
            else:
                self.late_missed += 1
        elif verdict is DeliveryVerdict.VIOLATION:
            if alert:
                self.early_alerted += 1
            else:
                self.early_silent += 1
        else:
            if alert:
                self.false_positives += 1
            else:
                self.true_negatives += 1

    @property
    def total(self) -> int:
        """Deliveries observed across all cells."""
        return (
            self.late_caught
            + self.late_missed
            + self.early_alerted
            + self.early_silent
            + self.false_positives
            + self.true_negatives
        )

    @property
    def alerts(self) -> int:
        """Total alerts fired."""
        return self.late_caught + self.early_alerted + self.false_positives

    @property
    def precision(self) -> float:
        """Fraction of alerts tied to an actual ordering problem (either
        side of a violation).  The paper predicts this is *low* for
        Algorithm 4 ("greatly over-estimates") and higher for Algorithm 5.
        """
        fired = self.alerts
        return (self.late_caught + self.early_alerted) / fired if fired else 0.0

    @property
    def recall_late(self) -> float:
        """Fraction of bypassed deliveries that were alerted.

        Algorithm 4's one-sided guarantee predicts exactly 1.0.
        Algorithm 5 may trade some of it away when its recent list is too
        short or its window too small.
        """
        late = self.late_caught + self.late_missed
        return self.late_caught / late if late else 1.0

    @property
    def alert_rate(self) -> float:
        """Alerts per delivery."""
        total = self.total
        return self.alerts / total if total else 0.0


@dataclass
class MetricSet:
    """Everything a simulation run collects besides the oracle tallies.

    When a :class:`~repro.obs.MetricsRegistry` is attached
    (:meth:`bind_registry`), the same observations additionally feed
    its histograms under the live runtime's naming conventions —
    ``repro_sim_delivery_latency_ms`` and ``repro_sim_pending_depth``
    (sampled depths) — and a collector reads the confusion cells as
    counters, so a simulated run exports series directly comparable with
    a deployed node's.  Use the ``observe_*`` methods
    rather than poking the summaries so both sinks stay in step.
    """

    latency: StreamingSummary = field(default_factory=StreamingSummary)
    pending: StreamingSummary = field(default_factory=StreamingSummary)
    alerts: AlertConfusion = field(default_factory=AlertConfusion)
    registry: Optional[object] = None

    def bind_registry(self, registry) -> None:
        """Export every observation through ``registry`` (``repro.obs``)."""
        from repro.obs.registry import DEFAULT_TIME_BOUNDS_MS

        self.registry = registry
        self._latency_hist = registry.histogram(
            "repro_sim_delivery_latency_ms", bounds=DEFAULT_TIME_BOUNDS_MS
        )
        self._pending_hist = registry.histogram(
            "repro_sim_pending_depth",
            bounds=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0),
        )
        registry.register_collector(lambda: {
            "repro_sim_deliveries_total": self.alerts.total,
            "repro_sim_alerts_total": self.alerts.alerts,
            "repro_sim_alerts_late_missed_total": self.alerts.late_missed,
            "repro_sim_alert_false_positives_total": self.alerts.false_positives,
            "repro_sim_alert_rate": self.alerts.alert_rate,
        })

    def observe_latency(self, latency_ms: float) -> None:
        """Record one send→deliver latency (simulated milliseconds)."""
        self.latency.observe(latency_ms)
        if self.registry is not None:
            self._latency_hist.observe(latency_ms)

    def observe_pending(self, depth: int) -> None:
        """Record one pending-queue depth sample."""
        self.pending.observe(depth)
        if self.registry is not None:
            self._pending_hist.observe(depth)

    def observe_alert(self, alert: bool, verdict: DeliveryVerdict) -> None:
        """Tally one (alert, oracle verdict) pair."""
        self.alerts.observe(alert, verdict)
