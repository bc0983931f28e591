"""Self-tuning (R, K): the adaptive clock-sizing controller.

Section 5.3 of the paper dimensions K *once*, from a guess of the
in-flight concurrency X, and Figures 4-5 show the penalty when reality
disagrees with the guess: P_err(R, K, X) = (1 - (1 - 1/R)^(KX))^K takes
off as soon as traffic outgrows the planned geometry.  This module
closes that loop at runtime (DESIGN.md §11):

* a :class:`ConcurrencyEstimator` turns the node's own metrics stream
  (the ``repro_delivery_wait_seconds`` histogram, the delivered counter
  and the pending-depth gauge from ``repro.obs``) into a windowed
  Little's-law estimate X̂ = delivery rate x mean delivery wait;
* an :class:`EpochPlanner` compares the measured alert rate against a
  target band and, when the band is breached, asks
  :func:`repro.core.theory.optimal_k_int` for the integer optimum at X̂
  — guarded by a hysteresis rule (P_err is nearly flat around its
  optimum, so adjacent-K flapping is pure churn) and a cooldown so one
  burst cannot thrash the group;
* an :class:`AdaptiveClockController` ties both to a live node: every
  ``interval`` seconds it samples the registry, and when this node is
  the acting coordinator (the PR 7 deterministic rule in
  ``net/membership.py``) it renegotiates the geometry for the whole
  group via :meth:`GroupMembership.propose_epoch` — a new epoch that
  rides the wire header (PROTOCOL.md §11), re-tiles key assignments and
  persists in the journal so restarts rejoin on the current geometry.

The estimator and planner are deliberately pure (cumulative samples in,
decision out) so benchmarks and tests can drive them from simulation
telemetry without an event loop; only the controller touches asyncio.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.theory import optimal_k_int, p_error

__all__ = [
    "AdaptivePolicy",
    "TelemetrySample",
    "TelemetryWindow",
    "ConcurrencyEstimator",
    "EpochPlanner",
    "AdaptiveClockController",
]

# A bump must shrink the predicted P_err below this fraction of the
# current geometry's to be worth a fleet-wide re-key: K next to the
# optimum is within 10 % of it (R = 128, X = 10: +1.8 % and +3.0 %).
_HYSTERESIS = 0.8
# X̂ below this (a tenth of a message in flight) is an idle group, and
# never triggers a bump.
_X_FLOOR = 0.1


@dataclass(frozen=True)
class AdaptivePolicy:
    """Tuning knobs for the adaptive clock-sizing loop.

    Args:
        interval: seconds between controller decisions.
        band: target alert-rate band ``(low, high)`` as alerts per
            delivery.  Inside the band the controller holds the current
            geometry; outside it, it re-tiles to theory's optimum.
        k_max: hard upper bound on the negotiated K.
        cooldown: minimum seconds between two epoch bumps.
        min_window: minimum deliveries a sampling window must contain
            before its estimate is trusted.
    """

    interval: float = 5.0
    band: Tuple[float, float] = (0.0, 0.05)
    k_max: int = 16
    cooldown: float = 30.0
    min_window: int = 20

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigurationError(
                f"adaptive interval must be > 0, got {self.interval}"
            )
        low, high = self.band
        if not (0.0 <= low <= high <= 1.0):
            raise ConfigurationError(
                f"alert-rate band must satisfy 0 <= low <= high <= 1, "
                f"got ({low}, {high})"
            )
        if self.k_max < 1:
            raise ConfigurationError(f"k_max must be >= 1, got {self.k_max}")
        if self.cooldown < 0:
            raise ConfigurationError(
                f"cooldown must be >= 0, got {self.cooldown}"
            )
        if self.min_window < 1:
            raise ConfigurationError(
                f"min_window must be >= 1, got {self.min_window}"
            )


@dataclass(frozen=True)
class TelemetrySample:
    """One cumulative reading of the metrics a node already exports.

    All fields are lifetime totals (counter/histogram semantics); the
    estimator differences successive samples into windows, so feeding it
    the raw registry snapshot is enough — no extra bookkeeping in the
    hot path.
    """

    now: float
    """Sample timestamp in seconds (monotonic)."""

    delivered_total: float
    """Messages delivered so far (``repro_endpoint_delivered_total``)."""

    wait_sum: float
    """Total seconds spent waiting for delivery
    (``repro_delivery_wait_seconds`` histogram sum)."""

    wait_count: float
    """Observations in the delivery-wait histogram."""

    pending_depth: float = 0.0
    """Instantaneous pending-buffer depth (``repro_pending_depth``)."""

    alerts_total: float = 0.0
    """Detector alerts so far (``repro_detector_alerts_total``)."""

    checks_total: float = 0.0
    """Detector checks so far (``repro_detector_checks_total``)."""

    @classmethod
    def from_snapshot(cls, snapshot: dict, now: float) -> "TelemetrySample":
        """Build a sample from a ``MetricsRegistry.snapshot()`` dict
        using the live node's series names."""
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
        wait = snapshot.get("histograms", {}).get(
            "repro_delivery_wait_seconds", {}
        )
        return cls(
            now=now,
            delivered_total=counters.get("repro_endpoint_delivered_total", 0.0),
            wait_sum=wait.get("sum", 0.0),
            wait_count=wait.get("count", 0),
            pending_depth=gauges.get("repro_pending_depth", 0.0),
            alerts_total=counters.get("repro_detector_alerts_total", 0.0),
            checks_total=counters.get("repro_detector_checks_total", 0.0),
        )


@dataclass(frozen=True)
class TelemetryWindow:
    """The differenced view of two successive samples."""

    elapsed: float
    """Window length in seconds."""

    deliveries: float
    """Deliveries inside the window."""

    delivery_rate: float
    """Deliveries per second."""

    mean_wait: float
    """Mean delivery wait (seconds) inside the window."""

    x_estimate: float
    """Estimated in-flight concurrency X̂ (see
    :class:`ConcurrencyEstimator`)."""

    alert_rate: float
    """Detector alerts per check inside the window (falls back to
    alerts per delivery when the detector exports no check counter)."""


class ConcurrencyEstimator:
    """Little's-law concurrency estimate from the node's own telemetry.

    Over a sampling window, X̂ = (deliveries / elapsed) x mean delivery
    wait — the average number of messages simultaneously in flight
    through the causal-delivery path.  The push-style wait histogram
    only sees the receiver-side wait, so the instantaneous pending
    depth serves as a floor; the planner's alert-rate band absorbs the
    residual underestimate (an undersized X̂ shows up as an
    out-of-band alert rate and still triggers a correction).
    """

    def __init__(self, min_window: int = 20) -> None:
        if min_window < 1:
            raise ConfigurationError(
                f"min_window must be >= 1, got {min_window}"
            )
        self._min_window = min_window
        self._last: Optional[TelemetrySample] = None

    def update(self, sample: TelemetrySample) -> Optional[TelemetryWindow]:
        """Fold in one cumulative sample; return the window against the
        previous one, or ``None`` while the window is still too thin to
        trust (first sample, zero elapsed time, too few deliveries, or
        a counter reset after a restart)."""
        previous, self._last = self._last, sample
        if previous is None:
            return None
        elapsed = sample.now - previous.now
        deliveries = sample.delivered_total - previous.delivered_total
        wait_sum = sample.wait_sum - previous.wait_sum
        wait_count = sample.wait_count - previous.wait_count
        alerts = sample.alerts_total - previous.alerts_total
        checks = sample.checks_total - previous.checks_total
        if elapsed <= 0 or deliveries < 0 or wait_count < 0 or checks < 0:
            return None  # clock went backwards or counters reset
        if deliveries < self._min_window:
            return None
        rate = deliveries / elapsed
        mean_wait = wait_sum / wait_count if wait_count else 0.0
        x_estimate = max(rate * mean_wait, sample.pending_depth)
        denominator = checks if checks > 0 else deliveries
        alert_rate = alerts / denominator if denominator > 0 else 0.0
        return TelemetryWindow(
            elapsed=elapsed,
            deliveries=deliveries,
            delivery_rate=rate,
            mean_wait=mean_wait,
            x_estimate=x_estimate,
            alert_rate=alert_rate,
        )


class EpochPlanner:
    """Pure decision core: telemetry window in, target K (or hold) out.

    The rule, in order:

    1. hold while the cooldown since the last accepted bump runs;
    2. hold when X̂ is below ``_X_FLOOR`` (idle group);
    3. hold while the measured alert rate sits inside the target band —
       the geometry is doing its job, re-keying buys nothing;
    4. outside the band, ask theory for ``optimal_k_int(R, X̂)``
       (clamped to ``k_max``); hold if it matches the current K;
    5. hysteresis: the move must shrink the predicted P_err at X̂ below
       ``_HYSTERESIS x P_err(current K, X̂)``, or the bump is flapping
       around a flat optimum and is rejected.
    """

    def __init__(self, r: int, policy: Optional[AdaptivePolicy] = None) -> None:
        if r < 1:
            raise ConfigurationError(f"r must be >= 1, got {r}")
        self.r = r
        self.policy = policy if policy is not None else AdaptivePolicy()
        self._last_bump: Optional[float] = None

    @property
    def k_cap(self) -> int:
        """The effective upper bound on negotiated K."""
        return min(self.r, self.policy.k_max)

    def decide(
        self, current_k: int, window: Optional[TelemetryWindow], now: float
    ) -> Optional[int]:
        """Return the K to re-tile to, or ``None`` to hold."""
        if window is None:
            return None
        policy = self.policy
        if (
            self._last_bump is not None
            and now - self._last_bump < policy.cooldown
        ):
            return None
        if window.x_estimate < _X_FLOOR:
            return None
        low, high = policy.band
        if low <= window.alert_rate <= high:
            return None
        target = optimal_k_int(self.r, window.x_estimate, k_max=self.k_cap)
        if target == current_k:
            return None
        current_err = p_error(self.r, current_k, window.x_estimate)
        target_err = p_error(self.r, target, window.x_estimate)
        if target_err >= _HYSTERESIS * current_err:
            return None
        return target

    def record_bump(self, now: float) -> None:
        """Arm the cooldown after an accepted bump."""
        self._last_bump = now


class AdaptiveClockController:
    """Ties the estimator and planner to a live node.

    Every ``policy.interval`` seconds the controller snapshots the
    node's metrics registry, folds the reading into the estimator, and
    asks the planner for a verdict.  Only the acting coordinator ever
    *acts* on one — it calls :meth:`GroupMembership.propose_epoch`,
    which re-tiles key assignments, installs and announces the bumped
    view, and persists the epoch in the journal.  Every other member
    keeps estimating (so a coordinator handover starts warm) but holds.

    The controller exports its own telemetry:

    * ``repro_adaptive_x_estimate`` — the latest X̂;
    * ``repro_adaptive_alert_rate`` — the latest windowed alert rate;
    * ``repro_adaptive_k_target`` — the planner's last verdict (the
      current K while holding);
    * ``repro_adaptive_decisions_total`` / ``repro_adaptive_bumps_total``
      — loop iterations with a usable window, and accepted bumps.
    """

    def __init__(self, node, policy: Optional[AdaptivePolicy] = None) -> None:
        self.node = node
        self.policy = policy if policy is not None else AdaptivePolicy()
        self.estimator = ConcurrencyEstimator(min_window=self.policy.min_window)
        self.planner = EpochPlanner(node.endpoint.clock.r, self.policy)
        self._task: Optional[asyncio.Task] = None
        # The controller's own telemetry, read by its collector.
        self.x_estimate = 0.0
        self.alert_rate = 0.0
        self.k_target = 0.0
        self.decisions = 0
        self.bumps = 0
        node.metrics.register_collector(lambda: {
            "repro_adaptive_x_estimate": self.x_estimate,
            "repro_adaptive_alert_rate": self.alert_rate,
            "repro_adaptive_k_target": self.k_target,
            "repro_adaptive_decisions_total": self.decisions,
            "repro_adaptive_bumps_total": self.bumps,
        })

    def step(self, now: float) -> Optional[int]:
        """One synchronous control iteration; returns the proposed K
        when this node is the coordinator and a bump was accepted."""
        node = self.node
        sample = TelemetrySample.from_snapshot(node.metrics.snapshot(), now)
        window = self.estimator.update(sample)
        if window is None:
            return None
        self.decisions += 1
        self.x_estimate = window.x_estimate
        self.alert_rate = window.alert_rate
        current_k = node.endpoint.clock.k
        target = self.planner.decide(current_k, window, now)
        self.k_target = target if target is not None else current_k
        membership = node.membership
        if target is None or membership is None or not membership.is_coordinator():
            return None
        view = membership.propose_epoch(target)
        if view is None:
            return None
        self.planner.record_bump(now)
        self.bumps += 1
        node.trace.emit(
            "adaptive_bump",
            ts=now,
            epoch=view.epoch,
            k=target,
            x=round(window.x_estimate, 3),
            alert_rate=round(window.alert_rate, 6),
        )
        return target

    async def run(self) -> None:
        """The periodic loop (cancelled by :meth:`stop`)."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.policy.interval)
            self.step(loop.time())

    def start(self) -> None:
        """Arm the loop task (idempotent)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self.run())

    async def stop(self) -> None:
        """Cancel and reap the loop task."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
