"""Self-tuning (R, K): the adaptive clock-sizing controller.

Section 5.3 of the paper dimensions K *once*, from a guess of the
in-flight concurrency X, and Figures 4-5 show the penalty when reality
disagrees with the guess: P_err(R, K, X) = (1 - (1 - 1/R)^(KX))^K takes
off as soon as traffic outgrows the planned geometry.  This module
closes that loop at runtime (DESIGN.md §11):

* the node's own detector counts every remote delivery it checks and
  every Algorithm 4 alert, and that alert is P_err's event — so over a
  window the alert rate *is* a measured P_err, and inverting the formula
  at the current (R, K) (:func:`repro.core.theory.concurrency_at_error`)
  gives the concurrency estimate X̂, as a Bloom filter's false-positive
  rate gives the number of items it holds;
* :func:`decide` holds while the alert rate sits inside a target band
  and otherwise asks :func:`repro.core.theory.optimal_k_int` for the
  integer optimum at X̂ — guarded by a hysteresis rule (P_err is nearly
  flat around its optimum, so adjacent-K flapping is pure churn) and a
  cooldown so one burst cannot thrash the group;
* an :class:`AdaptiveClockController` runs that on a live node: every
  ``interval`` seconds it reads the detector, and when this node is the
  acting coordinator (the deterministic rule in ``net/membership.py``)
  it renegotiates the geometry for the whole group via
  :meth:`GroupMembership.propose_epoch` — a new epoch that rides the
  wire header (PROTOCOL.md §11), re-tiles key assignments and persists
  in the journal so restarts rejoin on the current geometry.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.errors import ConfigurationError
from repro.core.theory import concurrency_at_error, optimal_k_int, p_error

__all__ = ["AdaptivePolicy", "AdaptiveClockController", "decide"]

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
            detector check.  Inside the band the controller holds the
            current geometry; outside it, it re-tiles to theory's
            optimum.
        k_max: hard upper bound on the negotiated K.
        cooldown: minimum seconds between two epoch bumps.
        min_window: detector checks (one per remote delivery) a window
            must hold before it is judged; a thinner window keeps
            accumulating.
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


def decide(
    policy: AdaptivePolicy,
    r: int,
    k: int,
    alert_rate: float,
    since_bump: float = math.inf,
) -> Optional[int]:
    """The K to re-tile an (r, k) group to, or ``None`` to hold.

    ``alert_rate`` is a window's alerts per check and ``since_bump`` the
    seconds since the last accepted bump.  The rule, in order:

    1. hold while the cooldown runs;
    2. hold while the alert rate sits inside the band — the geometry is
       doing its job, re-keying buys nothing;
    3. hold when X̂ = ``concurrency_at_error(r, k, alert_rate)`` is
       below ``_X_FLOOR`` (an idle group);
    4. ask theory for ``optimal_k_int(r, X̂)`` (clamped to ``k_max``);
       hold if it is the current K;
    5. hysteresis: the move must shrink the predicted P_err at X̂ below
       ``_HYSTERESIS x P_err(k, X̂)``, or it is flapping around a flat
       optimum and is rejected.
    """
    if since_bump < policy.cooldown:
        return None
    low, high = policy.band
    if low <= alert_rate <= high:
        return None
    x = concurrency_at_error(r, k, alert_rate)
    if x < _X_FLOOR:
        return None
    target = optimal_k_int(r, x, k_max=policy.k_max)
    if target == k:
        return None
    if p_error(r, target, x) >= _HYSTERESIS * p_error(r, k, x):
        return None
    return target


class AdaptiveClockController:
    """Runs :func:`decide` on a live node.

    Every ``policy.interval`` seconds the controller reads the node's
    detector counters; once the window since its last decision holds
    ``policy.min_window`` checks it judges the window's alert rate.
    A window that spans a re-tile is dropped, this node's own bump
    included: its alerts mix two geometries, and messages stamped
    before the bump are still in flight.  Only the acting coordinator
    ever *acts* on a verdict — it calls
    :meth:`GroupMembership.propose_epoch`, which re-tiles key
    assignments, installs and announces the bumped view, and persists
    the epoch in the journal.  Every other member keeps estimating (so
    its gauges stay live) but holds.

    The controller exports its own telemetry:

    * ``repro_adaptive_x_estimate`` — the latest X̂;
    * ``repro_adaptive_alert_rate`` — the latest windowed alert rate;
    * ``repro_adaptive_k_target`` — the last verdict (the current K
      while holding);
    * ``repro_adaptive_decisions_total`` / ``repro_adaptive_bumps_total``
      — judged windows, and accepted bumps.
    """

    def __init__(self, node, policy: Optional[AdaptivePolicy] = None) -> None:
        self.node = node
        self.policy = policy if policy is not None else AdaptivePolicy()
        self._task: Optional[asyncio.Task] = None
        self._last_bump = -math.inf
        self._window = self._mark()
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

    def _mark(self) -> Tuple[int, int, int]:
        """The start of a window: checks, alerts, and the K they run at."""
        stats = self.node.endpoint.detector.stats
        return stats.checks, stats.alerts, self.node.endpoint.clock.k

    def step(self, now: float) -> Optional[int]:
        """One synchronous control iteration; returns the proposed K
        when this node is the coordinator and a bump was accepted."""
        node = self.node
        clock = node.endpoint.clock
        stats = node.endpoint.detector.stats
        checks, alerts, k = self._window
        if clock.k != k:
            self._window = self._mark()
            return None
        checks = stats.checks - checks
        if checks < self.policy.min_window:
            return None
        self.decisions += 1
        self.alert_rate = (stats.alerts - alerts) / checks
        self.x_estimate = concurrency_at_error(clock.r, k, self.alert_rate)
        target = decide(self.policy, clock.r, k, self.alert_rate, now - self._last_bump)
        self.k_target = target if target is not None else k
        self._window = self._mark()
        membership = node.membership
        if target is None or membership is None or not membership.is_coordinator():
            return None
        view = membership.propose_epoch(target)
        if view is None:
            return None
        self._last_bump = now
        self.bumps += 1
        node.trace.emit(
            "adaptive_bump",
            ts=now,
            epoch=view.epoch,
            k=target,
            x=round(self.x_estimate, 3),
            alert_rate=round(self.alert_rate, 6),
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
