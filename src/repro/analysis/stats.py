"""Statistics helpers for the experiment harness.

The paper reports point estimates from >10⁸ messages per configuration;
our Python runs are smaller, so every reported number carries a
confidence interval.  Error *rates* are binomial proportions and use the
Wilson score interval (well-behaved at very small rates, where the normal
approximation collapses); real-valued metrics (latencies, concurrency)
use the usual normal-approximation interval over repeated runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

from repro.core.errors import ConfigurationError

__all__ = [
    "Estimate",
    "mean_estimate",
    "wilson_interval",
    "proportion_estimate",
    "pooled_proportion",
]

_Z_95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class Estimate:
    """A point estimate with a two-sided confidence interval."""

    value: float
    low: float
    high: float
    n: int

    @property
    def half_width(self) -> float:
        """Half the confidence interval width."""
        return 0.5 * (self.high - self.low)

    def __str__(self) -> str:
        return f"{self.value:.4g} [{self.low:.4g}, {self.high:.4g}]"


def mean_estimate(values: Sequence[float], z: float = _Z_95) -> Estimate:
    """Mean of repeated measurements with a normal-approximation CI.

    With a single observation the interval degenerates to the point.
    """
    data = [float(v) for v in values]
    if not data:
        raise ConfigurationError("mean_estimate needs at least one value")
    n = len(data)
    mean = sum(data) / n
    if n == 1:
        return Estimate(value=mean, low=mean, high=mean, n=1)
    variance = sum((v - mean) ** 2 for v in data) / (n - 1)
    half = z * math.sqrt(variance / n)
    return Estimate(value=mean, low=mean - half, high=mean + half, n=n)


def wilson_interval(successes: int, trials: int, z: float = _Z_95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Stays inside [0, 1] and remains informative when ``successes`` is 0 —
    the common case for very low error rates.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ConfigurationError(
            f"invalid binomial counts: successes={successes}, trials={trials}"
        )
    if trials == 0:
        return (0.0, 1.0)
    phat = successes / trials
    z2 = z * z
    denominator = 1.0 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denominator
    half = (
        z
        * math.sqrt(phat * (1.0 - phat) / trials + z2 / (4 * trials * trials))
        / denominator
    )
    return (max(0.0, center - half), min(1.0, center + half))


def proportion_estimate(successes: int, trials: int, z: float = _Z_95) -> Estimate:
    """Binomial proportion with its Wilson interval."""
    low, high = wilson_interval(successes, trials, z)
    value = successes / trials if trials else 0.0
    return Estimate(value=value, low=low, high=high, n=trials)


def pooled_proportion(counts: Iterable[Tuple[int, int]], z: float = _Z_95) -> Estimate:
    """Pool ``(successes, trials)`` pairs from repeated runs into one
    proportion estimate (the runs share a configuration, so pooling is the
    highest-power aggregate)."""
    total_successes = 0
    total_trials = 0
    for successes, trials in counts:
        total_successes += successes
        total_trials += trials
    return proportion_estimate(total_successes, total_trials, z)
