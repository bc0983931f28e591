"""Workload generators: when each node broadcasts (Section 5.4).

The paper's experiments generate messages "according to a Poisson
distribution of parameter λ", where λ is the *mean interval between two
messages of one node*, in milliseconds (λ = 5000 means one message per
node every 5 s on average).  :class:`PoissonWorkload` is that model,
and the only one the runner, the CLI and the benchmarks use.

A generator answers one question per call: *given that node ``node_id``
just sent at this moment, how long until its next send?*
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable

from repro.core.errors import ConfigurationError
from repro.util.rng import RandomSource

__all__ = [
    "Workload",
    "PoissonWorkload",
]

ProcessId = Hashable


class Workload(ABC):
    """Per-node send-interval process."""

    @abstractmethod
    def next_interval(self, rng: RandomSource, node_id: ProcessId) -> float:
        """Milliseconds from now until ``node_id``'s next broadcast."""

    @abstractmethod
    def mean_interval(self) -> float:
        """Long-run mean send interval per node (ms) — the effective λ,
        used to predict the concurrency X and the optimal K."""


class PoissonWorkload(Workload):
    """The paper's workload: exponential inter-send times, mean λ ms."""

    def __init__(self, mean_interval_ms: float) -> None:
        if mean_interval_ms <= 0:
            raise ConfigurationError(f"λ must be > 0 ms, got {mean_interval_ms}")
        self._mean = mean_interval_ms

    def next_interval(self, rng: RandomSource, node_id: ProcessId) -> float:
        return rng.exponential(self._mean)

    def mean_interval(self) -> float:
        return self._mean
