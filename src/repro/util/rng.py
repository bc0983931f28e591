"""Deterministic random streams for reproducible simulations.

Every stochastic component of the simulator (workload generators, network
delay models, key assignment, the bus) receives its own :class:`RandomSource`
derived from a single experiment seed.  Substreams are spawned by name, so
adding a new consumer of randomness never perturbs the draws seen by
existing ones — a property the regression tests rely on.
"""

from __future__ import annotations

from typing import Optional, Sequence, TypeVar

import numpy as np

from repro.core.errors import ConfigurationError

__all__ = ["RandomSource"]

T = TypeVar("T")


class RandomSource:
    """A seeded random stream with the distributions the simulator needs.

    Wraps :class:`numpy.random.Generator` (PCG64) and exposes a small,
    stable API.  Use :meth:`spawn` to derive independent named substreams.
    """

    def __init__(self, seed: int = 0, _generator: Optional[np.random.Generator] = None) -> None:
        if _generator is not None:
            self._generator = _generator
        else:
            self._generator = np.random.Generator(np.random.PCG64(seed))
        self._seed = seed

    @property
    def seed(self) -> int:
        """The seed this source (or its root ancestor) was built from."""
        return self._seed

    def spawn(self, name: str) -> "RandomSource":
        """Derive an independent substream keyed by ``name``.

        The child stream depends only on the parent's seed and ``name``,
        never on how many draws the parent has made.
        """
        child_seed = np.random.SeedSequence(
            entropy=self._seed, spawn_key=tuple(name.encode("utf-8"))
        )
        child = RandomSource.__new__(RandomSource)
        child._generator = np.random.Generator(np.random.PCG64(child_seed))
        child._seed = self._seed
        return child

    def integer(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high)``.

        Uses Python-level arbitrary-precision sampling when the range
        exceeds 64 bits (e.g. ``set_id`` spaces with huge ``C(R, K)``).
        """
        if high <= low:
            raise ConfigurationError(f"empty integer range [{low}, {high})")
        span = high - low
        if span <= (1 << 63):
            return int(self._generator.integers(low, high))
        # Arbitrary precision: rejection sampling over whole 64-bit words.
        bits = span.bit_length()
        words = (bits + 63) // 64
        while True:
            value = 0
            for _ in range(words):
                value = (value << 64) | int(self._generator.integers(0, 1 << 63) << 1) | int(
                    self._generator.integers(0, 2)
                )
            value &= (1 << bits) - 1
            if value < span:
                return low + value

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Uniform float in ``[low, high)``."""
        return float(self._generator.uniform(low, high))

    def gauss(self, mean: float, std: float) -> float:
        """Normal draw ``N(mean, std^2)``."""
        return float(self._generator.normal(mean, std))

    def gauss_positive(self, mean: float, std: float, floor: float = 0.0) -> float:
        """Normal draw truncated below at ``floor`` by resampling.

        Network delays must be positive; the paper's ``N(100, 20)`` model
        makes negative draws vanishingly rare, but the simulator must not
        produce them at all.
        """
        for _ in range(64):
            value = self.gauss(mean, std)
            if value > floor:
                return value
        # Distribution mass is essentially entirely below the floor;
        # fall back to the floor plus a hair to preserve event ordering.
        return floor + abs(std) * 1e-6 + 1e-9

    def exponential(self, mean: float) -> float:
        """Exponential draw with the given mean (Poisson inter-arrivals)."""
        if mean <= 0:
            raise ConfigurationError(f"exponential mean must be > 0, got {mean}")
        return float(self._generator.exponential(mean))

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly pick one element of a non-empty sequence."""
        if not items:
            raise ConfigurationError("cannot choose from an empty sequence")
        return items[self.integer(0, len(items))]

    def sample(self, items: Sequence[T], count: int) -> list:
        """Pick ``count`` distinct elements, uniformly without replacement."""
        if count > len(items):
            raise ConfigurationError(
                f"cannot sample {count} items from a sequence of {len(items)}"
            )
        indices = self._generator.choice(len(items), size=count, replace=False)
        return [items[int(i)] for i in indices]

    def shuffle(self, items: list) -> None:
        """Shuffle ``items`` in place."""
        self._generator.shuffle(items)

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return float(self._generator.random())
