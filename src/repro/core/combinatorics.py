"""Exact combinatorics used by the key-assignment scheme (Algorithm 3).

The paper assigns each process a set of ``K`` distinct entries of an
``R``-entry vector.  A process draws a single integer ``set_id`` in
``[0, C(R, K))`` and expands it into the ``set_id``-th K-subset of
``{0, ..., R-1}`` in lexicographic order (subsets sorted as tuples, e.g.
for R=4, K=2: ``(0,1) < (0,2) < (0,3) < (1,2) < (1,3) < (2,3)``, the order
:func:`itertools.combinations` yields them in).

Algorithm 3 of the paper walks candidate values while comparing ``set_id``
against binomial coefficients — a lexicographic unranking.  Its published
pseudo-code is slightly garbled by typesetting (the inner loop never
consumes ``set_id``); :func:`unrank_lex` implements the intended,
well-defined mapping and :func:`rank_lex` its exact inverse.  The paper's
required properties are verified by property tests:

* every ``set_id`` yields exactly ``K`` distinct values in ``[0, R)``;
* distinct ``set_id`` values yield distinct sets, so the intersection of
  the key sets of two processes with different identities has size at most
  ``K - 1``.

All functions use exact integer arithmetic (no floating point), so they
remain correct for very large ``R``.
"""

from __future__ import annotations

from math import comb
from typing import Sequence, Tuple

from repro.core.errors import ConfigurationError, RankOutOfRangeError

__all__ = [
    "binomial",
    "num_key_sets",
    "unrank_lex",
    "rank_lex",
    "validate_subset",
]


def binomial(n: int, k: int) -> int:
    """Return ``C(n, k)`` exactly; 0 when ``k < 0`` or ``k > n``.

    Thin wrapper over :func:`math.comb` that tolerates out-of-range ``k``
    (useful inside unranking loops) but rejects negative ``n``.
    """
    if n < 0:
        raise ConfigurationError(f"binomial: n must be >= 0, got {n}")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def num_key_sets(r: int, k: int) -> int:
    """Number of distinct key sets for vector size ``r`` and ``k`` keys.

    This is the size of the ``set_id`` space of the paper: ``C(r, k)``.
    """
    if r <= 0:
        raise ConfigurationError(f"vector size R must be positive, got {r}")
    if not 1 <= k <= r:
        raise ConfigurationError(f"key count K must satisfy 1 <= K <= R, got K={k}, R={r}")
    return comb(r, k)


def _check_rank(rank: int, n: int, k: int) -> None:
    total = binomial(n, k)
    if not 0 <= rank < total:
        raise RankOutOfRangeError(
            f"rank {rank} outside [0, C({n},{k})={total}) for {k}-subsets of {n} items"
        )


def unrank_lex(rank: int, n: int, k: int) -> Tuple[int, ...]:
    """Return the ``rank``-th ``k``-subset of ``{0..n-1}`` in lex order.

    This is the intended semantics of the paper's Algorithm 3: expand a
    ``set_id`` into the key set ``f(p_i)``.  Runs in ``O(n)`` candidate
    steps with ``O(1)`` incremental binomial updates, matching the paper's
    ``O(RK)`` complexity bound (each binomial evaluation costs ``O(K)``
    when computed from scratch; here they are updated multiplicatively).

    >>> [unrank_lex(i, 4, 2) for i in range(6)]
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    """
    if k == 0:
        if rank != 0:
            raise RankOutOfRangeError(f"rank {rank} invalid for k=0")
        return ()
    _check_rank(rank, n, k)
    result = []
    candidate = 0
    remaining = k
    # Number of subsets that keep `candidate` as their smallest element:
    # C(n - candidate - 1, remaining - 1).
    for _ in range(k):
        block = binomial(n - candidate - 1, remaining - 1)
        while rank >= block:
            rank -= block
            candidate += 1
            block = binomial(n - candidate - 1, remaining - 1)
        result.append(candidate)
        candidate += 1
        remaining -= 1
    return tuple(result)


def rank_lex(subset: Sequence[int], n: int) -> int:
    """Inverse of :func:`unrank_lex`: the lex rank of ``subset`` among
    ``len(subset)``-subsets of ``{0..n-1}``.

    >>> rank_lex((1, 3), 4)
    4
    """
    values = validate_subset(subset, n)
    k = len(values)
    rank = 0
    prev = -1
    remaining = k
    for value in values:
        for skipped in range(prev + 1, value):
            rank += binomial(n - skipped - 1, remaining - 1)
        prev = value
        remaining -= 1
    return rank


def validate_subset(subset: Sequence[int], n: int) -> Tuple[int, ...]:
    """Check that ``subset`` is a strictly increasing sequence in ``[0, n)``
    and return it as a tuple.  Raises :class:`ConfigurationError` otherwise.
    """
    values = tuple(subset)
    if not values:
        return values
    prev = -1
    for value in values:
        if not isinstance(value, int):
            raise ConfigurationError(f"subset elements must be ints, got {value!r}")
        if value <= prev:
            raise ConfigurationError(f"subset must be strictly increasing, got {values}")
        if not 0 <= value < n:
            raise ConfigurationError(f"subset element {value} outside [0, {n})")
        prev = value
    return values
