"""Closed-form error analysis of the mechanism (Section 5.3).

The paper bounds the probability of a wrong delivery by
``P <= P_nc * P_err`` where

* ``P_nc`` is the probability that a message is *received* after a message
  it causally precedes (network reordering — a property of the system, not
  of the mechanism), and
* ``P_err`` is the probability that, given such a reordering, the delayed
  message's ``K`` entries are all covered by concurrent traffic, following
  the same scheme as the false-positive analysis of a Bloom filter:

  .. math::

      P_{err}(R, K, X) = \\left(1 - (1 - 1/R)^{K X}\\right)^K

  with ``X`` the number of concurrent messages (messages broadcast during
  one network transit time).  ``P_err`` is minimised at
  ``K_opt = ln 2 · R / X``.

The functions here are pure and exact (up to float rounding); the
``bench_theory_accuracy`` benchmark compares them against measured rates
from the simulator, and ``bench_fig3_optimal_k`` checks the predicted
optimum against the empirical one (the paper: theory 3.5, measured 4).
"""

from __future__ import annotations

import math
from typing import Iterable, List, Tuple

from repro.core.errors import ConfigurationError

__all__ = [
    "p_entry_covered",
    "p_error",
    "concurrency_at_error",
    "optimal_k",
    "optimal_k_int",
    "predicted_error_series",
    "expected_concurrency",
    "p_reorder_same_sender",
    "p_violation_bound",
    "p_fp",
    "timestamp_overhead_bits",
]


def _validate(r: int, k: float, x: float) -> None:
    if r <= 0:
        raise ConfigurationError(f"R must be positive, got {r}")
    if k < 1 or k > r:
        raise ConfigurationError(f"K must satisfy 1 <= K <= R, got K={k}, R={r}")
    if x < 0:
        raise ConfigurationError(f"concurrency X must be >= 0, got {x}")


def p_entry_covered(r: int, k: float, x: float) -> float:
    """Probability that one given entry is incremented by ``x`` concurrent
    messages, each touching ``k`` uniformly random entries of an ``r``-entry
    vector: ``1 - (1 - 1/r)^(k*x)``.
    """
    _validate(r, k, x)
    return 1.0 - (1.0 - 1.0 / r) ** (k * x)


def p_error(r: int, k: float, x: float) -> float:
    """The paper's Bloom-filter-style bound on a covered (bypassable)
    message: all ``k`` entries of the missing message matched by ``x``
    concurrent messages.

    ``k`` may be fractional so the continuous optimum can be inspected.
    """
    return p_entry_covered(r, k, x) ** k


def concurrency_at_error(r: int, k: float, p: float) -> float:
    """The inverse of :func:`p_error` in ``x``: the concurrency at which
    an (r, k) geometry errs with probability ``p``,
    ``ln(1 - p^(1/k)) / (k · ln(1 - 1/r))``.

    A Bloom filter's false-positive rate fixes how many items it holds;
    Algorithm 4's alert is P_err's event, so a node reads its own
    concurrency off its alert rate.  ``p = 0`` reads 0 and ``p = 1``
    (every entry always covered) reads infinity.
    """
    _validate(r, k, 0.0)
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError(f"error probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return 0.0
    if p == 1.0 or r == 1:
        return math.inf
    return math.log1p(-p ** (1.0 / k)) / (k * math.log1p(-1.0 / r))


def optimal_k(r: int, x: float) -> float:
    """The continuous minimiser of :func:`p_error`: ``ln 2 · r / x``.

    For the paper's running configuration (R=100, X=20) this is ≈ 3.47,
    which the text rounds to 3.5.
    """
    if r <= 0:
        raise ConfigurationError(f"R must be positive, got {r}")
    if x <= 0:
        raise ConfigurationError(f"concurrency X must be > 0, got {x}")
    return math.log(2.0) * r / x


def optimal_k_int(r: int, x: float, k_max: int = None) -> int:
    """The integer ``K`` in ``[1, k_max]`` that minimises :func:`p_error`.

    Scans the integer neighbourhood (the function is unimodal in ``k``)
    rather than rounding the continuous optimum, so boundary cases
    (``K=1`` best when ``x`` is huge) come out right.  Unimodality also
    means the first non-improving step ends the scan: the walk costs
    ``O(K_opt)``, not ``O(R)`` — which matters to callers evaluating it
    per epoch, like the adaptive clock-sizing controller.
    """
    upper = r if k_max is None else min(k_max, r)
    if upper < 1:
        raise ConfigurationError(f"k_max must allow at least K=1, got {k_max}")
    best_k = 1
    best_value = p_error(r, 1, x)
    for k in range(2, upper + 1):
        value = p_error(r, k, x)
        if value < best_value:
            best_k, best_value = k, value
        else:
            # Past the minimum: P_err only grows from here on.  A tie
            # keeps the smaller K (same choice the full scan made, since
            # only strict improvement ever advanced it).
            break
    return best_k


def predicted_error_series(
    r: int, x: float, ks: Iterable[float]
) -> List[Tuple[float, float]]:
    """``[(k, P_err(r, k, x)), ...]`` for plotting against measurements.

    ``ks`` may contain fractional values — :func:`p_error` accepts them
    so the continuous optimum (≈ 3.47 for the paper's R=100, X=20) can
    sit on the same curve as the integer grid; each ``k`` is evaluated
    exactly as given, never truncated.
    """
    return [(float(k), p_error(r, float(k), x)) for k in ks]


def expected_concurrency(
    receive_rate_per_second: float, propagation_time_ms: float
) -> float:
    """The paper's ``X``: mean number of messages in flight towards a node
    during one network transit.

    ``X = receive_rate × propagation_time``.  In the paper's headline
    configuration each node receives 200 msg/s and the mean propagation
    time is 100 ms, giving X = 20.

    Args:
        receive_rate_per_second: aggregate rate of messages *arriving* at
            one node (≈ (N−1) × per-node send rate for full broadcast).
        propagation_time_ms: mean one-way network latency in milliseconds.
    """
    if receive_rate_per_second < 0:
        raise ConfigurationError(
            f"receive rate must be >= 0, got {receive_rate_per_second}"
        )
    if propagation_time_ms < 0:
        raise ConfigurationError(
            f"propagation time must be >= 0, got {propagation_time_ms}"
        )
    return receive_rate_per_second * propagation_time_ms / 1000.0


def p_reorder_same_sender(mean_send_interval_ms: float, delay_std_ms: float) -> float:
    """Probability that two consecutive messages of one sender arrive
    reordered at a receiver (a lower bound on the system's ``P_nc``).

    Model (matching the simulator): the sender's inter-send gap is
    exponential with mean ``mean_send_interval_ms``; each message's delay
    is Gaussian with standard deviation ``delay_std_ms`` (the mean cancels
    out).  The second message overtakes the first when
    ``D2 + gap < D1``, i.e. ``D1 − D2 > gap`` with
    ``D1 − D2 ~ N(0, 2·σ²)``.  Averaging over the exponential gap:

    .. math::

        P = \\int_0^\\infty \\frac{e^{-g/\\mu}}{\\mu}
            \\; Q\\!\\left(\\frac{g}{\\sqrt{2}\\sigma}\\right) dg

    evaluated here by closed-form using the Gaussian MGF identity
    ``E[Q((g)/s)] = e^{s^2/(2 mu^2)} Q(s/mu) ...``; we instead use simple
    numerical quadrature, which is exact to ~1e-10 for all sane inputs.
    """
    if mean_send_interval_ms <= 0:
        raise ConfigurationError(
            f"mean send interval must be > 0, got {mean_send_interval_ms}"
        )
    if delay_std_ms < 0:
        raise ConfigurationError(f"delay std must be >= 0, got {delay_std_ms}")
    if delay_std_ms == 0:
        return 0.0
    sigma = math.sqrt(2.0) * delay_std_ms
    mu = mean_send_interval_ms

    def q_function(z: float) -> float:
        return 0.5 * math.erfc(z / math.sqrt(2.0))

    # Trapezoidal quadrature over the exponential gap density; the
    # integrand decays like exp(-g/mu) so 12 mean-lifetimes suffice.
    steps = 4096
    upper = 12.0 * mu
    h = upper / steps
    total = 0.0
    for i in range(steps + 1):
        g = i * h
        weight = 0.5 if i in (0, steps) else 1.0
        total += weight * math.exp(-g / mu) / mu * q_function(g / sigma)
    return total * h


def p_violation_bound(p_nc: float, r: int, k: int, x: float) -> float:
    """The paper's overall bound ``P <= P_nc · P_err(R, K, X)``."""
    if not 0.0 <= p_nc <= 1.0:
        raise ConfigurationError(f"P_nc must lie in [0, 1], got {p_nc}")
    return p_nc * p_error(r, k, x)


def p_fp(m: int, h: int, inserts: float) -> float:
    """Bloom-clock false-positive curve: the analogue of ``P_err(R, K, X)``.

    Probability that ``inserts`` concurrent events — each incrementing
    ``h`` hashed cells of an ``m``-counter Bloom clock — cover all ``h``
    cells of a missing event, making it look causally ordered:

    .. math::

        p_{fp}(m, h, X) = \\left(1 - (1 - 1/m)^{h X}\\right)^h

    This is *structurally identical* to the paper's ``P_err``: both are
    the textbook Bloom-filter covering computation, the families
    differing only in whether the cells are drawn once per process
    (static ``f(p_i)``) or once per event (the Bloom clock's
    ``f(owner, seq)``).  The shared formula is why the (R, K) clock can
    be read as "a Bloom clock with static keys", and it lets both rows
    of the clock-family table be predicted by one curve.  Minimised at
    ``h = ln 2 · m / X`` (:func:`optimal_k`, with ``m``, ``X`` in place
    of ``r``, ``x``).

    Args:
        m: number of Bloom counters (the family's ``R``).
        h: cells incremented per event (plays ``K``).
        inserts: concurrent events during one transit (the paper's ``X``).
    """
    return p_error(m, h, inserts)


def timestamp_overhead_bits(r: int, k: int, bits_per_entry: int = 32) -> int:
    """Wire overhead of one timestamp for the clock-family table:
    ``R`` counters plus ``K`` key indices of ``ceil(log2 R)`` bits each.
    """
    if r <= 0:
        raise ConfigurationError(f"R must be positive, got {r}")
    if not 1 <= k <= r:
        raise ConfigurationError(f"need 1 <= K <= R, got K={k}, R={r}")
    key_bits = 0 if r == 1 else k * max(1, (r - 1).bit_length())
    return r * bits_per_entry + key_bits
