"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch one type to handle any library-level failure.  More
specific subclasses distinguish configuration mistakes from membership
and simulation failures detected at runtime.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every exception raised by the :mod:`repro` library."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a component is built with inconsistent parameters.

    Examples: a key count ``K`` larger than the vector size ``R``, a
    negative rate, or a ``set_id`` outside ``[0, C(R, K))``.
    """


class RankOutOfRangeError(ConfigurationError):
    """Raised when a combination rank does not address any K-subset."""


class UnknownProcessError(ReproError, KeyError):
    """Raised when an operation references a process id never registered."""


class SimulationError(ReproError):
    """Raised when the discrete-event simulation reaches an invalid state."""


class MembershipError(ReproError):
    """Raised on invalid join/leave transitions (e.g. removing a non-member)."""
