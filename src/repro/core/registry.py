"""The clock-scheme and detector tables.

The factory layer (:mod:`repro.api`, :mod:`repro.sim.runner`, the CLI and
the wire codec) resolves names through two tables at the bottom of this
module instead of ``if scheme == ...`` chains:

* **clocks** — members of the (n, r, k) design space *and* foreign
  families (the Bloom clock).  A :class:`ClockSpec` couples the factory
  with *capability descriptors* the assembly layers consult instead of
  matching on names: does the clock need a dense process index
  (``vector``)?  a keyspace assignment (``probabilistic``/``plausible``)?
  does it draw a fresh key set per message (``bloom`` — which rules out
  the static-key delta wire path)?  Each spec also owns a
  ``wire_scheme_id`` byte so timestamps of different families are
  distinguishable on the wire (:mod:`repro.core.codec`).
* **detectors** — pre-delivery alert checks (Algorithms 4/5).

A new family is one more row in ``_CLOCKS`` (DESIGN.md §9).  Lookups of
unknown names raise :class:`ConfigurationError` listing the valid
names — never a silent fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.core.clocks import (
    EntryVectorClock,
    BloomCausalClock,
    LamportCausalClock,
    PlausibleCausalClock,
    ProbabilisticCausalClock,
    VectorCausalClock,
)
from repro.core.detector import (
    BasicAlertDetector,
    DeliveryErrorDetector,
    NullDetector,
    RefinedAlertDetector,
)
from repro.core.errors import ConfigurationError

__all__ = [
    "ClockBuildContext",
    "ClockSpec",
    "DetectorSpec",
    "get_clock_spec",
    "get_detector_spec",
    "clock_schemes",
    "detector_names",
    "scheme_id_of",
    "scheme_name_of",
]


@dataclass(frozen=True)
class ClockBuildContext:
    """Everything a clock factory may consume, assembled by the caller.

    The factory layers (:func:`repro.api.create_clock`, the simulator)
    fill the fields a spec's capabilities declare it needs — ``keys``
    when ``needs_key_assignment``, ``index``/``n`` when
    ``needs_dense_index`` — and the factory picks what it wants.

    Attributes:
        node_id: the process identity (drives per-owner key derivation).
        r: vector size R.
        k: entries per process K (hash count for the Bloom clock).
        n: system size (``None`` outside dense-membership deployments).
        index: dense process index (``None`` unless the caller has one).
        keys: the assigned entry set ``f(p_i)`` (empty when the spec does
            not declare ``needs_key_assignment``).
    """

    node_id: Hashable
    r: int
    k: int
    n: Optional[int] = None
    index: Optional[int] = None
    keys: Tuple[int, ...] = ()


ClockFactory = Callable[[ClockBuildContext], EntryVectorClock]


@dataclass(frozen=True)
class ClockSpec:
    """A registered clock family and its capability descriptors.

    Attributes:
        name: the scheme string users configure.
        factory: builds one clock from a :class:`ClockBuildContext`.
        description: one line for ``repro engines`` listings.
        needs_dense_index: the factory requires ``ctx.index``/``ctx.n``
            (static dense membership — the exact vector clock).
        needs_key_assignment: the factory consumes ``ctx.keys`` from a
            keyspace assignment (the (R, K) family's ``f(p_i)``).
        per_message_keys: the clock draws a fresh key set per *send*
            (Bloom clock).  Receivers cannot cache a static per-sender
            key set, so the delta wire path — which reconstructs
            ``sender_keys`` from the link's full-encoding reference —
            is disabled for such schemes.
        fixed_k: the scheme pins K (``1`` for plausible/vector/lamport);
            ``None`` means K is a free parameter.
        fixed_r: the scheme pins R (``1`` for lamport); ``None`` means R
            is a free parameter (or equals N for dense-index schemes).
        wire_scheme_id: the codec's scheme byte — every encoded
            timestamp carries it, so mixed-family traffic fails loudly
            at decode instead of mis-applying a delivery condition.
    """

    name: str
    factory: ClockFactory
    description: str = ""
    needs_dense_index: bool = False
    needs_key_assignment: bool = False
    per_message_keys: bool = False
    fixed_k: Optional[int] = None
    fixed_r: Optional[int] = None
    wire_scheme_id: int = 0

    def capabilities(self) -> Dict[str, Any]:
        """The descriptor fields as a plain dict (CLI listings)."""
        return {
            "needs_dense_index": self.needs_dense_index,
            "needs_key_assignment": self.needs_key_assignment,
            "per_message_keys": self.per_message_keys,
            "fixed_k": self.fixed_k,
            "fixed_r": self.fixed_r,
            "wire_scheme_id": self.wire_scheme_id,
        }


@dataclass(frozen=True)
class DetectorSpec:
    """A registered pre-delivery alert check.

    The factory accepts the two knobs the assembly layers thread through
    (``window`` and ``max_entries``); specs that ignore them (``none``,
    ``basic``) simply drop the arguments.
    """

    name: str
    factory: Callable[..., DeliveryErrorDetector] = field(default=NullDetector)
    description: str = ""

    def build(
        self, window: Optional[float] = None, max_entries: Optional[int] = None
    ) -> DeliveryErrorDetector:
        """Instantiate the detector with the standard knobs."""
        return self.factory(window=window, max_entries=max_entries)


def _lookup(kind: str, name: str, table: Dict[str, Any]) -> Any:
    try:
        return table[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown {kind} {name!r}; registered: {tuple(table)}"
        ) from None


def get_clock_spec(name: str) -> ClockSpec:
    """The spec registered under ``name`` (raises listing valid names)."""
    return _lookup("clock scheme", name, _CLOCKS)


def get_detector_spec(name: str) -> DetectorSpec:
    """The spec registered under ``name`` (raises listing valid names)."""
    return _lookup("detector", name, _DETECTORS)


def clock_schemes() -> Tuple[str, ...]:
    """Registered clock scheme names, in table order."""
    return tuple(_CLOCKS)


def detector_names() -> Tuple[str, ...]:
    """Registered detector names, in table order."""
    return tuple(_DETECTORS)


def scheme_id_of(name: str) -> int:
    """The codec scheme byte of a registered clock scheme."""
    return get_clock_spec(name).wire_scheme_id


def scheme_name_of(scheme_id: int) -> Optional[str]:
    """The scheme registered under a codec byte (``None`` when foreign)."""
    for spec in _CLOCKS.values():
        if spec.wire_scheme_id == scheme_id:
            return spec.name
    return None


# ----------------------------------------------------------------------
# The tables.  Wire scheme ids are pinned (they are a wire format); a
# new family takes the next id upward from 6 — see DESIGN.md §9.
# ----------------------------------------------------------------------


def _build_probabilistic(ctx: ClockBuildContext) -> EntryVectorClock:
    return ProbabilisticCausalClock(ctx.r, ctx.keys)


def _build_plausible(ctx: ClockBuildContext) -> EntryVectorClock:
    if len(ctx.keys) != 1:
        raise ConfigurationError(
            f'scheme="plausible" owns exactly one entry, got {tuple(ctx.keys)}'
        )
    return PlausibleCausalClock(ctx.r, ctx.keys[0])


def _build_lamport(ctx: ClockBuildContext) -> EntryVectorClock:
    return LamportCausalClock()


def _build_vector(ctx: ClockBuildContext) -> EntryVectorClock:
    if ctx.index is None:
        raise ConfigurationError(
            'scheme="vector" needs index= (this node\'s dense process index)'
        )
    return VectorCausalClock(ctx.n if ctx.n is not None else ctx.r, ctx.index)


def _build_bloom(ctx: ClockBuildContext) -> EntryVectorClock:
    return BloomCausalClock(ctx.r, hashes=ctx.k, owner=ctx.node_id)


def _make_none(window: Optional[float] = None, max_entries: Optional[int] = None):
    return NullDetector()


def _make_basic(window: Optional[float] = None, max_entries: Optional[int] = None):
    return BasicAlertDetector()


def _make_refined(window: Optional[float] = None, max_entries: Optional[int] = None):
    if max_entries is None:
        return RefinedAlertDetector(window=window)
    return RefinedAlertDetector(window=window, max_entries=max_entries)


_CLOCKS: Dict[str, ClockSpec] = {
    spec.name: spec
    for spec in (
        ClockSpec(
            "probabilistic",
            _build_probabilistic,
            "the paper's (n, r, k) clock: K static hashed entries per process",
            needs_key_assignment=True,
            wire_scheme_id=1,
        ),
        ClockSpec(
            "plausible",
            _build_plausible,
            "Torres-Rojas plausible clock: the (n, r, 1) point",
            needs_key_assignment=True,
            fixed_k=1,
            wire_scheme_id=2,
        ),
        ClockSpec(
            "lamport",
            _build_lamport,
            "Lamport scalar clock: the degenerate (n, 1, 1) point",
            fixed_k=1,
            fixed_r=1,
            wire_scheme_id=3,
        ),
        ClockSpec(
            "vector",
            _build_vector,
            "exact vector clock: the (n, n, 1) point (dense membership)",
            needs_dense_index=True,
            fixed_k=1,
            wire_scheme_id=4,
        ),
        ClockSpec(
            "bloom",
            _build_bloom,
            "Bloom clock (Ramabaja): h hashed entries drawn fresh per event",
            per_message_keys=True,
            wire_scheme_id=5,
        ),
    )
}

_DETECTORS: Dict[str, DetectorSpec] = {
    spec.name: spec
    for spec in (
        DetectorSpec("none", _make_none, "alerts disabled (baseline)"),
        DetectorSpec("basic", _make_basic, "Algorithm 4: all sender entries covered"),
        DetectorSpec(
            "refined",
            _make_refined,
            "Algorithm 5: Algorithm 4 filtered through the recent list L",
        ),
    )
}
