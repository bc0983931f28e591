"""Message dissemination strategies.

The paper assumes "a reliable broadcast mechanism" underneath the causal
ordering layer, and motivates Algorithm 5's recent-messages list by noting
that gossip-based broadcast layers keep such a list anyway.  Two
strategies are provided:

* :class:`DirectBroadcast` — the paper's measured setting: the sender
  transmits to every current member; each receiver's arrival time follows
  the two-stage delay model.  Optional loss and duplication probabilities
  turn it into an unreliable medium for fault-injection tests.

* :class:`PushGossip` — infect-and-die push gossip (Definition 2 /
  Eugster et al.'s lightweight probabilistic broadcast, cited as [5]):
  the sender pushes to ``fanout`` random members; every member relays a
  message exactly once, on first reception, to ``fanout`` random members.
  Duplicates are frequent (the endpoint's duplicate filter absorbs them)
  and coverage is probabilistic — complete with high probability when
  ``fanout`` is Ω(log N).

Strategies talk to the runner through the small
:class:`DisseminationContext` interface so they stay testable in
isolation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Hashable, Tuple

from repro.core.errors import ConfigurationError
from repro.core.protocol import Message
from repro.sim.network import DelayModel
from repro.sim.rng import RandomSource

__all__ = ["DisseminationContext", "Dissemination", "DirectBroadcast", "PushGossip"]

ProcessId = Hashable


class DisseminationContext(ABC):
    """What a dissemination strategy may ask of its host (the runner)."""

    @abstractmethod
    def members(self) -> Tuple[ProcessId, ...]:
        """Current membership."""

    @abstractmethod
    def schedule_receive(self, node_id: ProcessId, message: Message, delay_ms: float) -> None:
        """Deliver ``message`` to ``node_id``'s endpoint after ``delay_ms``."""

    @property
    @abstractmethod
    def rng(self) -> RandomSource:
        """The network randomness stream."""


class Dissemination(ABC):
    """Strategy deciding who receives a broadcast, and when."""

    def __init__(self, delay_model: DelayModel) -> None:
        self._delay_model = delay_model

    @property
    def delay_model(self) -> DelayModel:
        """The delay model arrivals are drawn from."""
        return self._delay_model

    @abstractmethod
    def disseminate(
        self, context: DisseminationContext, message: Message, sender_id: ProcessId
    ) -> int:
        """Start disseminating a fresh broadcast.

        Returns the number of *distinct* remote members the message is
        expected to reach (the oracle's delivery budget for it).
        """

    def on_first_reception(
        self, context: DisseminationContext, message: Message, node_id: ProcessId
    ) -> None:
        """Hook invoked by the runner when ``node_id`` receives a message
        it had not seen before.  Gossip relays from here; direct broadcast
        does nothing."""


class DirectBroadcast(Dissemination):
    """Sender-to-all dissemination with the paper's two-stage delays.

    Args:
        delay_model: per-message base delay + per-receiver arrival skew.
        loss_rate: probability that one receiver's copy is dropped
            (0 = the paper's reliable medium).
        duplicate_rate: probability that one receiver's copy arrives
            twice (the duplicate follows an independent arrival draw).
    """

    def __init__(
        self, delay_model: DelayModel, loss_rate: float = 0.0, duplicate_rate: float = 0.0
    ) -> None:
        super().__init__(delay_model)
        for name, value in (("loss_rate", loss_rate), ("duplicate_rate", duplicate_rate)):
            if not 0.0 <= value < 1.0:
                raise ConfigurationError(f"{name} must lie in [0, 1), got {value}")
        self._loss_rate = loss_rate
        self._duplicate_rate = duplicate_rate

    def disseminate(
        self, context: DisseminationContext, message: Message, sender_id: ProcessId
    ) -> int:
        rng = context.rng
        base = self._delay_model.sample_base(rng)
        reached = 0
        for node_id in context.members():
            if node_id == sender_id:
                continue
            if self._loss_rate and rng.random() < self._loss_rate:
                continue
            context.schedule_receive(
                node_id, message, self._delay_model.sample_arrival(rng, base)
            )
            reached += 1
            if self._duplicate_rate and rng.random() < self._duplicate_rate:
                context.schedule_receive(
                    node_id, message, self._delay_model.sample_arrival(rng, base)
                )
        return reached


class PushGossip(Dissemination):
    """Infect-and-die push gossip.

    Every node (the sender included) pushes a message it sees for the
    first time to ``fanout`` members drawn uniformly at random; it never
    relays the same message again.  Total transmissions are bounded by
    ``fanout × N`` per message, and coverage is complete w.h.p. once
    ``fanout ≳ ln N + c``.

    The oracle budget returned by :meth:`disseminate` is the full remote
    membership; copies that never reach a node simply leave the budget
    unconsumed (reported by the runner as ``undelivered``).
    """

    def __init__(self, delay_model: DelayModel, fanout: int = 4) -> None:
        super().__init__(delay_model)
        if fanout < 1:
            raise ConfigurationError(f"fanout must be >= 1, got {fanout}")
        self._fanout = fanout

    @property
    def fanout(self) -> int:
        """Targets contacted per push."""
        return self._fanout

    def disseminate(
        self, context: DisseminationContext, message: Message, sender_id: ProcessId
    ) -> int:
        self._push(context, message, sender_id)
        return max(0, len(context.members()) - 1)

    def on_first_reception(
        self, context: DisseminationContext, message: Message, node_id: ProcessId
    ) -> None:
        self._push(context, message, node_id)

    def _push(
        self, context: DisseminationContext, message: Message, from_node: ProcessId
    ) -> None:
        rng = context.rng
        members = context.members()
        candidates = [node_id for node_id in members if node_id != from_node]
        if not candidates:
            return
        count = min(self._fanout, len(candidates))
        for target in rng.sample(candidates, count):
            base = self._delay_model.sample_base(rng)
            context.schedule_receive(
                target, message, self._delay_model.sample_arrival(rng, base)
            )
