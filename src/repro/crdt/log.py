"""In-memory delivery logs and their reconciliation (Section 4.2).

The paper's mechanism tolerates rare causal-order violations on the
assumption that "a recovery procedure does exist (e.g., anti-entropy)";
the alert of Algorithms 4/5 tells the application *when* paying for that
procedure is worthwhile.  This module supplies the procedure for
:class:`~repro.crdt.base.CrdtBinding` replicas and the examples (a
networked node repairs over the wire instead: digests and pushes in
:mod:`repro.net.node`):

* :class:`DeliveryLog` — a per-node record of delivered messages, bounded
  or unbounded;
* :func:`diff_logs` — the set-reconciliation step: what each side misses;
* :class:`AntiEntropySession` — a two-party exchange that replays the
  missing messages into each side's application callback, in sequence
  order per sender (the strongest order reconstructible without extra
  metadata).

The session is transport-agnostic: it works directly on in-memory logs.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, List, Optional, Set, Tuple

from repro.core.errors import ConfigurationError
from repro.core.protocol import Message

__all__ = ["DeliveryLog", "diff_logs", "AntiEntropySession"]

ProcessId = Hashable
MessageId = Tuple[ProcessId, int]


class DeliveryLog:
    """Append-only record of the messages one node has delivered.

    Keeps insertion order (delivery order) and supports O(1) membership
    tests.  With ``max_entries`` set the log is a sliding window — the
    realistic deployment mode, where anti-entropy only repairs recent
    divergence and older state is reconciled by snapshot transfer.
    """

    def __init__(self, max_entries: Optional[int] = None) -> None:
        if max_entries is not None and max_entries <= 0:
            raise ConfigurationError(f"max_entries must be positive, got {max_entries}")
        self._entries: "OrderedDict[MessageId, Message]" = OrderedDict()
        self._max_entries = max_entries
        self.evicted = 0

    def record(self, message: Message) -> None:
        """Append one delivered message (duplicates are ignored)."""
        message_id = message.message_id
        if message_id in self._entries:
            return
        self._entries[message_id] = message
        if self._max_entries is not None:
            while len(self._entries) > self._max_entries:
                self._entries.popitem(last=False)
                self.evicted += 1

    def ids(self) -> Set[MessageId]:
        """The set of logged message ids."""
        return set(self._entries)

    def get(self, message_id: MessageId) -> Optional[Message]:
        """The logged message for ``message_id``, or None."""
        return self._entries.get(message_id)

    def messages(self) -> List[Message]:
        """All logged messages in delivery order."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, message_id: MessageId) -> bool:
        return message_id in self._entries


def diff_logs(first: DeliveryLog, second: DeliveryLog) -> Tuple[List[Message], List[Message]]:
    """Set reconciliation between two delivery logs.

    Returns ``(missing_in_first, missing_in_second)``: the messages each
    side has that the other lacks, in the holder's delivery order.
    """
    first_ids = first.ids()
    second_ids = second.ids()
    missing_in_first = [m for m in second.messages() if m.message_id not in first_ids]
    missing_in_second = [m for m in first.messages() if m.message_id not in second_ids]
    return missing_in_first, missing_in_second


class AntiEntropySession:
    """Two-party anti-entropy: exchange missing messages and replay them.

    Replay order: missing messages are sorted by ``(sender, seq)`` and
    handed to the receiving side's ``apply`` callback.  Per-sender
    sequence order is exactly the FIFO order the causal protocol would
    have enforced; cross-sender order cannot be reconstructed from ids
    alone, which is fine for the intended consumers (CRDTs, whose
    operations from different senders commute).
    """

    def __init__(
        self,
        apply_first: Callable[[Message], None],
        apply_second: Callable[[Message], None],
    ) -> None:
        self._apply_first = apply_first
        self._apply_second = apply_second

    def reconcile(self, first: DeliveryLog, second: DeliveryLog) -> int:
        """Run one exchange; returns how many messages were repaired."""
        missing_in_first, missing_in_second = diff_logs(first, second)
        for message in sorted(missing_in_first, key=_replay_key):
            self._apply_first(message)
            first.record(message)
        for message in sorted(missing_in_second, key=_replay_key):
            self._apply_second(message)
            second.record(message)
        return len(missing_in_first) + len(missing_in_second)


def _replay_key(message: Message) -> Tuple[str, int]:
    return (repr(message.sender), message.seq)
