"""Asyncio deployment layer: run the protocol over real transports.

:mod:`repro.sim` answers "how does the mechanism behave"; this package
answers "how do I ship it": a binary wire codec, an in-process bus with
realistic delays, a UDP transport, and — because UDP is fire-and-forget
while the paper's Algorithm 5 only tolerates *late* messages — a
reliability runtime:
:class:`ReliableSession` (per-peer acks, NACK-driven retransmission
with backoff, backpressure, and — tuned by :class:`LivenessPolicy` — the
heartbeat failure detector that quarantines dead peers) and
:class:`ReliableCausalNode` (endpoint + session + anti-entropy message
store).  Nodes survive more than packet loss: :class:`NodeJournal`
persists the causal state across crashes (WAL + snapshots), and :class:`FaultWindow` schedules
partitions and latency spikes for chaos testing.  :class:`GroupMembership`
makes the peer set itself dynamic: a versioned live view, a JOIN/LEAVE
handshake with state transfer, and quarantine-driven eviction.  For
swarms too large for a full mesh, :class:`PartialView` bounds the
dissemination cost: broadcasts ride bounded-fanout RELAY gossip over a
partial view instead of N−1 unicasts (``dissemination="overlay"``).
And because the paper sizes K from a one-shot *guess* of the in-flight
concurrency X, :class:`AdaptiveClockController` closes that loop at
runtime: it reads X off the node's own alert rate (Algorithm 4's alert
is P_err's event) and has the acting coordinator renegotiate
clock-sizing *epochs* for the whole group (``--adaptive``).

Assemble nodes with :func:`repro.api.create_node` rather than by hand.
"""

from repro.net.adaptive import AdaptiveClockController, AdaptivePolicy
from repro.net.bus import BusTransport, LocalAsyncBus
from repro.net.faults import FaultWindow, FaultyTransport
from repro.net.journal import LinkState, NodeJournal, RecoveredState
from repro.net.membership import GroupMembership, GroupView, MembershipConfig
from repro.net.node import ReliableCausalNode
from repro.net.overlay import OverlayStats, PartialView
from repro.net.peer import Transport
from repro.net.repair import MessageStore, StoreStats
from repro.net.session import LivenessPolicy, ReliableSession, RetransmitPolicy, TransportStats
from repro.net.udp import BatchedUdpTransport, IoStats, UdpTransport

__all__ = [
    "Transport",
    "LocalAsyncBus",
    "BusTransport",
    "UdpTransport",
    "BatchedUdpTransport",
    "IoStats",
    "FaultWindow",
    "FaultyTransport",
    "NodeJournal",
    "RecoveredState",
    "LinkState",
    "LivenessPolicy",
    "MembershipConfig",
    "GroupView",
    "GroupMembership",
    "ReliableSession",
    "RetransmitPolicy",
    "TransportStats",
    "MessageStore",
    "StoreStats",
    "ReliableCausalNode",
    "PartialView",
    "OverlayStats",
    "AdaptivePolicy",
    "AdaptiveClockController",
]
