"""A simulated participant: protocol endpoint plus run-time bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Optional

from repro.core.keyspace import KeyAssignment
from repro.core.protocol import CausalBroadcastEndpoint

__all__ = ["SimNode"]

ProcessId = Hashable


@dataclass
class SimNode:
    """One node of the simulated system.

    Attributes:
        node_id: its identity (stable across the run).
        slot: dense index assigned by the oracle (and, for the exact
            vector-clock baseline, the node's own clock entry).
        endpoint: the causal-broadcast protocol machine under test.
        assignment: the node's key set (``f(p_i)``), if the configured
            clock uses assigned keys.
    """

    node_id: ProcessId
    slot: int
    endpoint: CausalBroadcastEndpoint
    assignment: Optional[KeyAssignment] = None
