"""Replicated data types: the motivating application substrate.

Operation-based CRDTs consume the causal delivery the paper's mechanism
provides probabilistically.  Each type counts the anomalies it observes
when delivery violates causal order, turning the paper's abstract error
rate into application-visible numbers.
"""

from repro.crdt.base import CrdtBinding, OpBasedCrdt
from repro.crdt.counter import PNCounter
from repro.crdt.log import AntiEntropySession, DeliveryLog, diff_logs
from repro.crdt.orset import ORSet
from repro.crdt.rga import RGA, ROOT

__all__ = [
    "OpBasedCrdt",
    "CrdtBinding",
    "DeliveryLog",
    "diff_logs",
    "AntiEntropySession",
    "PNCounter",
    "ORSet",
    "RGA",
    "ROOT",
]
