"""Simulation substrate: the event-based evaluation environment of §5.4.

Provides the discrete-event kernel, network delay models, dissemination
strategies (direct broadcast and push gossip), workload generators,
membership/churn models, the ground-truth causality oracle (ε_min/ε_max),
metric collectors and the endpoint-only experiment runner.  Partial
views, anti-entropy, adaptive K and fault windows are not modelled here:
they exist once, in :mod:`repro.net`, and run under simulated time on
:mod:`repro.sim.vtime`.
"""

from repro.sim.dissemination import (
    DirectBroadcast,
    Dissemination,
    DisseminationContext,
    PushGossip,
)
from repro.sim.engine import Simulator
from repro.sim.membership import (
    ChurnAction,
    ChurnEvent,
    ChurnModel,
    MembershipView,
    NoChurn,
    PoissonChurn,
    ScriptedChurn,
)
from repro.sim.metrics import AlertConfusion, MetricSet, StreamingSummary
from repro.sim.network import (
    ConstantDelayModel,
    DelayModel,
    GaussianDelayModel,
)
from repro.sim.node import SimNode
from repro.sim.oracle import (
    CausalityOracle,
    ClassifiedDelivery,
    DeliveryVerdict,
    OracleCounters,
)
from repro.sim.rng import RandomSource
from repro.sim.runner import SimulationConfig, SimulationResult, run_simulation
from repro.sim.workload import (
    PoissonWorkload,
    Workload,
)

__all__ = [
    "Simulator",
    "RandomSource",
    # network
    "DelayModel",
    "GaussianDelayModel",
    "ConstantDelayModel",
    # dissemination
    "Dissemination",
    "DisseminationContext",
    "DirectBroadcast",
    "PushGossip",
    # workload
    "Workload",
    "PoissonWorkload",
    # membership
    "ChurnAction",
    "ChurnEvent",
    "ChurnModel",
    "MembershipView",
    "NoChurn",
    "PoissonChurn",
    "ScriptedChurn",
    # oracle & metrics
    "CausalityOracle",
    "ClassifiedDelivery",
    "DeliveryVerdict",
    "OracleCounters",
    "AlertConfusion",
    "MetricSet",
    "StreamingSummary",
    # runner
    "SimNode",
    "SimulationConfig",
    "SimulationResult",
    "run_simulation",
]
