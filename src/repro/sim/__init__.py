"""Simulation substrate: the event-based evaluation environment of §5.4.

Provides the discrete-event kernel, network delay models, workload
generators, the ground-truth causality oracle (ε_min/ε_max), metric
collectors and the endpoint-only experiment runner: direct broadcast
over a static membership, what Figures 3–6 measure.  Dissemination,
membership and churn, partial views, anti-entropy, adaptive K and fault
windows are not modelled here: they exist once, in :mod:`repro.net`,
and run under simulated time on :mod:`repro.sim.vtime`
(:class:`repro.sim.group.Group`).
"""

from repro.sim.engine import Simulator
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
from repro.sim.runner import SimulationConfig, SimulationResult, run_simulation
from repro.sim.workload import (
    PoissonWorkload,
    Workload,
)
from repro.util.rng import RandomSource

__all__ = [
    "Simulator",
    "RandomSource",
    # network
    "DelayModel",
    "GaussianDelayModel",
    "ConstantDelayModel",
    # workload
    "Workload",
    "PoissonWorkload",
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
