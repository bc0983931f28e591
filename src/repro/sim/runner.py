"""Experiment runner: builds a system, drives it, measures it.

This module reproduces the methodology of Section 5.4: ``N`` nodes each
broadcasting with Poisson inter-send times (mean λ ms), a network whose
per-message propagation time is ``N(100, 20)`` ms with per-receiver skew
``N(d, 20)`` ms, the probabilistic causal ordering mechanism under test at
every node, and a vector-clock oracle classifying every delivery into
correct / proven-violation / ambiguous (the ε_min and ε_max bounds).

Entry point::

    from repro.sim import SimulationConfig, run_simulation
    result = run_simulation(SimulationConfig(n_nodes=100, r=100, k=4,
                                             duration_ms=60_000, seed=7))
    print(result.counters.eps_min, result.counters.eps_max)

Pluggable: workload, delay model, clock family member, key assigner and
detector.  The runner is endpoint-only on purpose, with direct
broadcast over static membership — that is what lets Figures 3–6 run
at N >= 1,000.  Dissemination, churn, partitions, anti-entropy repair
and adaptive re-keying are measured on the shipping ``create_node()``
stack under :mod:`repro.sim.vtime` (``benchmarks/bench_dissemination.py``,
``bench_churn.py``, ``bench_heal.py``, ``bench_adaptive.py``).
"""

from __future__ import annotations

import os
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.clocks import EntryVectorClock, scheme_class
from repro.core.detector import DeliveryErrorDetector, detector_class
from repro.core.errors import ConfigurationError
from repro.core.keyspace import (
    BalancedLoadKeyAssigner,
    HashKeyAssigner,
    KeyAssigner,
    PerfectKeyAssigner,
    RandomKeyAssigner,
    SequentialKeyAssigner,
)
from repro.core.protocol import CausalBroadcastEndpoint, Message
from repro.sim.engine import Simulator
from repro.sim.metrics import AlertConfusion, MetricSet
from repro.sim.network import DelayModel, GaussianDelayModel
from repro.sim.node import SimNode
from repro.sim.oracle import CausalityOracle, OracleCounters
from repro.sim.workload import PoissonWorkload, Workload
from repro.util.rng import RandomSource

__all__ = [
    "NodeApplication",
    "SimulationConfig",
    "SimulationResult",
    "run_simulation",
    "run_simulations",
    "resolve_workers",
]


class NodeApplication:
    """Optional per-node application layer driven by the runner.

    Subclass and pass a factory via
    :attr:`SimulationConfig.application_factory` to run real payloads
    (e.g. CRDT operations) through a simulated system.  The default
    implementations make the application a no-op.
    """

    def make_payload(self, node_id: int, now: float) -> object:
        """Produce the payload of one outgoing broadcast.

        Called right before the protocol send, so this is also the hook
        where an op-based application applies its operation locally.
        """
        return None

    def on_deliver(self, node_id: int, record, verdict, now: float) -> None:
        """Observe one remote delivery at ``node_id``.

        ``record`` is the protocol's :class:`~repro.core.protocol.DeliveryRecord`
        (payload, alert flag); ``verdict`` is the oracle's
        :class:`~repro.sim.oracle.DeliveryVerdict` — simulation-only ground
        truth a real deployment would not have, provided so experiments can
        correlate application anomalies with proven violations.
        """


ASSIGNER_MODES = (
    "random",
    "random-colliding",
    "perfect",
    "balanced-load",
    "sequential",
    "hash",
)


@dataclass
class SimulationConfig:
    """Parameters of one simulated run.

    The defaults follow the paper's Section 5.4.3 reference configuration,
    scaled only in population and duration (the paper uses N=1000 and
    >10⁸ messages; see DESIGN.md for the substitution note).

    Attributes:
        n_nodes: population ``N`` (static).
        r: vector size ``R`` (ignored for ``lamport`` and ``vector`` clocks).
        k: entries per process ``K`` (ignored unless ``probabilistic``).
        clock: which clock family every node runs — ``probabilistic``
            (the paper), ``plausible`` (K=1 baseline), ``lamport`` (R=1
            baseline), ``vector`` (exact baseline), ``bloom``
            (per-event hashed keys).
        key_assigner: how key sets are distributed — ``random`` (the
            paper's distributed scheme, distinct set_ids), ``random-colliding``
            (no distinctness guarantee), ``perfect``, ``sequential``, ``hash``.
        workload: per-node send process; default Poisson with λ=5000 ms.
        delay_model: network delays; default the paper's N(100,20)+N(d,20).
            Every broadcast goes directly to every other node: one base
            delay per message, one arrival skew per receiver.
        detector: pre-delivery alert check (Algorithms 4/5):
            ``none`` | ``basic`` | ``refined``.
        detector_window_ms: recent-list retention for the refined detector;
            default 4x the mean network delay (≈ the paper's
            ``O(T_propagation)`` guidance).
        detector_max_entries: hard cap on the recent list.
        duration_ms: sending horizon; reception drains afterwards.
        max_messages: optional global cap on broadcasts (whichever of the
            horizon and the cap hits first ends sending).
        seed: master seed; every random stream derives from it.
        track_latency: collect the send→deliver latency summary.
        max_pending: optional safety bound on any pending queue.
        application_factory: optional ``callable(node_id) -> NodeApplication``
            giving every node an application layer (payload production and
            delivery observation) — how the CRDT experiments and examples
            ride on the simulator.
        track_reception_order: also measure the *network's* reordering
            rate P_nc (fraction of receptions arriving out of causal
            order) — the system property the paper's bound
            ``P <= P_nc * P_err`` multiplies by.  Adds one oracle check
            per reception.
        metrics_path: when set, the run binds a
            :class:`repro.obs.MetricsRegistry` (labels ``mode="sim"``)
            to its metric set and appends one JSONL snapshot line to this
            path when the run finishes — the same format the live
            runtime's exporter writes, so ``repro stats`` and the CI
            sanity gates can read either.
    """

    n_nodes: int
    r: int = 100
    k: int = 4
    clock: str = "probabilistic"
    key_assigner: str = "random"
    workload: Optional[Workload] = None
    delay_model: Optional[DelayModel] = None
    detector: str = "basic"
    detector_window_ms: Optional[float] = None
    detector_max_entries: int = 256
    duration_ms: float = 60_000.0
    max_messages: Optional[int] = None
    seed: int = 0
    track_latency: bool = True
    max_pending: Optional[int] = None
    application_factory: Optional[object] = None
    track_reception_order: bool = False
    metrics_path: Optional[str] = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent parameters."""
        if self.n_nodes < 1:
            raise ConfigurationError(f"n_nodes must be >= 1, got {self.n_nodes}")
        family = scheme_class(self.clock)
        if self.key_assigner not in ASSIGNER_MODES:
            raise ConfigurationError(
                f"key_assigner must be one of {ASSIGNER_MODES}, got {self.key_assigner!r}"
            )
        detector_class(self.detector)
        if family.fixed_k is None and family.fixed_r is None and not 1 <= self.k <= self.r:
            raise ConfigurationError(f"need 1 <= K <= R, got K={self.k}, R={self.r}")
        if family.fixed_r is None and not family.needs_dense_index and self.r < 1:
            raise ConfigurationError(f"R must be >= 1, got {self.r}")
        if self.duration_ms <= 0:
            raise ConfigurationError(f"duration_ms must be > 0, got {self.duration_ms}")
        if self.max_messages is not None and self.max_messages < 0:
            raise ConfigurationError(f"max_messages must be >= 0, got {self.max_messages}")


@dataclass
class SimulationResult:
    """Everything one run measured."""

    config: SimulationConfig
    counters: OracleCounters
    alerts: AlertConfusion
    latency: Dict[str, float]
    pending: Dict[str, float]
    sent: int
    delivered_remote: int
    undelivered_messages: int
    stuck_pending: int
    sim_time_ms: float
    events: int
    wall_seconds: float
    measured_concurrency: float
    measured_p_nc: Optional[float]
    """Out-of-causal-order reception rate (None unless
    ``track_reception_order`` was enabled)."""

    @property
    def eps_min(self) -> float:
        """Lower bound on the causal-violation rate (proven violations)."""
        return self.counters.eps_min

    @property
    def eps_max(self) -> float:
        """Upper bound on the causal-violation rate (ambiguous included)."""
        return self.counters.eps_max

    def summary(self) -> str:
        """One-paragraph human-readable digest."""
        return (
            f"{self.config.clock} clock (R={self.config.r}, K={self.config.k}), "
            f"N={self.config.n_nodes}: sent={self.sent}, "
            f"delivered={self.delivered_remote}, "
            f"eps_min={self.eps_min:.3e}, eps_max={self.eps_max:.3e}, "
            f"alert_rate={self.alerts.alert_rate:.3e}, "
            f"mean latency={self.latency.get('mean', 0.0):.1f} ms, "
            f"X={self.measured_concurrency:.1f}"
        )


class _Run:
    """Mutable state of one simulation execution."""

    def __init__(self, config: SimulationConfig) -> None:
        config.validate()
        self._config = config
        self._sim = Simulator()
        rng_root = RandomSource(seed=config.seed)
        self._rng_network = rng_root.spawn("network")
        self._rng_workload = rng_root.spawn("workload")
        self._rng_keys = rng_root.spawn("keys")

        self._workload = config.workload if config.workload is not None else PoissonWorkload(5000.0)
        self._delay_model = (
            config.delay_model if config.delay_model is not None else GaussianDelayModel()
        )
        self._oracle = CausalityOracle(
            capacity=config.n_nodes, track_receptions=config.track_reception_order
        )
        self._nodes: List[SimNode] = []
        self._metrics = MetricSet()
        if config.metrics_path is not None:
            from repro.obs import MetricsRegistry

            self._metrics.bind_registry(MetricsRegistry(labels={"mode": "sim"}))
        self._assigner = self._make_assigner()
        self._effective_r = self._effective_vector_size()
        self._applications: Dict[int, NodeApplication] = {}
        self._sent = 0

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------

    def _effective_vector_size(self) -> int:
        family = scheme_class(self._config.clock)
        if family.fixed_r is not None:
            return family.fixed_r
        if family.needs_dense_index:
            return self._config.n_nodes
        return self._config.r

    def _make_assigner(self) -> Optional[KeyAssigner]:
        family = scheme_class(self._config.clock)
        if not family.needs_key_assignment:
            return None
        k = family.fixed_k if family.fixed_k is not None else self._config.k
        name = self._config.key_assigner
        if name == "random":
            return RandomKeyAssigner(self._config.r, k, rng=self._rng_keys)
        if name == "random-colliding":
            return RandomKeyAssigner(
                self._config.r, k, rng=self._rng_keys, avoid_collisions=False
            )
        if name == "perfect":
            return PerfectKeyAssigner(self._config.r, k)
        if name == "balanced-load":
            return BalancedLoadKeyAssigner(self._config.r, k)
        if name == "sequential":
            return SequentialKeyAssigner(self._config.r, k)
        if name == "hash":
            return HashKeyAssigner(self._config.r, k)
        raise ConfigurationError(f"unknown key assigner {name!r}")

    def _make_detector(self) -> DeliveryErrorDetector:
        window = self._config.detector_window_ms
        if window is None:
            window = 4.0 * self._delay_model.mean_delay()
        return detector_class(self._config.detector).build(
            window=window, max_entries=self._config.detector_max_entries
        )

    def _make_clock(self, slot: int) -> Tuple[EntryVectorClock, Optional[object]]:
        family = scheme_class(self._config.clock)
        assignment = None
        keys: Tuple[int, ...] = ()
        if family.needs_key_assignment:
            assignment = self._assigner.assign(slot)
            keys = tuple(assignment.keys)
        clock = family.build(
            slot,
            self._effective_r if family.needs_dense_index else self._config.r,
            family.fixed_k if family.fixed_k is not None else self._config.k,
            keys,
            self._config.n_nodes,
            slot,
        )
        return clock, assignment

    def _add_node(self, node_id: int) -> None:
        slot = self._oracle.register_node(node_id)
        clock, assignment = self._make_clock(slot)
        endpoint = CausalBroadcastEndpoint(
            process_id=node_id,
            clock=clock,
            detector=self._make_detector(),
            max_pending=self._config.max_pending,
        )
        self._nodes.append(
            SimNode(node_id=node_id, slot=slot, endpoint=endpoint, assignment=assignment)
        )
        factory = self._config.application_factory
        if factory is not None:
            self._applications[node_id] = factory(node_id)

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _schedule_next_send(self, node_id: int) -> None:
        next_time = self._sim.now + self._workload.next_interval(self._rng_workload, node_id)
        if next_time > self._config.duration_ms:
            return
        self._sim.schedule_at(next_time, self._handle_send, node_id)

    def _handle_send(self, node_id: int) -> None:
        budget = self._config.max_messages
        if budget is not None and self._sent >= budget:
            return
        node = self._nodes[node_id]
        now = self._sim.now
        application = self._applications.get(node_id)
        payload = application.make_payload(node_id, now) if application is not None else None
        message = node.endpoint.broadcast(payload=payload, now=now)
        self._sent += 1
        # Direct broadcast (§5.4): one base delay per message, one
        # arrival skew per receiver.
        rng, delays = self._rng_network, self._delay_model
        base = delays.sample_base(rng)
        for receiver in self._nodes:
            if receiver is not node:
                self._sim.schedule(
                    delays.sample_arrival(rng, base), self._handle_receive, (receiver, message)
                )
        self._oracle.on_send(node_id, message.message_id, now, len(self._nodes) - 1)
        self._schedule_next_send(node_id)

    def _handle_receive(self, event: Tuple[SimNode, Message]) -> None:
        node, message = event
        node_id, endpoint, now = node.node_id, node.endpoint, self._sim.now
        if self._config.track_reception_order:
            self._oracle.observe_reception(node_id, message.message_id)
        records = endpoint.on_receive(message, now)
        application = self._applications.get(node_id)
        for record in records:
            classified = self._oracle.classify_delivery(
                node_id, record.message.message_id, now
            )
            self._metrics.observe_alert(record.alert, classified.verdict)
            if self._config.track_latency:
                self._metrics.observe_latency(classified.latency_ms)
            if application is not None:
                application.on_deliver(node_id, record, classified.verdict, now)
        self._metrics.observe_pending(endpoint.pending_count)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def execute(self) -> SimulationResult:
        """Build the system, run to drain, and measure."""
        started = _time.perf_counter()
        for node_id in range(self._config.n_nodes):
            self._add_node(node_id)
        for node_id in range(self._config.n_nodes):
            self._schedule_next_send(node_id)
        self._sim.run()
        wall = _time.perf_counter() - started
        result = self._build_result(wall)
        if self._config.metrics_path is not None:
            self._export_metrics()
        return result

    def _export_metrics(self) -> None:
        """Append one end-of-run registry snapshot (JSONL, exporter format)."""
        from repro.obs import JsonlExporter

        with JsonlExporter(self._config.metrics_path) as exporter:
            exporter.export(self._metrics.registry.snapshot(), ts=self._sim.now)

    def _build_result(self, wall_seconds: float) -> SimulationResult:
        delivered_remote = self._oracle.totals.deliveries
        sim_time = self._sim.now
        # Rate over the sending horizon: deliveries trail into the drain
        # tail, but steady-state traffic is defined by the horizon.
        window_ms = min(sim_time, self._config.duration_ms)
        receive_rate = (
            delivered_remote / (window_ms / 1000.0) / self._config.n_nodes
            if window_ms > 0
            else 0.0
        )
        concurrency = receive_rate * self._delay_model.mean_delay() / 1000.0
        return SimulationResult(
            config=self._config,
            counters=self._oracle.totals,
            alerts=self._metrics.alerts,
            latency=self._metrics.latency.as_dict(),
            pending=self._metrics.pending.as_dict(),
            sent=self._sent,
            delivered_remote=delivered_remote,
            undelivered_messages=self._oracle.outstanding_messages,
            stuck_pending=sum(node.endpoint.pending_count for node in self._nodes),
            sim_time_ms=sim_time,
            events=self._sim.processed_events,
            wall_seconds=wall_seconds,
            measured_concurrency=concurrency,
            measured_p_nc=(
                self._oracle.p_nc_measured
                if self._config.track_reception_order
                else None
            ),
        )


def run_simulation(config: SimulationConfig) -> SimulationResult:
    """Run one simulated experiment and return its measurements.

    Deterministic: the same config (seed included) replays the same run.
    """
    return _Run(config).execute()


def resolve_workers(workers: Optional[int] = None, jobs: Optional[int] = None) -> int:
    """How many processes a simulation fan-out should use.

    ``workers=None`` consults the ``REPRO_SIM_WORKERS`` environment
    variable, falling back to the machine's core count — the paper-figure
    parameter grids are embarrassingly parallel, so they should use all
    cores unless told otherwise.  The result is clamped to ``jobs`` when
    given (no point forking more processes than runs).
    """
    if workers is None:
        raw = os.environ.get("REPRO_SIM_WORKERS", "")
        if raw:
            try:
                workers = int(raw)
            except ValueError as exc:
                raise ConfigurationError(
                    f"REPRO_SIM_WORKERS must be an integer, got {raw!r}"
                ) from exc
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if jobs is not None:
        workers = min(workers, max(1, jobs))
    return workers


def run_simulations(
    configs: Iterable[SimulationConfig], workers: Optional[int] = None
) -> List[SimulationResult]:
    """Run many independent configs, fanning out across processes.

    Results come back in input order and are bit-identical to a
    sequential loop (every run is seeded; processes share nothing).
    With one core, one config, or ``workers=1`` this degrades to the
    plain loop — no pool is spawned.
    """
    configs = list(configs)
    count = resolve_workers(workers, jobs=len(configs))
    if count <= 1 or len(configs) <= 1:
        return [run_simulation(config) for config in configs]
    with ProcessPoolExecutor(max_workers=count) as pool:
        return list(pool.map(run_simulation, configs))
