"""Serialising simulation results for storage and comparison.

Reproduction work accumulates runs: a result measured today gets compared
against last week's, or against a colleague's machine.  This module
flattens a :class:`~repro.sim.runner.SimulationResult` into a stable,
versioned, JSON-safe dictionary (:func:`result_to_dict`), writes/reads
collections of them (:class:`ResultStore`), and compares two runs of the
same configuration (:func:`compare_results`).

Only measurements and the reproducible configuration are stored.  Live
components (workload, delay model) are recorded as
their class name plus their parameters, so two runs that differ only in,
say, the workload's λ compare as a configuration mismatch.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, List, Optional

from repro.core.errors import ConfigurationError
from repro.sim.runner import SimulationResult

__all__ = ["SCHEMA_VERSION", "result_to_dict", "ResultStore", "compare_results"]

# v2: components carry their parameters; caps recorded.  v3: the
# simulator is direct broadcast over static membership — no
# dissemination, churn, membership or duplicate fields.
SCHEMA_VERSION = 3


def _describe(value: Any) -> Any:
    """A JSON-safe picture of a config value: a component becomes its
    class name plus its constructor state (``_mean`` is stored as
    ``mean``), recursively."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    fields = {name.lstrip("_"): _describe(item) for name, item in vars(value).items()}
    return {"type": type(value).__name__, **fields}


def result_to_dict(result: SimulationResult, label: Optional[str] = None) -> Dict[str, Any]:
    """Flatten one result into a JSON-safe dict (schema-versioned)."""
    config = result.config
    return {
        "schema": SCHEMA_VERSION,
        "label": label,
        "config": {
            "n_nodes": config.n_nodes,
            "r": config.r,
            "k": config.k,
            "clock": config.clock,
            "key_assigner": config.key_assigner,
            "detector": config.detector,
            "detector_window_ms": config.detector_window_ms,
            "detector_max_entries": config.detector_max_entries,
            "duration_ms": config.duration_ms,
            "max_messages": config.max_messages,
            "max_pending": config.max_pending,
            "seed": config.seed,
            "workload": _describe(config.workload),
            "delay_model": _describe(config.delay_model),
        },
        "counters": {
            "deliveries": result.counters.deliveries,
            "correct": result.counters.correct,
            "violations": result.counters.violations,
            "ambiguous": result.counters.ambiguous,
            "eps_min": result.eps_min,
            "eps_max": result.eps_max,
        },
        "alerts": {
            "alerts": result.alerts.alerts,
            "alert_rate": result.alerts.alert_rate,
            "precision": result.alerts.precision,
            "recall_late": result.alerts.recall_late,
        },
        "traffic": {
            "sent": result.sent,
            "delivered_remote": result.delivered_remote,
            "undelivered": result.undelivered_messages,
            "stuck_pending": result.stuck_pending,
        },
        "latency": result.latency,
        "derived": {
            "measured_concurrency": result.measured_concurrency,
            "measured_p_nc": result.measured_p_nc,
        },
        "runtime": {
            "sim_time_ms": result.sim_time_ms,
            "events": result.events,
            "wall_seconds": result.wall_seconds,
        },
    }


class ResultStore:
    """An append-only JSON-lines archive of run summaries."""

    def __init__(self, path: str) -> None:
        self._path = pathlib.Path(path)

    @property
    def path(self) -> pathlib.Path:
        """Filesystem location of the archive."""
        return self._path

    def append(self, result: SimulationResult, label: Optional[str] = None) -> None:
        """Add one run to the archive."""
        record = result_to_dict(result, label=label)
        with self._path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")

    def load(self, label: Optional[str] = None) -> List[Dict[str, Any]]:
        """All stored records (optionally only those with ``label``)."""
        if not self._path.exists():
            return []
        records = []
        with self._path.open("r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ConfigurationError(
                        f"{self._path}:{line_number}: corrupt record: {exc}"
                    ) from exc
                if record.get("schema") != SCHEMA_VERSION:
                    raise ConfigurationError(
                        f"{self._path}:{line_number}: schema "
                        f"{record.get('schema')} != {SCHEMA_VERSION}"
                    )
                if label is None or record.get("label") == label:
                    records.append(record)
        return records

    def __len__(self) -> int:
        return len(self.load())


def compare_results(
    baseline: Dict[str, Any],
    candidate: Dict[str, Any],
    tolerance: float = 0.5,
) -> List[str]:
    """Compare two stored runs of the same configuration.

    Returns a list of human-readable discrepancies: configuration
    mismatches are always reported; measurement drift is reported when a
    rate differs by more than ``tolerance`` (relative) and the counts are
    large enough to matter.  An empty list means "same setup, compatible
    results".
    """
    issues: List[str] = []
    for key, base_value in baseline["config"].items():
        cand_value = candidate["config"].get(key)
        if base_value != cand_value:
            issues.append(f"config.{key}: {base_value!r} != {cand_value!r}")
    if issues:
        return issues  # measurement comparison is meaningless across configs

    for metric in ("eps_min", "eps_max"):
        base_rate = baseline["counters"][metric]
        cand_rate = candidate["counters"][metric]
        reference = max(base_rate, cand_rate)
        if reference > 0 and min(baseline["counters"]["deliveries"],
                                 candidate["counters"]["deliveries"]) >= 1000:
            drift = abs(base_rate - cand_rate) / reference
            if drift > tolerance:
                issues.append(
                    f"counters.{metric}: {base_rate:.3e} vs {cand_rate:.3e} "
                    f"(drift {drift:.0%} > {tolerance:.0%})"
                )
    if baseline["traffic"]["stuck_pending"] == 0 != candidate["traffic"]["stuck_pending"]:
        issues.append(
            f"traffic.stuck_pending: 0 vs {candidate['traffic']['stuck_pending']}"
        )
    return issues
