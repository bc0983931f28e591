"""Tests for result serialisation, storage, and comparison."""

import json

import pytest

from repro.analysis.persistence import (
    SCHEMA_VERSION,
    ResultStore,
    compare_results,
    result_to_dict,
)
from repro.core.errors import ConfigurationError
from repro.sim import (
    GaussianDelayModel,
    PoissonWorkload,
    SimulationConfig,
    run_simulation,
)


def small_result(seed=3, **overrides):
    base = dict(
        n_nodes=10,
        r=20,
        k=2,
        duration_ms=6_000.0,
        seed=seed,
        workload=PoissonWorkload(700.0),
    )
    base.update(overrides)
    return run_simulation(SimulationConfig(**base))


class TestResultToDict:
    def test_roundtrips_through_json(self):
        result = small_result()
        record = result_to_dict(result, label="run-1")
        text = json.dumps(record)
        loaded = json.loads(text)
        assert loaded["schema"] == SCHEMA_VERSION
        assert loaded["label"] == "run-1"
        assert loaded["config"]["n_nodes"] == 10
        assert loaded["counters"]["deliveries"] == result.counters.deliveries
        assert loaded["traffic"]["sent"] == result.sent
        assert loaded["latency"]["mean"] == result.latency["mean"]

    def test_records_component_class_names(self):
        record = result_to_dict(small_result())
        assert record["config"]["workload"] == {"type": "PoissonWorkload", "mean": 700.0}
        assert record["config"]["delay_model"] is None  # default built inside runner

    def test_records_component_parameters(self):
        record = result_to_dict(small_result(
            delay_model=GaussianDelayModel(80.0),
            max_messages=40,
            detector="refined",
            detector_window_ms=300.0,
            detector_max_entries=64,
        ))
        config = json.loads(json.dumps(record))["config"]
        assert config["delay_model"] == {
            "type": "GaussianDelayModel", "mean": 80.0, "std": 20.0, "skew_std": 20.0,
        }
        assert config["max_messages"] == 40
        assert config["detector_window_ms"] == 300.0
        assert config["detector_max_entries"] == 64


class TestResultStore:
    def test_append_and_load(self, tmp_path):
        store = ResultStore(str(tmp_path / "runs.jsonl"))
        result = small_result()
        store.append(result, label="a")
        store.append(result, label="b")
        assert len(store) == 2
        assert len(store.load(label="a")) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert ResultStore(str(tmp_path / "none.jsonl")).load() == []

    def test_corrupt_line_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ConfigurationError):
            ResultStore(str(path)).load()

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(json.dumps({"schema": 999}) + "\n")
        with pytest.raises(ConfigurationError):
            ResultStore(str(path)).load()


class TestCompareResults:
    def test_identical_runs_match(self):
        result = small_result()
        record = result_to_dict(result)
        assert compare_results(record, result_to_dict(result)) == []

    def test_workload_rate_mismatch_is_a_config_mismatch(self):
        # Same component class, ten times the send interval: a different
        # experiment, not eps drift between two runs of one.
        base = result_to_dict(small_result(n_nodes=20, workload=PoissonWorkload(200.0)))
        other = result_to_dict(small_result(n_nodes=20, workload=PoissonWorkload(2_000.0)))
        issues = compare_results(base, other)
        assert issues and all(issue.startswith("config.workload") for issue in issues)

    def test_config_mismatch_reported_first(self):
        base = result_to_dict(small_result())
        other = result_to_dict(small_result(k=3))
        issues = compare_results(base, other)
        assert any("config.k" in issue for issue in issues)

    def test_small_samples_not_flagged_for_drift(self):
        # Deliveries below the floor: rate drift is not meaningful.
        base = result_to_dict(small_result(seed=3))
        other = result_to_dict(small_result(seed=4))
        issues = [i for i in compare_results(base, other) if "eps" in i]
        if base["counters"]["deliveries"] < 1000:
            assert issues == []

    def test_stuck_pending_flagged(self):
        base = result_to_dict(small_result())
        other = result_to_dict(small_result())
        other["traffic"]["stuck_pending"] = 7
        issues = compare_results(base, other)
        assert any("stuck_pending" in issue for issue in issues)
