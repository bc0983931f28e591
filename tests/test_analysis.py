"""Tests for the analysis toolkit: stats, tables, charts, sweeps."""

import dataclasses
import math

import pytest

from repro.analysis.stats import (
    Estimate,
    mean_estimate,
    pooled_proportion,
    proportion_estimate,
    wilson_interval,
)
from repro.analysis.sweep import bench_scale, run_repeated, sweep_parameter
from repro.analysis.tables import ascii_chart, format_cell, render_table
from repro.core.errors import ConfigurationError
from repro.sim import PoissonWorkload, SimulationConfig


class TestMeanEstimate:
    def test_single_value_degenerate(self):
        estimate = mean_estimate([5.0])
        assert estimate.value == estimate.low == estimate.high == 5.0
        assert estimate.n == 1

    def test_interval_contains_mean(self):
        estimate = mean_estimate([1.0, 2.0, 3.0, 4.0])
        assert estimate.low < estimate.value < estimate.high
        assert estimate.value == pytest.approx(2.5)

    def test_tighter_with_more_data(self):
        narrow = mean_estimate([10.0, 10.1] * 50)
        wide = mean_estimate([10.0, 10.1])
        assert narrow.half_width < wide.half_width

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            mean_estimate([])

    def test_str_format(self):
        assert "[" in str(mean_estimate([1.0, 2.0]))


class TestWilson:
    def test_bounds_within_unit_interval(self):
        low, high = wilson_interval(1, 10)
        assert 0.0 <= low <= 0.1 <= high <= 1.0

    def test_zero_successes_still_informative(self):
        low, high = wilson_interval(0, 1000)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert 0 < high < 0.01

    def test_no_trials(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 3)
        with pytest.raises(ConfigurationError):
            wilson_interval(-1, 3)

    def test_proportion_estimate(self):
        estimate = proportion_estimate(20, 100)
        assert estimate.value == pytest.approx(0.2)
        assert estimate.low < 0.2 < estimate.high

    def test_pooled_proportion(self):
        pooled = pooled_proportion([(1, 100), (3, 100), (2, 100)])
        assert pooled.value == pytest.approx(6 / 300)
        assert pooled.n == 300


class TestTables:
    def test_format_cell(self):
        assert format_cell(None) == "-"
        assert format_cell(3) == "3"
        assert format_cell(0.0) == "0"
        assert format_cell(1.23456e-5) == "1.235e-05"
        assert format_cell(123.456) == "123.5"
        assert format_cell("word") == "word"

    def test_render_table_alignment(self):
        text = render_table(["name", "x"], [["a", 1], ["bb", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert set(lines[2]) <= {"-", " "}
        assert len(lines) == 5

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            render_table(["a"], [[1, 2]])


class TestAsciiChart:
    def test_contains_markers_and_legend(self):
        chart = ascii_chart(
            {"a": [(0, 1.0), (1, 2.0)], "b": [(0, 2.0), (1, 1.0)]},
            width=40,
            height=8,
            title="demo",
        )
        assert "demo" in chart
        assert "*" in chart and "o" in chart
        assert "a" in chart and "b" in chart

    def test_log_scale_handles_zero(self):
        chart = ascii_chart({"s": [(0, 0.0), (1, 1e-3), (2, 1e-1)]}, log_y=True)
        assert "s" in chart

    def test_empty_series(self):
        assert "(no data)" in ascii_chart({"s": []})

    def test_size_validation(self):
        with pytest.raises(ConfigurationError):
            ascii_chart({"s": [(0, 1)]}, width=4, height=2)


class TestSweep:
    def test_run_repeated_uses_distinct_seeds(self):
        config = SimulationConfig(
            n_nodes=8, r=16, k=2, duration_ms=4000.0, workload=PoissonWorkload(800.0)
        )
        results = run_repeated(config, repeats=3, seed_base=50)
        seeds = [r.config.seed for r in results]
        assert seeds == [50, 51, 52]

    def test_run_repeated_validation(self):
        config = SimulationConfig(n_nodes=4)
        with pytest.raises(ConfigurationError):
            run_repeated(config, repeats=0)

    def test_sweep_parameter_aggregates(self):
        base = SimulationConfig(
            n_nodes=8, r=16, k=2, duration_ms=4000.0, workload=PoissonWorkload(800.0)
        )
        progress = []
        points = sweep_parameter(
            base,
            values=[2, 3],
            make_config=lambda cfg, k: dataclasses.replace(cfg, k=k),
            repeats=2,
            on_point=progress.append,
        )
        assert [p.value for p in points] == [2, 3]
        assert len(progress) == 2
        for point in points:
            assert point.deliveries > 0
            assert 0.0 <= point.eps_min.value <= point.eps_max.value <= 1.0
            assert len(point.results) == 2
            assert len(point.row()) == len(point.ROW_HEADERS)

    def test_sweep_seeds_do_not_overlap_between_points(self):
        base = SimulationConfig(
            n_nodes=6, r=16, k=2, duration_ms=3000.0, workload=PoissonWorkload(800.0)
        )
        points = sweep_parameter(
            base,
            values=[2, 3],
            make_config=lambda cfg, k: dataclasses.replace(cfg, k=k),
            repeats=2,
            seed_base=100,
        )
        seeds = [r.config.seed for p in points for r in p.results]
        assert len(set(seeds)) == len(seeds)


class TestBenchScale:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert bench_scale() == 1.0
        assert bench_scale(default=2.5) == 2.5

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "4")
        assert bench_scale() == 4.0

    def test_floor(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "0.0001")
        assert bench_scale() == 0.05

    def test_invalid(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "fast")
        with pytest.raises(ConfigurationError):
            bench_scale()
