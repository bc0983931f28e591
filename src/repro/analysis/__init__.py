"""Analysis toolkit: statistics, sweeps, and plain-text table/chart output."""

from repro.analysis.stats import (
    Estimate,
    mean_estimate,
    pooled_proportion,
    proportion_estimate,
    wilson_interval,
)
from repro.analysis.persistence import ResultStore, compare_results, result_to_dict
from repro.analysis.sweep import SweepPoint, bench_scale, run_repeated, sweep_parameter
from repro.analysis.tables import ascii_chart, format_cell, render_table

__all__ = [
    "Estimate",
    "mean_estimate",
    "wilson_interval",
    "proportion_estimate",
    "pooled_proportion",
    "ResultStore",
    "result_to_dict",
    "compare_results",
    "SweepPoint",
    "sweep_parameter",
    "run_repeated",
    "bench_scale",
    "format_cell",
    "render_table",
    "ascii_chart",
]
