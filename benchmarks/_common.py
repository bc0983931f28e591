"""Shared infrastructure for the experiment benchmarks.

Every benchmark reproduces one table or figure of the paper: it runs the
parameter sweep, renders the same series the paper reports (as an aligned
table plus an ASCII chart), asserts the qualitative *shape* the paper
claims, and persists the rendered report under ``benchmarks/results/`` so
``EXPERIMENTS.md`` can reference it.

Scaling: defaults are sized for a laptop run of the whole suite; set
``REPRO_BENCH_SCALE=10`` (or higher) to lengthen every run tenfold and
tighten the confidence intervals toward the paper's >10⁸-message scale.

Population note (see DESIGN.md): the paper's error analysis depends on
the *concurrency* ``X`` (messages received during one network transit),
not on ``N`` directly — its own Figures 3 and 6 demonstrate exactly this.
We therefore run smaller populations at the paper's per-node receive
rates, which preserves every shape while keeping pure-Python runtimes
sane.
"""

from __future__ import annotations

import asyncio
import pathlib
from typing import Dict, List, Sequence, Tuple

from repro.analysis.sweep import SweepPoint, bench_scale
from repro.analysis.tables import ascii_chart, render_table
from repro.util.rng import RandomSource

RESULTS_DIR = pathlib.Path(__file__).resolve().parent / "results"

# The paper's headline network: N(100, 20) ms propagation, N(d, 20) skew.
MEAN_DELAY_MS = 100.0
DELAY_STD_MS = 20.0
SKEW_STD_MS = 20.0


def scaled_duration(base_ms: float) -> float:
    """Apply the REPRO_BENCH_SCALE multiplier to a run duration."""
    return base_ms * bench_scale()


def lambda_for_concurrency(n_nodes: int, x: float, delay_ms: float = MEAN_DELAY_MS) -> float:
    """Per-node mean send interval (ms) yielding concurrency ``x``.

    Each node receives from the other ``n-1`` nodes:
    ``X = (n-1)/λ · delay``  ⇒  ``λ = (n-1)·delay / X``.
    """
    return (n_nodes - 1) * delay_ms / x


def paper_equivalent_lambda(x: float, paper_n: int = 1000, delay_ms: float = MEAN_DELAY_MS) -> float:
    """The λ (ms) that would give concurrency ``x`` at the paper's N."""
    return (paper_n - 1) * delay_ms / x


def duration_for_deliveries(
    target_deliveries: float, n_nodes: int, lambda_ms: float
) -> float:
    """Sending horizon (ms) so the run produces ~``target_deliveries``.

    deliveries ≈ sends · (n-1) = n · duration/λ · (n-1).
    """
    return target_deliveries * lambda_ms / (n_nodes * (n_nodes - 1))


def run_duration(target_deliveries: float, n_nodes: int, lambda_ms: float) -> float:
    """Scaled sending horizon with a statistical-validity floor.

    The REPRO_BENCH_SCALE multiplier shrinks/stretches the horizon, but a
    run shorter than a handful of network transits and send intervals
    measures start-up transients, not steady state — so the horizon never
    drops below ``max(12 · delay, 3 · λ)`` regardless of scale.
    """
    scaled = scaled_duration(duration_for_deliveries(target_deliveries, n_nodes, lambda_ms))
    floor = max(12.0 * MEAN_DELAY_MS, 3.0 * lambda_ms)
    return max(scaled, floor)


async def poisson_sender(group, node, rate: float, until: float, seed: int) -> None:
    """One member of a :class:`repro.sim.group.Group` broadcasting with
    Poisson inter-send times (``rate`` per virtual second) until loop
    time ``until`` or until it leaves the group."""
    loop = asyncio.get_running_loop()
    rng = RandomSource(seed).spawn(f"send-{node.node_id}")
    while True:
        await asyncio.sleep(rng.exponential(1.0 / rate))
        if loop.time() >= until or node not in group.nodes:
            return
        await node.broadcast(None)


def sweep_rows(points: Sequence[SweepPoint]) -> List[List[object]]:
    return [point.row() for point in points]


def report(
    name: str,
    body: str,
) -> None:
    """Print a reproduction report and persist it under results/."""
    banner = f"\n{'=' * 78}\n{name}\n{'=' * 78}\n"
    text = banner + body + "\n"
    print(text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text, encoding="utf-8")


def series_chart(
    title: str,
    series: Dict[str, Sequence[Tuple[float, float]]],
    x_label: str,
    log_y: bool = True,
) -> str:
    return ascii_chart(
        series,
        width=68,
        height=16,
        log_y=log_y,
        title=title,
        x_label=x_label,
        y_label="error rate",
    )


def points_table(title: str, points: Sequence[SweepPoint]) -> str:
    return render_table(SweepPoint.ROW_HEADERS, sweep_rows(points), title=title)
