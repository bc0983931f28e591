"""Self-tests of the benchmark harness (not part of tier-1).

Run with ``python -m pytest benchmarks/e2e -q`` from the repository
root.  They check the measuring instrument, not the program: span
arithmetic, the wrappers' transparency and removal, the percentile
helper, failure accounting and the open-loop scheduler.
"""

from __future__ import annotations

import asyncio
import pathlib
import random
import sys
from types import SimpleNamespace

import pytest

HERE = pathlib.Path(__file__).resolve().parent
for entry in (str(HERE), str(HERE.parent.parent / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import compare  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
from spans import ASYNC, GENERATOR, SYNC, Tracer  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------


def test_self_time_is_duration_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        traced_leaf()
        clock.advance(1.0)
        traced_leaf()

    def root():
        clock.advance(0.5)
        traced_middle()
        clock.advance(0.5)

    traced_leaf = tracer.wrap_sync(leaf, "core.codec/leaf")
    traced_middle = tracer.wrap_sync(middle, "core.codec/middle")
    traced_root = tracer.wrap_sync(root, "net.node/root")
    traced_root()
    traced_leaf()  # a second root-level span: no parent

    totals = tracer.totals()
    assert totals["core.codec/leaf"] == (3, pytest.approx(6.0), pytest.approx(6.0))
    assert totals["core.codec/middle"] == (1, pytest.approx(2.0), pytest.approx(6.0))
    assert totals["net.node/root"] == (1, pytest.approx(1.0), pytest.approx(7.0))
    # Self times partition the covered wall time exactly.
    assert sum(self_s for _, self_s, _ in totals.values()) == pytest.approx(9.0)
    assert list(tracer.parents) == [-1, 0, 1, 1, -1]
    assert layers.budget(totals, operations=2) == pytest.approx(
        {**{layer: 0.0 for layer in layers.BUDGET_LAYERS}, "core.codec": 4e6, "net.node": 0.5e6}
    )


def test_totals_over_a_range_and_reset():
    clock = FakeClock()
    tracer = Tracer(clock)
    tick = tracer.wrap_sync(lambda: clock.advance(1.0), "layer/tick")
    tick()
    tracer.reset()
    assert len(tracer) == 0
    tick()
    tick()
    mark = len(tracer)
    tick()
    assert tracer.totals(0, mark)["layer/tick"][0] == 2
    assert tracer.totals()["layer/tick"][0] == 3


def test_generator_wrapper_times_each_resumption():
    clock = FakeClock()
    tracer = Tracer(clock)

    def numbers(limit):
        for value in range(limit):
            clock.advance(1.0)  # the generator's own work
            yield value
        clock.advance(0.25)     # the scan that finds nothing more

    traced = tracer.wrap_generator(numbers, "layer/numbers")
    seen = []
    for value in traced(3):
        clock.advance(10.0)     # the consumer's work is not the generator's
        seen.append(value)
    assert seen == [0, 1, 2]
    calls, self_s, total_s = tracer.totals()["layer/numbers"]
    assert calls == 4           # three items and the final StopIteration
    assert self_s == total_s == pytest.approx(3.25)


def test_async_wrapper_counts_calls_and_awaited_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    async def fetch(value, fail=False):
        clock.advance(0.5)
        await asyncio.sleep(0)
        clock.advance(0.5)
        if fail:
            raise KeyError(value)
        return value * 2

    traced = tracer.wrap_async(fetch, "layer/fetch")

    async def scenario():
        assert await traced(21) == 42
        with pytest.raises(KeyError):
            await traced(1, fail=True)

    asyncio.run(scenario())
    assert tracer.awaited["layer/fetch"] == [2, pytest.approx(2.0)]
    assert len(tracer) == 0     # awaited time is not a span


class _Subject:
    def double(self, value):
        return value * 2

    def explode(self):
        raise ValueError("boom")

    @staticmethod
    def constant():
        return 7

    def scan(self, limit):
        yield from range(limit)

    async def later(self, value):
        return value

    def register(self, callback=None, other=None):
        self.callback = callback
        self.other = other


def test_patches_are_transparent_and_fully_removed():
    tracer = Tracer()
    before = dict(_Subject.__dict__)
    tracer.patch(_Subject, "double", SYNC, "t/double")
    tracer.patch(_Subject, "explode", SYNC, "t/explode")
    tracer.patch(_Subject, "constant", SYNC, "t/constant")
    tracer.patch(_Subject, "scan", GENERATOR, "t/scan")
    tracer.patch(_Subject, "later", ASYNC, "t/later")
    tracer.wrap_arguments(_Subject, "register", {"callback": "t/callback"})

    subject = _Subject()
    assert subject.double(4) == 8
    with pytest.raises(ValueError, match="boom"):
        subject.explode()
    assert _Subject.constant() == 7 and subject.constant() == 7
    assert isinstance(_Subject.__dict__["constant"], staticmethod)
    assert list(subject.scan(3)) == [0, 1, 2]
    assert asyncio.run(subject.later("x")) == "x"
    subject.register(callback=lambda value: value + 1)
    assert subject.callback(1) == 2 and subject.other is None
    subject.register(None, "kept")      # None is passed through, not wrapped
    assert subject.callback is None and subject.other == "kept"
    totals = tracer.totals()
    assert {name: row[0] for name, row in totals.items()} == {
        "t/double": 1, "t/explode": 1, "t/constant": 2, "t/scan": 4, "t/callback": 1,
    }
    assert not tracer._stack           # the exception closed its span

    tracer.unpatch_all()
    assert dict(_Subject.__dict__) == before


def test_install_covers_the_layer_map_and_unpatches_repro():
    import importlib

    owners = [
        (getattr(importlib.import_module(f"repro.{module}"), cls), attribute)
        for module, cls, attribute, _kind in layers.TRACED_FUNCTIONS
    ]
    before = [owner.__dict__[attribute] for owner, attribute in owners]
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert all(
            owner.__dict__[attribute] is not original
            for (owner, attribute), original in zip(owners, before)
        )
        # Every traced span is charged to a known budget line.
        assert {name.split("/", 1)[0] for name in tracer.names} <= set(layers.BUDGET_LAYERS)
    finally:
        tracer.unpatch_all()
    assert all(
        owner.__dict__[attribute] is original
        for (owner, attribute), original in zip(owners, before)
    )


def test_spans_round_trip_through_jsonl(tmp_path):
    import json

    clock = FakeClock()
    tracer = Tracer(clock)
    inner = tracer.wrap_sync(lambda: clock.advance(1e-6), "a/inner")
    outer = tracer.wrap_sync(lambda: (clock.advance(1e-6), inner()), "a/outer")
    outer()
    path = tmp_path / "spans.jsonl"
    assert tracer.write_jsonl(str(path)) == 2
    header, first, second = [json.loads(line) for line in path.read_text().splitlines()]
    assert header == {"names": ["a/inner", "a/outer"], "unit": "us"}
    assert first == {"name": 1, "start": 0.0, "end": 2.0, "parent": None}
    assert second == {"name": 0, "start": 1.0, "end": 2.0, "parent": 0}


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------


def test_percentile_matches_a_sorted_reference():
    rng = random.Random(7)
    for size in (1, 2, 9, 10, 11, 100, 1000, 1234):
        values = sorted(rng.random() for _ in range(size))
        for fraction in (0.5, 0.9, 0.99, 0.999, 1.0):
            # Nearest rank: the smallest value with at least that share
            # of the sample at or below it.
            reference = next(
                value for rank, value in enumerate(values, 1) if rank >= fraction * size - 1e-9
            )
            assert worker.percentile(values, fraction) == reference
    assert worker.percentile([], 0.5) == 0.0
    assert worker.percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0


class _FakeOracle:
    def __init__(self):
        self.sent = self.classified = 0

    def on_send(self, *_args, **_kwargs):
        self.sent += 1

    def classify_delivery(self, *_args):
        self.classified += 1


class _FakeNode:
    """Delivers each broadcast straight to the other nodes' handlers,
    except where told to withhold or repeat one."""

    def __init__(self, index, handlers, withhold=(), repeat=()):
        self.index, self.handlers = index, handlers
        self.withhold, self.repeat = set(withhold), set(repeat)
        self.seq = 0

    async def broadcast(self, payload):
        self.seq += 1
        message = SimpleNamespace(
            payload=tuple(payload), message_id=(f"n{self.index}", self.seq)
        )
        self.handlers[self.index](SimpleNamespace(message=message, local=True))
        for receiver, handler in enumerate(self.handlers):
            if receiver == self.index:
                continue
            key = (receiver, payload[1])
            copies = 0 if key in self.withhold else 2 if key in self.repeat else 1
            for _ in range(copies):
                handler(SimpleNamespace(message=message, local=False))
        await asyncio.sleep(0)


def test_failure_accounting_counts_withheld_and_duplicated_operations():
    async def scenario():
        ledger = worker.DeliveryLedger(nodes=3, messages=5)
        oracle = _FakeOracle()
        handlers = [
            worker.delivery_handler(i, f"n{i}", 2, ledger, oracle) for i in range(3)
        ]
        nodes = [
            _FakeNode(0, handlers, withhold={(1, 2)}, repeat={(2, 3)}),
            _FakeNode(1, handlers),
            _FakeNode(2, handlers),
        ]
        ledger.expect(0, 5)
        await asyncio.gather(*(
            worker.closed_loop(node, i, 0, 5, ledger) for i, node in enumerate(nodes)
        ))
        return ledger, oracle

    ledger, oracle = asyncio.run(scenario())
    assert ledger.account() == {"attempted": 30, "missing": 1, "duplicated": 1}
    assert not ledger.done.is_set()        # one operation never happened
    assert len(ledger.latencies) == 29
    assert oracle.sent == 15
    assert oracle.classified == 29         # the repeat never reaches the oracle
    # Only the awaited range is accounted: narrow it past both faults.
    ledger.expect(4, 5)
    assert ledger.account() == {"attempted": 6, "missing": 0, "duplicated": 0}


def test_closed_loop_past_its_deadline_hands_the_rest_back():
    clock = FakeClock()

    async def scenario():
        ledger = worker.DeliveryLedger(nodes=2, messages=10)
        handlers = [
            worker.delivery_handler(i, f"n{i}", 1, ledger, _FakeOracle()) for i in range(2)
        ]

        class SlowNode(_FakeNode):
            async def broadcast(self, payload):
                clock.advance(1.0)
                await super().broadcast(payload)

        ledger.expect(2, 10)
        await asyncio.gather(
            worker.closed_loop(SlowNode(0, handlers), 0, 2, 10, ledger,
                               deadline=3.0, clock=clock),
            worker.closed_loop(_FakeNode(1, handlers), 1, 2, 10, ledger, clock=clock),
        )
        return ledger

    ledger = asyncio.run(scenario())
    # Sender 0 issued indices 2, 3, 4 (at t = 0, 1, 2) and stopped at t = 3;
    # sender 1 issued all eight.  Nothing issued is missing, so the run is done.
    assert ledger.account() == {"attempted": 11, "missing": 0, "duplicated": 0}
    assert ledger.done.is_set()
    assert ledger.due[0][2:6] == [0.0, 1.0, 2.0, 0.0]


def test_open_loop_stamps_due_from_the_schedule_not_the_wakeup():
    clock = FakeClock()
    clock.now = 100.0
    oversleep = 0.004

    async def sleep(delay):
        clock.advance(delay + oversleep)

    class SlowNode:
        async def broadcast(self, payload):
            clock.advance(0.013)    # longer than the interval: the next one is late

    async def scenario():
        ledger = worker.DeliveryLedger(nodes=2, messages=8)
        lags = []
        await worker.open_loop(
            SlowNode(), 0, 3, 8, ledger, start=100.5, interval=0.01, lags=lags,
            clock=clock, sleep=sleep,
        )
        return ledger, lags

    ledger, lags = asyncio.run(scenario())
    assert ledger.due[0][3:8] == pytest.approx([100.5, 100.51, 100.52, 100.53, 100.54])
    assert ledger.due[0][:3] == [0.0, 0.0, 0.0]
    # It slept once (and overslept); every later send was already overdue
    # by a growing backlog, and none of that moved the due stamps.
    assert lags == pytest.approx([0.004, 0.007, 0.010, 0.013, 0.016])


def test_compare_applies_bounds_in_the_metric_direction(monkeypatch):
    assert compare.verdict(100.0, 109.0, "lower", 0.10) == compare.OK
    assert compare.verdict(100.0, 111.0, "lower", 0.10) == compare.REGRESSED
    assert compare.verdict(100.0, 91.0, "higher", 0.10) == compare.OK
    assert compare.verdict(100.0, 89.0, "higher", 0.10) == compare.REGRESSED

    def result(latency, undelivered, disturbed=False):
        metrics = {"latency_p50_ms": latency, "undelivered_ratio": undelivered}
        return {"runs": [
            {"workload": "w", "traced": False, "disturbed": disturbed, "end_to_end": metrics},
            {"workload": "w", "traced": True, "disturbed": True,
             "end_to_end": {"latency_p50_ms": 999.0, "undelivered_ratio": 1.0}},
            {"workload": "w", "traced": False, "setup_s": 1.0},
        ]}

    contract = {"end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.10},
    ]}
    monkeypatch.setattr(compare, "UNGATED", ())
    rows = compare.compare(result(10.0, 0.0), result(12.0, 0.0), contract)
    assert [row[-1] for row in rows] == [compare.REGRESSED, compare.OK]
    rows = compare.compare(result(10.0, 0.0), result(12.0, 0.001, disturbed=True), contract)
    assert [row[-1] for row in rows] == [compare.UNRESOLVED, compare.REGRESSED]
