"""In-memory span recorder for the traced benchmark run.

The benchmark measures layers *from outside*: before any node is built,
the public functions of each layer are replaced, at class level, by
wrappers that record one span per call — name, start, end and the span
that was open when it started.  The event loop is single-threaded and a
synchronous function cannot be suspended, so "the span that caused it"
is simply the top of one stack.

A layer's **self time** is its span's duration minus the part of that
interval its child spans cover; summed over a run and divided by the
number of deliveries it is the layer's line in the CPU budget.

``async`` functions cannot be timed that way (their wall time contains
whatever else the loop ran while they were suspended), so they get a
call count and the *awaited wall time* instead — a waiting metric, not
a cost metric.

Spans are kept in four parallel ``array`` columns (24 B per span, so a
million-span run fits in memory) and written out as JSON lines when the
run is over.  :mod:`cProfile` is deliberately not used: it inflates
tight Python loops several-fold and shifts the proportions between
layers.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Tracer", "SpanTotals"]

SYNC = "sync"
GENERATOR = "generator"
ASYNC = "async"

# name -> (calls, self seconds, total seconds)
SpanTotals = Dict[str, Tuple[int, float, float]]


class Tracer:
    """Records spans and owns the class-level patches that produce them.

    Args:
        clock: the span clock; ``time.perf_counter`` in real runs, a fake
            in the self-tests.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = []
        # name -> [calls, awaited seconds] for async functions.
        self.awaited: Dict[str, List[float]] = {}
        self._patches: List[Tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.starts)

    def reset(self) -> None:
        """Forget every span recorded so far (start of the timed region).

        Only valid while no span is open — i.e. from a coroutine, never
        from inside a wrapped synchronous function.
        """
        if self._stack:
            raise RuntimeError("cannot reset the tracer while a span is open")
        for column in (self.name_ids, self.parents, self.starts, self.ends):
            del column[:]
        for tally in self.awaited.values():
            tally[0] = 0
            tally[1] = 0.0

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    def wrap_sync(self, fn: Callable, name: str) -> Callable:
        """``fn`` with one span per call; result and exceptions untouched."""
        name_id = self._name_id(name)
        clock = self.clock
        stack = self._stack
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    def wrap_generator(self, fn: Callable, name: str) -> Callable:
        """A generator function with one span per ``next()``.

        The consumer's work between two items is not the generator's, so
        the body is timed resumption by resumption.
        """
        step = self.wrap_sync(next, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            done = object()
            while True:
                item = step(iterator, done)
                if item is done:
                    return
                yield item

        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """A coroutine function with a call count and awaited wall time."""
        tally = self.awaited.setdefault(name, [0, 0.0])
        clock = self.clock

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            begun = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                tally[0] += 1
                tally[1] += clock() - begun

        return traced

    # ------------------------------------------------------------------
    # class-level patching
    # ------------------------------------------------------------------

    def patch(self, owner: type, attribute: str, kind: str, name: str) -> None:
        """Replace ``owner.attribute`` by its traced wrapper.

        ``owner`` must define the attribute itself (not inherit it), so
        that :meth:`unpatch_all` can put back exactly what was there;
        static methods stay static.
        """
        original = owner.__dict__[attribute]
        fn = original.__func__ if isinstance(original, staticmethod) else original
        wrap = {SYNC: self.wrap_sync, GENERATOR: self.wrap_generator,
                ASYNC: self.wrap_async}[kind]
        traced = wrap(fn, name)
        if isinstance(original, staticmethod):
            traced = staticmethod(traced)
        self.replace(owner, attribute, traced)

    def replace(self, owner: type, attribute: str, replacement: Any) -> None:
        """Install an arbitrary replacement, remembered for unpatching."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def unpatch_all(self) -> None:
        """Put every patched attribute back (in reverse order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def wrap_arguments(
        self, owner: type, method: str, arguments: Dict[str, str]
    ) -> None:
        """Interpose on callbacks handed to ``owner.method``.

        ``arguments`` maps a parameter name of the method to the span
        name its (non-``None``) callable argument is wrapped under; the
        method itself runs unchanged.
        """
        original = owner.__dict__[method]
        signature = inspect.signature(original)

        @functools.wraps(original)
        def interposed(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            for parameter, name in arguments.items():
                callback = bound.arguments.get(parameter)
                if callback is not None:
                    bound.arguments[parameter] = self.wrap_sync(callback, name)
            return original(*bound.args, **bound.kwargs)

        self.replace(owner, method, interposed)

    # ------------------------------------------------------------------
    # attribution
    # ------------------------------------------------------------------

    def totals(self, first: int = 0, last: Optional[int] = None) -> SpanTotals:
        """Per-name ``(calls, self seconds, total seconds)`` over spans
        ``[first, last)``.

        The range must start and end while no span is open, so every
        span in it has its parent in it too.
        """
        last = len(self) if last is None else last
        if last <= first:
            return {}
        name_ids = np.frombuffer(self.name_ids, dtype=np.intc)[first:last]
        parents = np.frombuffer(self.parents, dtype=np.intc)[first:last]
        durations = (
            np.frombuffer(self.ends, dtype=np.float64)[first:last]
            - np.frombuffer(self.starts, dtype=np.float64)[first:last]
        )
        has_parent = parents >= 0
        covered = np.bincount(
            parents[has_parent] - first,
            weights=durations[has_parent],
            minlength=last - first,
        )
        size = len(self.names)
        calls = np.bincount(name_ids, minlength=size)
        self_time = np.bincount(name_ids, weights=durations - covered, minlength=size)
        total_time = np.bincount(name_ids, weights=durations, minlength=size)
        return {
            name: (int(calls[i]), float(self_time[i]), float(total_time[i]))
            for i, name in enumerate(self.names)
            if calls[i]
        }

    def write_jsonl(self, path: str, first: int = 0, last: Optional[int] = None) -> int:
        """Write spans ``[first, last)`` as JSON lines; returns the count.

        Line 1 is a header ``{"names": [...], "unit": "us"}``.  Every
        further line is one span, in start order: ``name`` (an index
        into the header's table), ``start`` / ``end`` (microseconds
        since the first span) and ``parent`` (the 0-based position of
        another span line, or ``null`` for a span the event loop
        started).
        """
        last = len(self) if last is None else last
        origin = self.starts[first] if last > first else 0.0
        name_ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends,
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names, "unit": "us"}) + "\n")
            lines: List[str] = []
            for index in range(first, last):
                parent = parents[index]
                lines.append(
                    '{"name":%d,"start":%.1f,"end":%.1f,"parent":%s}\n'
                    % (
                        name_ids[index],
                        (starts[index] - origin) * 1e6,
                        (ends[index] - origin) * 1e6,
                        parent - first if parent >= 0 else "null",
                    )
                )
                if len(lines) >= 50_000:
                    handle.writelines(lines)
                    lines.clear()
            handle.writelines(lines)
        return max(0, last - first)
