"""In-memory spans for the traced run, and self-time attribution.

A :class:`Tracer` records one span per call the benchmark makes into a
layer: name, start, end, parent span and a run id shared by every span
of one workload run.  Calls made once per value (tokenizing, pulling a
value off a reader) would cost more to record one by one than the work
they time, so they are recorded as *rollups*: one entry per (parent
span, name) holding the summed busy time and the call count.  Rollup
calls happen while their parent is the innermost open span, so they
never overlap each other or the parent's interval children.

Nothing is written while the run is timed; :meth:`Tracer.dump` writes
the spans out at the end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, TextIO, Tuple

_clock = time.perf_counter


@dataclass
class Span:
    """One timed call, in seconds on the :func:`time.perf_counter` clock."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str


@dataclass
class Rollup:
    """Summed time of many sequential calls made under one parent span."""

    name: str
    parent: Optional[int]
    seconds: float = 0.0
    calls: int = 0


class Tracer:
    """Collects spans and rollups for one workload run."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.rollups: Dict[Tuple[Optional[int], str], Rollup] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as a child of the innermost open span."""
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, name, _clock(), 0.0, parent, self.run_id)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = _clock()

    def _rollup(self, name: str) -> Rollup:
        parent = self._stack[-1] if self._stack else None
        key = (parent, name)
        rollup = self.rollups.get(key)
        if rollup is None:
            rollup = self.rollups[key] = Rollup(name, parent)
        return rollup

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        """``function`` with every call added to a rollup named ``name``."""

        def timed(*args: Any, **kwargs: Any) -> Any:
            began = _clock()
            try:
                return function(*args, **kwargs)
            finally:
                rollup = self._rollup(name)
                rollup.seconds += _clock() - began
                rollup.calls += 1

        return timed

    def iterate(self, name: str, values: Iterable[Any]) -> Iterator[Any]:
        """Yield from ``values``, adding the time of each pull to a rollup."""
        iterator = iter(values)
        while True:
            began = _clock()
            try:
                value = next(iterator)
            except StopIteration:
                return
            finally:
                rollup = self._rollup(name)
                rollup.seconds += _clock() - began
                rollup.calls += 1
            yield value

    def dump(self, handle: TextIO) -> None:
        """Write every span and rollup to ``handle`` as JSON Lines."""
        for span in self.spans:
            handle.write(json.dumps({"kind": "span", **span.__dict__}) + "\n")
        for rollup in self.rollups.values():
            record = {"kind": "rollup", "run_id": self.run_id, **rollup.__dict__}
            handle.write(json.dumps(record) + "\n")


def covered(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low, high = max(low, reach), min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: List[Span], rollups: Iterable[Rollup]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover.

    Interval children may overlap (work that ran concurrently), so their
    coverage is the union of their intervals; rollups are sequential
    calls made while the parent was innermost, so they add.  Rollups
    with no parent are not attributed to any span.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    rolled: Dict[int, float] = {}
    for rollup in rollups:
        if rollup.parent is not None:
            rolled[rollup.parent] = rolled.get(rollup.parent, 0.0) + rollup.seconds
    return {
        span.span_id: span.end
        - span.start
        - covered(children.get(span.span_id, []), span.start, span.end)
        - rolled.get(span.span_id, 0.0)
        for span in spans
    }


def layer_seconds(tracer: Tracer, root: str) -> Tuple[float, Dict[str, float]]:
    """Wall time of every span named ``root`` and self time per layer below.

    Returns ``(wall, layers)``: ``wall`` sums the durations of the
    ``root`` spans, ``layers`` sums self time by span or rollup name over
    their descendants (the roots' own self time is the residual, which
    the caller reports separately).
    """
    by_id = {span.span_id: span for span in tracer.spans}

    def under_root(span_id: Optional[int]) -> bool:
        while span_id is not None:
            span = by_id[span_id]
            if span.name == root:
                return True
            span_id = span.parent
        return False

    own = self_times(tracer.spans, tracer.rollups.values())
    wall = 0.0
    layers: Dict[str, float] = {}
    for span in tracer.spans:
        if span.name == root:
            wall += span.end - span.start
        elif under_root(span.parent):
            layers[span.name] = layers.get(span.name, 0.0) + own[span.span_id]
    for rollup in tracer.rollups.values():
        if under_root(rollup.parent):
            layers[rollup.name] = layers.get(rollup.name, 0.0) + rollup.seconds
    return wall, layers
