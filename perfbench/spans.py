"""In-memory spans, per-layer self time, and wrappers that record them.

A :class:`Tracer` keeps every span in memory (name, start, end, parent
span, run id, thread) and writes them as JSONL when the benchmark
ends.  Spans nest per thread: a span opened while another is open on
the same thread is its child.

The benchmark times the program from outside.  :func:`instrument`
replaces a function where its caller looks it up (a module global, a
class attribute) with a wrapper that opens a span around each call,
and restores the original on exit.  Nothing in the program changes.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters for one traced repetition (``run``)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, Dict[str, float]] = {}
        self.objects: Dict[Tuple[str, str], Dict[int, object]] = {}
        #: Run id stamped on new spans and counts; one per traced
        #: repetition.
        self.run = ""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[int]:
        """Time a block.  ``parent`` adopts the span under a span of
        another thread (a worker thread's root under the drain)."""
        stack = self._stack()
        if stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(span_id, name, start, end, parent, self.run,
                        threading.get_ident())
            with self._lock:
                self.spans.append(span)

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            counters = self.counters.setdefault(self.run, {})
            counters[name] = counters.get(name, 0) + n

    def keep(self, kind: str, obj: object) -> None:
        """Remember ``obj`` (once per identity) for end-of-run readings."""
        with self._lock:
            self.objects.setdefault((self.run, kind), {})[id(obj)] = obj

    def kept(self, run: str, kind: str) -> List[object]:
        return list(self.objects.get((run, kind), {}).values())

    def run_spans(self, run: str) -> List[Span]:
        return [s for s in self.spans if s.run == run]

    def run_counters(self, run: str) -> Dict[str, float]:
        return dict(self.counters.get(run, {}))

    def write_jsonl(self, path, header: Dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - _covered(
            children.get(span.id, ()), span.start, span.end
        )
        for span in spans
    }


@dataclass
class LayerTotals:
    calls: int = 0
    busy_s: float = 0.0  # inclusive time, outermost span of a name only
    self_s: float = 0.0


def layer_totals(spans: Sequence[Span]) -> Dict[str, LayerTotals]:
    """Per span name: call count, busy time and self time.

    ``busy_s`` sums only spans with no ancestor of the same name, so a
    recursive or re-entrant layer is not counted twice.
    """
    by_id = {span.id: span for span in spans}
    selfs = self_times(spans)
    totals: Dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.self_s += selfs[span.id]
        ancestor = by_id.get(span.parent) if span.parent is not None else None
        nested = False
        while ancestor is not None:
            if ancestor.name == span.name:
                nested = True
                break
            ancestor = by_id.get(ancestor.parent) if ancestor.parent is not None else None
        if not nested:
            entry.busy_s += span.duration
    return totals


@dataclass(frozen=True)
class Probe:
    """Where to wrap: ``getattr(owner, attr)`` becomes a span ``name``.

    ``after(tracer, result)`` may record counters from the call's
    result.
    """

    owner: object
    attr: str
    name: str
    after: Optional[Callable[[Tracer, object], None]] = None


def _wrap(tracer: Tracer, fn: Callable, probe: Probe) -> Callable:
    name, after = probe.name, probe.after

    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(tracer, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrument(tracer: Tracer, probes: Sequence[Probe]) -> Iterator[None]:
    """Install span wrappers for ``probes``; restore the originals on exit."""
    saved = []
    try:
        for probe in probes:
            raw = probe.owner.__dict__[probe.attr] if isinstance(
                probe.owner, type
            ) else getattr(probe.owner, probe.attr)
            saved.append((probe.owner, probe.attr, raw))
            if isinstance(raw, classmethod):
                replacement = classmethod(_wrap(tracer, raw.__func__, probe))
            else:
                replacement = _wrap(tracer, raw, probe)
            setattr(probe.owner, probe.attr, replacement)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
