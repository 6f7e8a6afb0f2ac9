"""Structured protocol-phase tracing: nested spans on an abstract clock.

A :class:`Tracer` records one span per protocol phase (KeyGen, Sign,
ProofGen, ProofVerify, blind-sign round trips, failover rounds, …).  Spans
nest through a stack, carry attributes, and — when the tracer holds an
:class:`~repro.pairing.interface.OperationCounter` — automatically record
the Exp/Pair operations performed while they were open, so every span's
cost is expressed in the same units as the paper's Table I.

The clock is injected: ``lambda: sim.now`` inside the discrete-event
simulator (deterministic, virtual seconds), ``time.perf_counter`` in real
runs.  Nothing here reads the wall clock on its own.

:class:`NullTracer` is the disabled path: a shared no-op context manager,
so instrumented hot loops pay one attribute lookup and one method call per
span when tracing is off.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager

from repro.pairing.interface import OperationCounter

#: Span attribute keys copied from operation-counter deltas (Table I units
#: first: Exp_G1 and Pair, then the supporting tallies).
OP_KEYS = (
    "exp_g1",
    "exp_g1_fixed_base",
    "exp_g1_msm",
    "exp_g1_skipped",
    "exp_g2",
    "exp_gt",
    "pairings",
    "mul_g1",
    "hash_to_g1",
    "cofactor_clear",
)


class Span:
    """One finished-or-open phase: timing, attributes, tree position."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attributes")

    def __init__(self, name: str, span_id: int, parent_id: int | None, start: float):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.attributes: dict = {}

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def set(self, **attributes) -> "Span":
        """Attach attributes (scalars/strings only — they must serialize)."""
        self.attributes.update(attributes)
        return self

    def op_counts(self) -> dict[str, int]:
        """The operation-delta attributes recorded for this span."""
        return {k: self.attributes[k] for k in OP_KEYS if k in self.attributes}

    def __repr__(self):
        return f"<span {self.name!r} #{self.span_id} {self.duration:.6f}s>"


class _NullSpan:
    """Absorbs the Span API at zero cost when tracing is disabled."""

    __slots__ = ()
    attributes: dict = {}

    def set(self, **attributes) -> "_NullSpan":
        return self


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return _NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()
_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """Drop-in disabled tracer; every ``span()`` is the same no-op."""

    enabled = False
    spans: list = []

    def span(self, name: str, **attributes):
        return _NULL_CONTEXT

    def record(self, name: str, start: float, end: float | None = None,
               **attributes):
        return _NULL_SPAN

    def phase_totals(self) -> dict:
        return {}


class Tracer:
    """Records nested spans; finished spans accumulate in ``spans``.

    Args:
        clock: zero-argument callable returning the current time in seconds
            (virtual or monotonic).  Defaults to ``time.perf_counter``.
        counter: when given, each span snapshots it on entry and records the
            operation deltas (``exp_g1``, ``pairings``, …) as attributes on
            exit.  Deltas are *inclusive* of child spans, like durations.
    """

    enabled = True

    def __init__(self, clock=None, counter: OperationCounter | None = None):
        self.clock = clock if clock is not None else time.perf_counter
        self.counter = counter
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count(1)

    @contextmanager
    def span(self, name: str, **attributes):
        parent_id = self._stack[-1].span_id if self._stack else None
        span = Span(name, next(self._ids), parent_id, self.clock())
        span.attributes.update(attributes)
        before = self.counter.snapshot() if self.counter is not None else None
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()
            if before is not None:
                after = self.counter.snapshot()
                for key in OP_KEYS:
                    delta = after.get(key, 0) - before.get(key, 0)
                    if delta:
                        span.attributes[key] = span.attributes.get(key, 0) + delta
            self.spans.append(span)

    def record(self, name: str, start: float, end: float | None = None,
               **attributes) -> Span:
        """Append an already-timed span directly (no stack, no counter).

        The simulator's message-delivery recording uses this: a wire hop's
        start and end times are both known at enqueue time, so there is
        nothing to nest or snapshot.  The span is parentless at the tracer
        level — causal structure lives in the ``trace``/``span``/
        ``parent_span`` attributes that :mod:`repro.obs.causal` assembles.
        """
        span = Span(name, next(self._ids), None, start)
        span.end = start if end is None else end
        span.attributes.update(attributes)
        self.spans.append(span)
        return span

    # -- aggregation ---------------------------------------------------------
    def find(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def phase_totals(self) -> dict[str, dict]:
        """Per-span-name totals: count, duration, summed op attributes.

        Only *top-of-phase* accounting makes sense for op counts (they are
        inclusive), so callers aggregate over spans of the same name — the
        instrumentation uses distinct names per nesting level.
        """
        totals: dict[str, dict] = {}
        for span in self.spans:
            entry = totals.setdefault(
                span.name, {"count": 0, "duration": 0.0, "ops": {}, "attrs": {}}
            )
            entry["count"] += 1
            entry["duration"] += span.duration
            for key, value in span.attributes.items():
                if key in OP_KEYS:
                    entry["ops"][key] = entry["ops"].get(key, 0) + value
                elif isinstance(value, (int, float)) and not isinstance(value, bool):
                    entry["attrs"][key] = entry["attrs"].get(key, 0) + value
        return totals


#: Shared disabled tracer — the default for every instrumented constructor.
NULL_TRACER = NullTracer()
