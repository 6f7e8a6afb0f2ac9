"""In-memory span tracer and the injected boundaries the benchmark times.

Everything here lives in the benchmark, not in ``src/``: spans are opened
around calls *into* each layer (wrapped bound methods on instances the
benchmark constructs, plus proxies for the SEM transport and the ledger),
so the program under test runs unmodified.

A span is ``[id, parent_id, name, start_s, end_s, attrs]``.  Spans are
appended to a list while the run executes and written out once at the end.
Wrapped methods are installed only while ``Tracer.attached`` is true, so an
untraced cycle calls the program exactly as a run without ``--trace`` does.
While attached, a wrapper records a span only when ``Tracer.enabled`` is
true (during a timed operation) and passes through otherwise.
"""

from __future__ import annotations

import json
import os
import time


class Tracer:
    """Single-threaded span recorder with explicit parent links."""

    def __init__(self):
        self.enabled = False
        self.attached = False
        self.spans: list[list] = []
        #: (object, attribute, wrapper, original or None if on the class)
        self._wraps: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 1

    def open(self, name: str, **attrs) -> list:
        parent = self._stack[-1][0] if self._stack else 0
        span = [self._next_id, parent, name, time.perf_counter(), None, attrs]
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[2]} closed out of order")
        self.spans.append(span)

    def call(self, name: str, fn, *args, attrs_of=None):
        """Run ``fn(*args)`` inside a span named ``name`` when tracing is on.

        ``attrs_of(args, result)`` may add numeric attributes to the span.
        """
        if not self.enabled:
            return fn(*args)
        span = self.open(name)
        try:
            result = fn(*args)
        finally:
            self.close(span)
        if attrs_of is not None:
            span[5].update(attrs_of(args, result))
        return result

    def wrap(self, obj, attr: str, name: str, attrs_of=None) -> None:
        """Register a spanning wrapper for ``obj.attr``, shadowing it on the
        instance while the tracer is attached.

        ``attrs_of(args, result)`` may add attributes to the span (e.g. the
        number of terms of a multi-exponentiation).
        """
        inner = getattr(obj, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return inner(*args, **kwargs)
            return tracer.call(name, lambda: inner(*args, **kwargs),
                               attrs_of=(None if attrs_of is None
                                         else lambda _a, result: attrs_of(args, result)))

        self._wraps.append((obj, attr, wrapper, vars(obj).get(attr)))
        if self.attached:
            setattr(obj, attr, wrapper)

    def attach(self, on: bool) -> None:
        """Install (``on``) or remove every registered wrapper.

        Removing restores each object as it was: the original instance
        attribute, or none, so lookups reach the class method again.
        """
        if on == self.attached:
            return
        self.attached = on
        for obj, attr, wrapper, original in (self._wraps if on else reversed(self._wraps)):
            if on:
                setattr(obj, attr, wrapper)
            elif original is None:
                delattr(obj, attr)
            else:
                setattr(obj, attr, original)

    def dump(self, path: str) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, attrs in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_s": start, "end_s": end, "attrs": attrs,
                }, sort_keys=True) + "\n")


class SemProxy:
    """The SEM transport as owners and stores see it, with round counts.

    Wraps anything exposing ``sign_blinded_batch`` (a mediator or a
    failover client) and forwards every other attribute, so a
    ``SemPdpSystem`` can hold it in place of its mediator.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.rounds = 0
        self.messages = 0

    def sign_blinded_batch(self, blinded, credential=None):
        self.rounds += 1
        self.messages += len(blinded)
        return self._tracer.call(
            "sem.round", self._inner.sign_blinded_batch, blinded, credential,
            attrs_of=lambda _args, _result: {"messages": len(blinded)})

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class LedgerProxy:
    """A file-backed ledger with append counts and bytes written."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self.appends = 0
        self.bytes = 0

    def append(self, kind: str, body: dict) -> dict:
        before = os.path.getsize(self._inner.path)
        entry = self._tracer.call("obs.ledger.append", self._inner.append, kind, body)
        self.appends += 1
        self.bytes += os.path.getsize(self._inner.path) - before
        return entry

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


def instrument_group(tracer: Tracer, group) -> None:
    """Span the group's public pairing, MSM and hash entry points."""
    tracer.wrap(group, "pair", "pairing.pair")
    tracer.wrap(group, "multi_pair", "pairing.multi_pair")
    tracer.wrap(group, "multi_exp", "ec.multi_exp",
                attrs_of=lambda args, _result: {"terms": len(args[0])})
    tracer.wrap(group, "hash_to_g1", "ec.hash_to_g1")


class SpanStats:
    """Per-name busy and self time over a finished span list.

    ``busy`` sums the spans of one name that are not nested in a span of
    the same name (a retrying hash calls itself); ``self_time`` subtracts
    the time covered by each span's direct children.
    """

    def __init__(self, spans: list[list]):
        by_id = {span[0]: span for span in spans}
        child_time: dict[int, float] = {}
        for span in spans:
            child_time[span[1]] = child_time.get(span[1], 0.0) + span[4] - span[3]
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.attr_sums: dict[tuple[str, str], float] = {}
        for span_id, parent, name, start, end, attrs in spans:
            duration = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = (self.self_time.get(name, 0.0)
                                    + duration - child_time.get(span_id, 0.0))
            ancestor = by_id.get(parent)
            while ancestor is not None and ancestor[2] != name:
                ancestor = by_id.get(ancestor[1])
            if ancestor is None:
                self.busy[name] = self.busy.get(name, 0.0) + duration
            for key, value in attrs.items():
                if isinstance(value, (int, float)):
                    self.attr_sums[(name, key)] = (
                        self.attr_sums.get((name, key), 0.0) + value)

    def busy_ms(self, name: str) -> float:
        return 1000.0 * self.busy.get(name, 0.0)

    def self_ms(self, name: str) -> float:
        return 1000.0 * self.self_time.get(name, 0.0)
