"""In-memory span recorder that traces a program from outside.

`Tracer.wrap` replaces a module attribute (the binding a caller looks up at
call time) with a wrapper that records one span per call: name, start, end,
parent span, counts and the peak of memory allocated during the call as
`tracemalloc` sees it (numpy reports its buffers there).  Because spans nest
on a stack, a call made from inside another wrapped call is attributed to
that parent.  `restore` puts every original binding back.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
import tracemalloc
import warnings


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "counts", "warnings",
                 "base", "running_peak", "peak_alloc")

    def __init__(self, span_id: int, name: str, parent: int | None):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.counts: dict = {}
        self.warnings: list[str] = []
        self.base = self.running_peak = self.peak_alloc = 0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, "peak_alloc_bytes": self.peak_alloc,
                "counts": self.counts, "warnings": self.warnings}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    def start(self) -> None:
        tracemalloc.start()

    def stop(self) -> None:
        self.restore()
        tracemalloc.stop()

    def open(self, name: str) -> Span:
        """Push a span.  A parent's running peak is saved before the peak resets."""
        span = Span(len(self.spans), name, self._stack[-1].id if self._stack else None)
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.running_peak = max(parent.running_peak, peak)
            tracemalloc.reset_peak()
            span.base = span.running_peak = current
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack[-1] is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        self._stack.pop()
        if tracemalloc.is_tracing():
            _, peak = tracemalloc.get_traced_memory()
            span.running_peak = max(span.running_peak, peak)
            span.peak_alloc = span.running_peak - span.base
            if self._stack:
                parent = self._stack[-1]
                parent.running_peak = max(parent.running_peak, span.running_peak)
            tracemalloc.reset_peak()

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of open/close, for spans around harness code."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, module, attr: str, name: str, count=None, capture_warnings: bool = False) -> None:
        """Trace calls through `module.attr` as spans called `name`.

        `count(arguments, result)` returns a dict of counts for the span, where
        `arguments` maps parameter names to the values of the call.  With
        `capture_warnings`, warnings raised in the call are recorded on the
        span and then re-issued unchanged.  A missing attribute is noted in
        `missing` instead of failing, so a renamed layer shows as absent.
        """
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        signature = inspect.signature(original) if count else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            caught = []
            try:
                if capture_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = original(*args, **kwargs)
                else:
                    result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            for w in caught:
                span.warnings.append(w.category.__name__)
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            if count is not None:
                span.counts = count(signature.bind(*args, **kwargs).arguments, result)
            return result

        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


class SpanIndex:
    """Queries over recorded spans, restricted to the trees under given roots."""

    def __init__(self, spans: list[Span], root_names):
        self.children: dict[int, list[Span]] = {}
        for s in spans:
            if s.parent is not None:
                self.children.setdefault(s.parent, []).append(s)
        self.roots = [s for s in spans if s.parent is None and s.name in root_names]
        self.spans: list[Span] = []
        self._outermost: set[int] = set()

        def visit(span, seen_names):
            self.spans.append(span)
            if span.name not in seen_names:
                self._outermost.add(span.id)
            for child in self.children.get(span.id, []):
                visit(child, seen_names | {span.name})

        for root in self.roots:
            visit(root, frozenset())

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total(self, name: str) -> float:
        """Wall time in `name`, counting a call nested in a call of the same name once."""
        return sum(s.duration for s in self.named(name) if s.id in self._outermost)

    def count_sum(self, name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.named(name))

    def peak_alloc(self, name: str) -> int:
        return max((s.peak_alloc for s in self.named(name)), default=0)

    def self_time(self, span: Span) -> float:
        return span.duration - sum(c.duration for c in self.children.get(span.id, []))
