"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start and end on a
monotonic clock, the span that was open when it started (its parent),
and optional attributes such as a column count.  Spans are only
recorded while a root span is open, so work done outside the measured
passes (correctness checks, metric computation) leaves no trace.

Self time is a span's duration minus the durations of its direct
children; within one tree the self times add up to the root's duration.
The recorder keeps one stack and is meant for single-threaded runs.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs", "child_time")

    def __init__(self, name: str, start: float, parent: "Span | None"):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.attrs: dict[str, Any] = {}
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Recorder:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.roots: list[int] = []
        self._stack: list[Span] = []

    def _open(self, name: str) -> Span:
        span = Span(name, self.clock(), self._stack[-1] if self._stack else None)
        self._stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()
        if span.parent is not None:
            span.parent.child_time += span.duration

    @contextmanager
    def root(self, name: str) -> Iterator[Span]:
        """Open the root of a new span tree; calls made inside are traced."""
        if self._stack:
            raise RuntimeError(f"root span {name!r} opened inside another span")
        self.roots.append(len(self.spans))
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def wrap(
        self,
        name: str,
        fn: Callable,
        attrs: Callable[[tuple, dict, Any], dict] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped so that each call inside a root is a span.

        ``attrs(args, kwargs, result)`` may add attributes after a call
        returns; a call that raises gets ``attrs["error"]`` instead.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                self._close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def trees(self) -> list[list[Span]]:
        """Spans grouped by root, each list starting with its root."""
        bounds = self.roots + [len(self.spans)]
        return [self.spans[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


class Patches:
    """Replace attributes for the lifetime of a ``with`` block.

    Class-level descriptors (``classmethod``/``staticmethod``) are
    unwrapped before the replacement is built and re-wrapped after, so a
    patched classmethod still receives its class.
    """

    def __init__(self):
        self._saved: list[tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
