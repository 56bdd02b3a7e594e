"""Outside-in span recorder for the benchmark's traced runs.

The recorder wraps public functions of the ``repro`` package from the
outside -- it replaces class or module attributes for the duration of a
``with`` block and restores the originals on exit -- so the program under
test carries no tracing code.  An untraced run never constructs a recorder,
so it installs nothing.

Each call through a wrapped function becomes one span: name, parent span,
start and end (``perf_counter_ns``).  Spans stay in memory as tuples and are
written out once, at the end of the run (:meth:`SpanRecorder.write`).  Self
time is nesting-aware: a span's self time is its duration minus the
durations of its direct children, so self times of all spans partition the
root span without double counting, even when a name nests within itself.
Counts are recorded at the same boundaries, from the wrapped call's
arguments and result.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Count hook: ``(args, result) -> {counter name: increment}``.
CountHook = Callable[[tuple, Any], Dict[str, float]]


class SpanRecorder:
    """Records spans and counters at wrapped layer boundaries."""

    def __init__(self) -> None:
        #: Finished spans: ``(span_id, parent_id, name, start_ns, end_ns)``;
        #: ``parent_id`` is -1 for a root span.
        self.spans: List[Tuple[int, int, str, int, int]] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        # Open spans: [span_id, name, start_ns, child_ns].
        self._stack: List[list] = []
        self._next_id = 0
        #: Wrapped attributes still installed: ``(owner, attr, original)``.
        self.installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #
    def _enter(self, name: str) -> None:
        self._stack.append([self._next_id, name, time.perf_counter_ns(), 0])
        self._next_id += 1

    def _exit(self) -> int:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append((span_id, parent[0] if parent else -1, name,
                           start, end))
        self.self_ns[name] += duration - child_ns
        self.calls[name] += 1
        return duration

    def span(self, name: str) -> "_SpanContext":
        """A span around a block of the benchmark's own code."""
        return _SpanContext(self, name)

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, owner: object, attr: str, name: str,
             count: Optional[CountHook] = None) -> None:
        """Route calls of ``owner.attr`` through a span named *name*.

        *owner* is a class or a module.  Class-level ``classmethod`` and
        ``staticmethod`` descriptors are unwrapped and re-wrapped so the
        binding behaviour is unchanged.
        """
        original = owner.__dict__[attr]
        descriptor = type(original) if isinstance(
            original, (classmethod, staticmethod)) else None
        func = original.__func__ if descriptor else original
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            recorder._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder._exit()
            if count is not None:
                for key, value in count(args, result).items():
                    recorder.counts[key] += value
            return result

        setattr(owner, attr, descriptor(traced) if descriptor else traced)
        self.installed.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, most recent first."""
        while self.installed:
            owner, attr, original = self.installed.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def self_seconds(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e9

    def write(self, path: Path) -> None:
        """Write every recorded span as JSON (one array per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fields": ["span_id", "parent_id", "name", "start_ns", "end_ns"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")))


class _SpanContext:
    def __init__(self, recorder: SpanRecorder, name: str):
        self._recorder = recorder
        self._name = name
        self.seconds = 0.0

    def __enter__(self) -> "_SpanContext":
        self._recorder._enter(self._name)
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = self._recorder._exit() / 1e9
