"""In-memory span recorder for the benchmark.

Spans are recorded from the benchmark's own side of each call: `op()`
times one benchmark operation, and `install()` temporarily replaces a
public function at the attribute where its caller looks it up (for
example `sliceseg.model.select_memory`), so every call into that layer
becomes a child span. Nothing inside the package is edited.

A span is the tuple (name, start, end, parent, op_id), where `parent` is
the index of the enclosing span in the same phase (-1 for a root) and
`op_id` numbers the benchmark operation the span belongs to.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable

# A counter hook sees (counts, args, kwargs, result) after the wrapped call.
CountHook = Callable[[Counter, tuple, dict, object], None]


class Tracer:
    def __init__(self):
        self.phases: dict[str, list[tuple]] = {}
        self.counts: dict[str, Counter] = {}
        self._next_op = 0
        self._ops: list[int] = []
        self._spans: list[tuple] = []
        self._counts: Counter = Counter()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def begin(self, phase: str) -> None:
        """Start recording into `phase`; spans of earlier phases are kept."""
        self._spans = self.phases.setdefault(phase, [])
        self._counts = self.counts.setdefault(phase, Counter())
        self._stack = []

    def _enter(self) -> tuple[int, int, int]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self._spans)
        self._spans.append(None)
        self._stack.append(index)
        return index, parent, self._ops[-1] if self._ops else 0

    def _exit(self, span: tuple[int, int, int], name: str, start: float, end: float) -> None:
        index, parent, op_id = span
        self._stack.pop()
        self._spans[index] = (name, start, end, parent, op_id)

    @contextmanager
    def op(self, name: str):
        """Time one benchmark operation as a root span; yields a dict that
        receives the elapsed seconds under "s"."""
        self._next_op += 1
        self._ops.append(self._next_op)
        timing = {"s": 0.0}
        span = self._enter()
        start = time.perf_counter()
        try:
            yield timing
        finally:
            end = time.perf_counter()
            timing["s"] = end - start
            self._exit(span, name, start, end)
            self._ops.pop()

    def install(self, owner: object, attr: str, name: str | None, count: CountHook | None = None):
        """Wrap owner.attr; `name` None records counts without a span."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            if name is None:
                result = original(*args, **kwargs)
            else:
                span = tracer._enter()
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    tracer._exit(span, name, start, time.perf_counter())
            if count is not None:
                count(tracer._counts, args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children run strictly inside their parent on one thread, so their
    intervals never overlap one another.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own
