"""Outside-in layer tracing: spans around each layer's public entry points.

Nothing in ``src/`` is edited.  :meth:`Tracer.installed` patches the entry
points listed by :func:`entry_points` onto wrappers that record a span
``(id, parent, op, name, start, end)`` per call, and restores the original
attributes on exit, even when the traced code raises.  Spans stay in
memory; :func:`op_layers` folds one op's spans into per-layer self times
and counts.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

Span = Tuple[int, int, int, str, float, float]

_perf = time.perf_counter


def entry_points() -> List[Tuple[Any, str, str]]:
    """``(owner, attribute, span name)`` of every wrapped entry point."""
    import repro.fastpath as fastpath
    from repro.api import Session
    from repro.fastpath import BatchEstimator
    from repro.sweep.engine import SweepEngine
    from repro.sweep.spec import SweepSpec
    from repro.sweep.store import ResultStore

    return [
        (Session, "sweep", "api.sweep"),
        (SweepEngine, "run", "engine.run"),
        (SweepEngine, "iter_records", "engine.wait"),
        (SweepSpec, "expand", "spec.expand"),
        # The engine imports group_scenarios from the package at call time.
        (fastpath, "group_scenarios", "fastpath.group"),
        (BatchEstimator, "compile_for", "fastpath.compile"),
        (BatchEstimator, "evaluate_group", "fastpath.evaluate"),
        (ResultStore, "append", "store.append"),
    ]


class Tracer:
    """In-memory span recorder with a stack for parent links."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.op = 0
        #: ``len()`` of the results of ``spec.expand`` and ``fastpath.group``.
        self.result_sizes: Dict[str, int] = defaultdict(int)
        #: Batch estimators whose ``compile_for`` ran (for ``cache_stats()``).
        self.estimators: List[Any] = []
        self._stack: List[int] = [0]
        self._next_id = 1

    def _open(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        self._stack.append(span_id)
        return span_id

    def _close(self, span_id: int, name: str, start: float) -> None:
        end = _perf()
        self._stack.pop()
        self.spans.append((span_id, self._stack[-1], self.op, name, start, end))

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span around a block of the benchmark's own code."""
        span_id = self._open()
        start = _perf()
        try:
            yield
        finally:
            self._close(span_id, name, start)

    def _wrap(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        sized = name in ("spec.expand", "fastpath.group")
        noted = name == "fastpath.compile"

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if noted and not any(args[0] is seen for seen in tracer.estimators):
                tracer.estimators.append(args[0])
            span_id = tracer._open()
            start = _perf()
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span_id, name, start)
            if sized:
                tracer.result_sizes[name] += len(result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, func: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = func(*args, **kwargs)
            while True:
                # One span per next(): the time the caller is blocked.
                span_id = tracer._open()
                start = _perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer._close(span_id, name, start)
                yield item

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every :func:`entry_points` entry for the duration of the block."""
        saved: List[Tuple[Any, str, Any]] = []
        try:
            for owner, attribute, name in entry_points():
                original = vars(owner)[attribute]
                wrap = self._wrap_generator if name == "engine.wait" else self._wrap
                saved.append((owner, attribute, original))
                setattr(owner, attribute, wrap(name, original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    def begin_op(self, op: int) -> None:
        """Forget the previous op's spans and counters; tag new spans ``op``."""
        self.op = op
        self.spans.clear()
        self.result_sizes.clear()
        self.estimators.clear()


def op_layers(spans: Sequence[Span]) -> Tuple[Dict[str, float], Dict[str, float], Dict[str, int]]:
    """``(total seconds, self seconds, calls)`` per span name for one op.

    Self time is a span's duration minus the part covered by its children.
    """
    child_time: Dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        child_time[parent] += end - start
    total: Dict[str, float] = defaultdict(float)
    self_time: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span_id, _, _, name, start, end in spans:
        total[name] += end - start
        self_time[name] += end - start - child_time[span_id]
        calls[name] += 1
    return total, self_time, calls
