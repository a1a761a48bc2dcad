"""Process-wide caches shared across server requests.

Two layers make repeat traffic cheap for every request, not just
long-lived processes:

* :class:`ResultCache` — finished sweeps keyed on
  :func:`repro.api.sweep_cache_key` (canonical scenario signatures plus
  the estimator context).  An identical re-submission is served straight
  from memory: no scenario is re-evaluated, and the cached records are
  replayed into the job's store so streamed output stays bit-identical.
* :class:`SharedCompileCache` — one :class:`repro.fastpath.BatchEstimator`
  whose compiled templates (keyed on fab-source/config-override/packaging
  signatures) persist across jobs, so request N pays only for templates
  request 1..N-1 never compiled.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Sequence, Tuple

__all__ = ["ResultCache", "SharedCompileCache"]


class ResultCache:
    """Thread-safe LRU cache of finished sweep record tuples.

    The values are the exact record dicts a live run would produce (the
    engine's records are deterministic, so a cached replay is
    indistinguishable from a re-evaluation).  ``get``/``put`` match the
    duck type :class:`repro.api.Session` expects from ``result_cache``.

    Args:
        max_entries: Entry cap; the least recently used sweep is evicted
            first.  ``None`` disables eviction.
    """

    def __init__(self, max_entries: Optional[int] = 128):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1 or None, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, Tuple[Dict[str, Any], ...]]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> Optional[Tuple[Dict[str, Any], ...]]:
        """The cached records of ``key``, or ``None`` (counts hit/miss).

        Every hit returns fresh per-record dict copies, mirroring the
        defensive copy ``put`` makes on the way in: a caller mutating a
        replayed record (annotating rows, popping columns) must not corrupt
        the entry every future hit is served from.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return tuple(dict(record) for record in entry)

    def put(self, key: str, records: Sequence[Dict[str, Any]]) -> None:
        """Store the finished sweep's records under ``key``."""
        entry = tuple(dict(record) for record in records)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            if self.max_entries is not None:
                while len(self._entries) > self.max_entries:
                    self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """``{"entries", "hits", "misses"}`` snapshot for ``/v1/metrics``."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


class SharedCompileCache:
    """One batch estimator — and its compiled-template caches — per process.

    Jobs running with ``jobs=1`` evaluate through
    this single :class:`repro.fastpath.BatchEstimator` instead of building
    a fresh one per run (``SweepEngine(batch_estimator=...)``), so
    compiled templates survive across requests.  Sharing across worker
    threads is safe: the estimator's caches are plain dicts whose
    individual operations are GIL-atomic and whose values are
    deterministic, so the worst concurrent-miss outcome is computing the
    same immutable template twice.

    Args:
        config: Estimator configuration every job evaluates under.
        table: Technology table override.
        include_cost: Compile the dollar-cost terms too.
        persistent_cache: Optional on-disk compile cache
            (:class:`repro.fastpath.DiskCompileCache`, or a directory
            path) mounted under the shared estimator, so compiled
            templates also survive server restarts.
    """

    def __init__(
        self,
        config: Optional[Any] = None,
        table: Optional[Any] = None,
        include_cost: bool = True,
        persistent_cache: Optional[Any] = None,
    ):
        from repro.fastpath import BatchEstimator

        self.estimator = BatchEstimator(
            config=config,
            table=table,
            include_cost=include_cost,
            persistent_cache=persistent_cache,
        )

    def stats(self) -> Dict[str, int]:
        """Template-cache counters for ``/v1/metrics``."""
        return self.estimator.cache_stats()
