"""Bounded worker pool with busy accounting and observability.

:class:`WorkerPool` is a thin, instrumented wrapper around
:class:`concurrent.futures.ThreadPoolExecutor`.  The compile-ahead
pipeline (:mod:`repro.parallel.pipeline`) runs its background plan
compiles on a one-thread pool, sharing compiled plans with the
submitting thread through the plan cache.

Every task emits a pair of :class:`~repro.obs.events.ParallelEvent`
samples (``start`` / ``done``) carrying the pool size, the busy-worker
count and the compile-ahead queue depth, which
:class:`~repro.obs.metrics_observer.MetricsObserver` folds into the
``repro_parallel_*`` metric families.  With no observer (or a disabled
one) a task pays two lock-protected counter bumps and nothing else.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from time import perf_counter_ns
from typing import Callable, Optional

from ..obs.events import ParallelEvent, emit

__all__ = ["WorkerPool"]


class WorkerPool:
    """A lazily-started, instrumented thread pool of fixed size.

    Args:
        workers: pool size (>= 1); the compile-ahead pipeline uses 1.
        observer: optional :class:`~repro.obs.events.Observer`
            receiving ``start`` / ``done``
            :class:`~repro.obs.events.ParallelEvent` samples.

    The underlying executor is created on first :meth:`submit`, so a
    pool costs nothing until work is actually dispatched.
    :attr:`depth_fn` may be pointed at a queue depth source (the
    compile-ahead pipeline registers its pending count) so emitted
    events carry the current prefetch backlog.
    """

    def __init__(self, workers: int, observer: Optional[object] = None):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.observer = observer
        self.depth_fn: Optional[Callable[[], int]] = None
        self._lock = threading.Lock()
        self._busy = 0
        self._executor: Optional[ThreadPoolExecutor] = None

    @property
    def busy(self) -> int:
        """Tasks currently executing (the utilisation numerator)."""
        with self._lock:
            return self._busy

    def _depth(self) -> int:
        fn = self.depth_fn
        return fn() if fn is not None else 0

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.workers,
                    thread_name_prefix="repro-worker",
                )
            return self._executor

    def submit(self, kind: str, fn: Callable, *args, **kwargs) -> Future:
        """Dispatch ``fn(*args, **kwargs)`` to the pool.

        Args:
            kind: task label for observability (``"compile"`` for
                the pipeline); becomes the ``kind`` label of
                ``repro_parallel_tasks_total``.

        Returns:
            the task's :class:`~concurrent.futures.Future`; exceptions
            propagate through ``result()`` as usual.
        """
        return self._ensure_executor().submit(self._run, kind, fn, args, kwargs)

    def _run(self, kind: str, fn: Callable, args, kwargs):
        obs = self.observer
        observed = obs is not None and obs.enabled
        with self._lock:
            self._busy += 1
            busy = self._busy
        if observed:
            emit(
                obs,
                ParallelEvent(
                    action="start",
                    kind=kind,
                    workers=self.workers,
                    busy=busy,
                    queue_depth=self._depth(),
                    t_ns=perf_counter_ns(),
                ),
            )
        try:
            return fn(*args, **kwargs)
        finally:
            with self._lock:
                self._busy -= 1
                busy = self._busy
            if observed:
                emit(
                    obs,
                    ParallelEvent(
                        action="done",
                        kind=kind,
                        workers=self.workers,
                        busy=busy,
                        queue_depth=self._depth(),
                        t_ns=perf_counter_ns(),
                    ),
                )

    def shutdown(self, wait: bool = True) -> None:
        """Stop the pool.  Idempotent; a later :meth:`submit` restarts it."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
