"""Compile-ahead pipeline: overlap plan compilation with routing.

Compiling a :class:`~repro.core.fastplan.FramePlan` costs several
milliseconds at large ``n`` — roughly 7.5x the batched routing it then
performs — so a cold assignment stalls the submitting thread for the
length of a compile.  :class:`CompileAheadPipeline` hides that stall:
callers that can see upcoming work (the fabric's run-loop lookahead,
the queueing simulator's next-slot backlog) :meth:`prefetch` the
assignments about to be routed, and the compile happens on a
:class:`~repro.parallel.workers.WorkerPool` thread while the submitting
thread routes already-warm frames.  By the time the cold frame is up,
its plan is cached — or at worst in flight, in which case the routing
thread's own lookup *coalesces* onto the prefetch instead of compiling
(the :class:`~repro.core.fastplan.PlanCache` single-flight guarantee
makes the race benign in both directions).

The queue is bounded by ``depth``: a prefetch beyond it is *dropped*,
never queued — lookahead is an optimisation, and an unbounded compile
backlog would compile plans long after their frames were routed.
Drops are observable (``action="drop"``
:class:`~repro.obs.events.ParallelEvent`), and the pending count is
exported as ``repro_parallel_compile_queue_depth``.
"""

from __future__ import annotations

import threading
from concurrent.futures import wait
from time import perf_counter_ns
from typing import Callable, Optional, Set

from ..core.fastplan import FramePlan, PlanCache, compile_frame_plan
from ..core.multicast import MulticastAssignment
from ..obs.events import ParallelEvent, emit
from .workers import WorkerPool

__all__ = ["CompileAheadPipeline"]


class CompileAheadPipeline:
    """Bounded prefetch queue warming a plan cache on pool threads.

    Args:
        cache: the shared :class:`~repro.core.fastplan.PlanCache`
            prefetches compile into (or anything with its ``get`` /
            ``contains`` surface).
        pool: worker pool compiles run on.
        depth: maximum prefetches pending at once (>= 1); further
            prefetches are dropped until one completes.
        compile_fn: plan compiler, passed through to ``cache.get``.
        extra_key: cache-key suffix, e.g. an active fault plan's
            ``fingerprint()`` — must match what the router will use at
            lookup time or the prefetch warms the wrong entry.
        observer: optional observer for ``enqueue`` / ``drop`` events.

    The pipeline registers its pending count as the pool's
    ``depth_fn`` so every worker event carries the current backlog.
    """

    def __init__(
        self,
        cache: PlanCache,
        pool: WorkerPool,
        depth: int = 2,
        compile_fn: Callable[[MulticastAssignment], FramePlan] = compile_frame_plan,
        extra_key: str = "",
        observer: Optional[object] = None,
    ):
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.cache = cache
        self.pool = pool
        self.depth = depth
        self.compile_fn = compile_fn
        self.extra_key = extra_key
        self.observer = observer
        self._lock = threading.Lock()
        self._pending = 0
        self._futures: Set[object] = set()
        self.prefetches = 0
        self.drops = 0
        if pool.depth_fn is None:
            pool.depth_fn = self.queue_depth_fn

    # -- introspection ---------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Prefetches currently pending (queued or compiling)."""
        with self._lock:
            return self._pending

    def queue_depth_fn(self) -> int:
        """Lock-free depth read for hot-path event payloads."""
        return self._pending

    def set_depth(self, depth: int) -> None:
        """Resize the prefetch bound mid-flight (the control plane's
        actuator hook).

        Shrinking never cancels in-flight compiles — it only tightens
        the admission test future :meth:`prefetch` calls run against.
        """
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        with self._lock:
            self.depth = depth

    def _emit(self, action: str) -> None:
        obs = self.observer
        if obs is None or not obs.enabled:
            return
        emit(
            obs,
            ParallelEvent(
                action=action,
                kind="compile",
                workers=self.pool.workers,
                busy=self.pool.busy,
                queue_depth=self._pending,
                t_ns=perf_counter_ns(),
            ),
        )

    # -- the pipeline ----------------------------------------------------
    def prefetch(self, assignment: MulticastAssignment) -> bool:
        """Schedule a background compile of ``assignment``'s plan.

        Returns:
            True when a compile task was enqueued; False when the plan
            is already cached / in flight (nothing to do) or the queue
            is full (dropped, counted, observable).
        """
        if self.cache.contains(assignment, self.extra_key):
            return False
        with self._lock:
            if self._pending >= self.depth:
                self.drops += 1
                drop = True
            else:
                self._pending += 1
                self.prefetches += 1
                drop = False
        if drop:
            self._emit("drop")
            return False
        self._emit("enqueue")
        future = self.pool.submit("compile", self._compile, assignment)
        with self._lock:
            self._futures.add(future)
        future.add_done_callback(self._discard)
        return True

    def _discard(self, future) -> None:
        with self._lock:
            self._futures.discard(future)

    def _compile(self, assignment: MulticastAssignment) -> None:
        try:
            self.cache.get(assignment, self.compile_fn, self.extra_key)
        finally:
            with self._lock:
                self._pending -= 1

    def drain(self, timeout: Optional[float] = None) -> None:
        """Block until every scheduled prefetch has finished.

        Prefetch failures are swallowed here — a failed *prefetch*
        must never sink the run; the routing thread's own ``get`` will
        re-raise the compile error if the assignment is truly invalid.
        """
        with self._lock:
            futures = list(self._futures)
            self._futures.clear()
        if futures:
            wait(futures, timeout=timeout)
