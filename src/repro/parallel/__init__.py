"""Compile-ahead: overlap plan compilation with routing.

The paper's BRSMN switches every block of a recursion level at the
same time, and the compiled fast engine (:mod:`repro.core.fastplan`)
already captures that parallelism: each level is one gather over a
``(blocks, n')`` matrix.  What remains serial is the *compile* of a
cold assignment, and this subpackage moves it off the submitting
thread:

* :class:`~repro.parallel.pipeline.CompileAheadPipeline` — a bounded
  prefetch queue fed by
  :meth:`~repro.core.fabric.MulticastFabric.run` lookahead (and the
  queueing simulator's next-slot packing) that warms the shared
  :class:`~repro.core.fastplan.PlanCache` on a background thread while
  the submitting thread routes; the cache's single-flight compiles make
  a race between a prefetch and the router's own lookup benign;
* :class:`~repro.parallel.workers.WorkerPool` — the one-thread
  instrumented executor the pipeline runs on, emitting
  :class:`~repro.obs.events.ParallelEvent` samples so its utilisation
  is observable like everything else.

Enable it with ``NetworkConfig(engine="fast", compile_ahead=N)`` or
``repro stats --compile-ahead N``.  Row-sharding a payload batch over
threads or processes was removed: it never beat one worker on any
measured host (see ``docs/performance.md``).
"""

from .pipeline import CompileAheadPipeline
from .workers import WorkerPool

__all__ = [
    "CompileAheadPipeline",
    "WorkerPool",
]
