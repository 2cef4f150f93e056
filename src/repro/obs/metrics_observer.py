"""Metrics subscriber: fold the event stream into a registry.

:class:`MetricsObserver` is the standing-production observer — O(1)
state per metric series, no per-event allocation beyond label lookups.
Its vocabulary is data: :data:`FAMILIES` declares every ``repro_*``
family (name, kind, help, labels, buckets) in registration order, and
``docs/metrics_reference.md`` is generated from the registry it builds
(:mod:`repro.obs.reference`).  Each event class has one fold method,
picked by ``type(event)``, that updates the families the event feeds;
events without a fold are ignored.

Latency histograms use power-of-two nanosecond buckets
(:func:`~repro.obs.metrics.log2_buckets`), fanout/depth histograms use
power-of-two count buckets.

The observer is thread-safe: the compile-ahead pipeline
(:mod:`repro.parallel`) emits compile / cache events from its pool
thread concurrently with the submitting thread, so every event is
folded into the registry under one internal mutex.
"""

from __future__ import annotations

import threading
from operator import attrgetter
from types import SimpleNamespace

from .events import (
    CacheEvent,
    ClusterEvent,
    ControlEvent,
    FaultEvent,
    FrameDone,
    FrameStart,
    LevelSpan,
    Observer,
    ParallelEvent,
    QueueDepth,
    ResilienceEvent,
)
from .metrics import MetricsRegistry, log2_buckets

__all__ = ["MetricsObserver"]

_NS_BUCKETS = log2_buckets(8, 34)  # 256 ns .. ~17 s
_COUNT_BUCKETS = log2_buckets(0, 20)  # 1 .. ~1M

# (name, kind, help[, labels[, buckets]]), in registration order.
FAMILIES = (
    ("repro_frames_total", "counter", "Payload frames routed.",
     ("engine", "mode")),
    ("repro_deliveries_total", "counter",
     "Verified (output, message) deliveries."),
    ("repro_splits_total", "counter", "Alpha splits performed by BSN levels."),
    ("repro_switch_ops_total", "counter", "2x2 switch applications."),
    ("repro_frame_ns", "histogram", "End-to-end frame routing latency (ns).",
     ("engine",), _NS_BUCKETS),
    ("repro_frame_fanout", "histogram",
     "Total destinations per routed assignment.", (), _COUNT_BUCKETS),
    ("repro_level_ns", "histogram",
     "Per-recursion-level routing/compile latency (ns).", ("level",),
     _NS_BUCKETS),
    ("repro_stage_ns_total", "counter",
     "Cumulative per-stage time within a level (ns).", ("level", "stage")),
    ("repro_level_splits_total", "counter",
     "Alpha splits per recursion level.", ("level",)),
    ("repro_plan_cache_events_total", "counter",
     "Plan cache lookups and evictions by kind.", ("kind",)),
    ("repro_plan_cache_size", "gauge", "Compiled plans currently cached."),
    ("repro_queue_depth", "gauge",
     "End-of-slot backlog of the queueing simulator."),
    ("repro_queue_served_total", "counter",
     "Requests served by the queueing simulator."),
    ("repro_parallel_tasks_total", "counter",
     "Worker-pool tasks completed, by kind (compile).", ("kind",)),
    ("repro_parallel_workers", "gauge", "Configured worker-pool size."),
    ("repro_parallel_workers_busy", "gauge",
     "Workers currently running a task (utilisation numerator)."),
    ("repro_parallel_compile_queue_depth", "gauge",
     "Compile-ahead prefetches pending on the worker pool."),
    ("repro_parallel_coalesced_total", "counter",
     "Plan-cache misses coalesced onto an in-flight compile "
     "(single-flight deduplication)."),
    ("repro_faults_injected_total", "counter",
     "Fault activations that touched in-flight traffic, by kind.", ("kind",)),
    ("repro_faults_detected_total", "counter",
     "Routing passes whose verification found fault casualties."),
    ("repro_faults_retries_total", "counter",
     "Repair passes started by the healing layer."),
    ("repro_faults_recovered_terminals_total", "counter",
     "Terminals healed by a repair pass."),
    ("repro_faults_lost_terminals_total", "counter",
     "Terminals abandoned after the retry budget ran out."),
    ("repro_faults_quarantines_total", "counter",
     "Times the primary plane entered quarantine."),
    ("repro_faults_plane_state", "gauge",
     "Primary plane state (0 healthy, 1 probation, 2 quarantined)."),
    ("repro_resilience_admitted_total", "counter",
     "Frames admitted by the admission gate, by priority class.",
     ("priority",)),
    ("repro_resilience_shed_total", "counter",
     "Frames shed by the admission gate, by priority class.", ("priority",)),
    ("repro_resilience_deadline_expired_total", "counter",
     "Healing loops cut short by an expired deadline budget."),
    ("repro_resilience_breaker_transitions_total", "counter",
     "Circuit-breaker state transitions, by destination state.", ("state",)),
    ("repro_resilience_breaker_state", "gauge",
     "Circuit-breaker state (0 closed, 1 half_open, 2 open).", ("scope",)),
    ("repro_resilience_short_circuits_total", "counter",
     "Frames short-circuited away from an open breaker's plane."),
    ("repro_resilience_snapshot_total", "counter",
     "Warm-restart snapshots taken/restored/rejected, by action.",
     ("action",)),
    ("repro_control_ticks_total", "counter", "Control-plane ticks evaluated."),
    ("repro_control_decisions_total", "counter",
     "Actuator adjustments made by the control plane, "
     "by controller and parameter.", ("controller", "parameter")),
    ("repro_control_admission_rate", "gauge",
     "Admission refill rate currently set by the AIMD loop."),
    ("repro_control_admission_reserve", "gauge",
     "Priority token reserve currently set by the AIMD loop."),
    ("repro_control_compile_ahead_depth", "gauge",
     "Compile-ahead prefetch depth currently set by the control plane."),
    ("repro_control_backoff_scale", "gauge",
     "Healing retry-backoff scale currently applied (1 = base policy)."),
    ("repro_cluster_frames_total", "counter",
     "Frames served per cluster replica (including requeued and "
     "spilled-over frames, attributed to the serving replica).",
     ("replica",)),
    ("repro_cluster_requeues_total", "counter",
     "Frames requeued to a sibling after their home replica died between "
     "placement and service (exactly once each)."),
    ("repro_cluster_spillovers_total", "counter",
     "Frames served by a sibling after the home replica's admission gate "
     "shed them."),
    ("repro_cluster_shed_total", "counter",
     "Frames shed by every candidate replica (never routed)."),
    ("repro_cluster_replica_state", "gauge",
     "Replica lifecycle state (0 up, 1 draining, 2 down).", ("replica",)),
    ("repro_cluster_replicas_up", "gauge",
     "Replicas currently accepting new placements."),
    ("repro_cluster_restarts_total", "counter",
     "Rolling-restart cycles completed (replica re-admitted)."),
    ("repro_cluster_kills_total", "counter",
     "Replicas torn down without a drain."),
    ("repro_cluster_plans_warmed_total", "counter",
     "Plans warm-restored into restarted replicas from their drain "
     "snapshots."),
)


class MetricsObserver(Observer):
    """Aggregate lifecycle events into a :class:`MetricsRegistry`.

    Args:
        registry: registry to populate (default: a private one, exposed
            as :attr:`registry`).
    """

    _engine = "unknown"
    _mode = "unknown"

    def __init__(self, registry: MetricsRegistry = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        # Families by name without the ``repro_`` prefix.
        self._m = SimpleNamespace(**{
            name[len("repro_"):]: getattr(self.registry, kind)(name, *rest)
            for name, kind, *rest in FAMILIES
        })

    def on_event(self, event) -> None:
        """Fold one event into the families it feeds."""
        fold = _FOLDS.get(type(event))
        if fold is not None:
            with self._lock:
                fold(self, event)

    def _count(self, table, event) -> None:
        """Bump the unlabelled counter ``table`` maps the action to."""
        entry = table.get(event.action)
        if entry is not None:
            family, amount = entry
            getattr(self._m, family).inc(amount(event))

    def _frame_start(self, e: FrameStart) -> None:
        # FrameDone carries no engine/mode, so the labels seen here
        # (constant per network instance, and emission is strictly
        # start ... done) label the totals at FrameDone.
        self._engine, self._mode = e.engine, e.mode
        self._m.frame_fanout.observe(e.fanout)

    def _level(self, e: LevelSpan) -> None:
        m, level = self._m, str(e.level)
        m.level_ns.observe(e.duration_ns, level=level)
        m.level_splits_total.inc(e.splits, level=level)
        for stage, ns in e.stage_ns.items():
            m.stage_ns_total.inc(ns, level=level, stage=stage)

    def _frame_done(self, e: FrameDone) -> None:
        m = self._m
        m.frames_total.inc(e.frames, engine=self._engine, mode=self._mode)
        m.deliveries_total.inc(e.deliveries * e.frames)
        m.splits_total.inc(e.splits * e.frames)
        m.switch_ops_total.inc(e.switch_ops * e.frames)
        m.frame_ns.observe(e.duration_ns, engine=self._engine)

    def _cache(self, e: CacheEvent) -> None:
        m = self._m
        m.plan_cache_events_total.inc(1, kind=e.kind)
        m.plan_cache_size.set(e.size)
        if e.kind == "coalesced":
            m.parallel_coalesced_total.inc(1)

    def _queue(self, e: QueueDepth) -> None:
        self._m.queue_depth.set(e.depth)
        self._m.queue_served_total.inc(e.served)

    def _parallel(self, e: ParallelEvent) -> None:
        m = self._m
        m.parallel_workers.set(e.workers)
        m.parallel_workers_busy.set(e.busy)
        m.parallel_compile_queue_depth.set(e.queue_depth)
        if e.action == "done":
            m.parallel_tasks_total.inc(1, kind=e.kind)

    def _fault(self, e: FaultEvent) -> None:
        if e.action == "injected":
            self._m.faults_injected_total.inc(1, kind=e.kind)
        self._count(_FAULT_COUNTS, e)
        if e.action in _PLANE_STATES:
            self._m.faults_plane_state.set(_PLANE_STATES[e.action])

    def _resilience(self, e: ResilienceEvent) -> None:
        m, action = self._m, e.action
        if action in ("admitted", "shed"):
            getattr(m, f"resilience_{action}_total").inc(
                1, priority=str(e.priority)
            )
        elif action in _BREAKER_STATES:
            state = action[len("breaker_"):]
            m.resilience_breaker_transitions_total.inc(1, state=state)
            m.resilience_breaker_state.set(
                _BREAKER_STATES[action], scope=e.scope
            )
        elif action in _SNAPSHOT_ACTIONS:
            m.resilience_snapshot_total.inc(1, action=action)
        self._count(_RESILIENCE_COUNTS, e)

    def _cluster(self, e: ClusterEvent) -> None:
        m = self._m
        if e.action in ("submitted", "requeued", "spillover"):
            m.cluster_frames_total.inc(e.frames, replica=str(e.replica))
        elif e.action == "state":
            m.cluster_replica_state.set(
                _REPLICA_STATES.get(e.state, 2), replica=str(e.replica)
            )
            if e.up >= 0:
                m.cluster_replicas_up.set(e.up)
        self._count(_CLUSTER_COUNTS, e)

    def _control(self, e: ControlEvent) -> None:
        m = self._m
        if e.action == "tick":
            m.control_ticks_total.inc(1)
        elif e.action == "adjust":
            m.control_decisions_total.inc(
                1, controller=e.controller, parameter=e.parameter
            )
            gauge = _CONTROL_GAUGES.get(e.parameter)
            if gauge is not None:
                getattr(m, gauge).set(e.new)


_FOLDS = {
    FrameStart: MetricsObserver._frame_start,
    LevelSpan: MetricsObserver._level,
    FrameDone: MetricsObserver._frame_done,
    CacheEvent: MetricsObserver._cache,
    QueueDepth: MetricsObserver._queue,
    ParallelEvent: MetricsObserver._parallel,
    FaultEvent: MetricsObserver._fault,
    ResilienceEvent: MetricsObserver._resilience,
    ClusterEvent: MetricsObserver._cluster,
    ControlEvent: MetricsObserver._control,
}


def _one(event) -> int:
    return 1


_frames = attrgetter("frames")


def _terminals(event) -> int:
    return len(event.terminals)


# action -> (unlabelled counter, amount of the event it adds)
_FAULT_COUNTS = {
    "detected": ("faults_detected_total", _one),
    "retry": ("faults_retries_total", _one),
    "recovered": ("faults_recovered_terminals_total", _terminals),
    "lost": ("faults_lost_terminals_total", _terminals),
    "quarantined": ("faults_quarantines_total", _one),
}
_RESILIENCE_COUNTS = {
    "deadline_expired": ("resilience_deadline_expired_total", _frames),
    "short_circuit": ("resilience_short_circuits_total", _frames),
}
_CLUSTER_COUNTS = {
    "requeued": ("cluster_requeues_total", _frames),
    "spillover": ("cluster_spillovers_total", _frames),
    "shed": ("cluster_shed_total", _frames),
    "readmit": ("cluster_restarts_total", _one),
    "killed": ("cluster_kills_total", _one),
    "restore": ("cluster_plans_warmed_total", attrgetter("plans")),
}
_PLANE_STATES = {"readmitted": 0, "probation": 1, "quarantined": 2}
_REPLICA_STATES = {"up": 0, "draining": 1, "down": 2}
_BREAKER_STATES = {"breaker_closed": 0, "breaker_half_open": 1, "breaker_open": 2}
_SNAPSHOT_ACTIONS = ("snapshot_saved", "snapshot_restored", "snapshot_rejected")
_CONTROL_GAUGES = {
    "rate": "control_admission_rate",
    "reserve": "control_admission_reserve",
    "depth": "control_compile_ahead_depth",
    "backoff_scale": "control_backoff_scale",
}
