"""Metrics subscriber: fold the event stream into a registry.

:class:`MetricsObserver` is the standing-production observer — O(1)
state per metric series, no per-event allocation beyond label lookups —
mapping routing lifecycle events onto a fixed metric vocabulary (all
``repro_``-prefixed):

======================================  =========  ==========================
metric                                  type       source event
======================================  =========  ==========================
``repro_frames_total{engine,mode}``     counter    FrameDone (x frames)
``repro_deliveries_total``              counter    FrameDone
``repro_splits_total``                  counter    FrameDone
``repro_switch_ops_total``              counter    FrameDone
``repro_frame_ns{engine}``              histogram  FrameDone.duration_ns
``repro_frame_fanout``                  histogram  FrameStart.fanout
``repro_level_ns{level}``               histogram  LevelSpan.duration_ns
``repro_stage_ns_total{level,stage}``   counter    LevelSpan.stage_ns
``repro_level_splits_total{level}``     counter    LevelSpan.splits
``repro_plan_cache_events_total{kind}`` counter    CacheEvent
``repro_plan_cache_size``               gauge      CacheEvent.size
``repro_queue_depth``                   gauge      QueueDepth.depth
``repro_queue_served_total``            counter    QueueDepth.served
``repro_parallel_tasks_total{kind}``    counter    ParallelEvent "done"
``repro_parallel_workers``              gauge      ParallelEvent.workers
``repro_parallel_workers_busy``         gauge      ParallelEvent.busy
``repro_parallel_compile_queue_depth``  gauge      ParallelEvent.queue_depth
``repro_parallel_coalesced_total``      counter    CacheEvent "coalesced"
``repro_faults_injected_total{kind}``   counter    FaultEvent "injected"
``repro_faults_detected_total``         counter    FaultEvent "detected"
``repro_faults_retries_total``          counter    FaultEvent "retry"
``repro_faults_recovered_terminals_total``  counter  FaultEvent "recovered"
``repro_faults_lost_terminals_total``   counter    FaultEvent "lost"
``repro_faults_quarantines_total``      counter    FaultEvent "quarantined"
``repro_faults_plane_state``            gauge      FaultEvent transitions
``repro_resilience_admitted_total{priority}``  counter  ResilienceEvent "admitted"
``repro_resilience_shed_total{priority}``  counter  ResilienceEvent "shed"
``repro_resilience_deadline_expired_total``  counter  ResilienceEvent "deadline_expired"
``repro_resilience_breaker_transitions_total{state}``  counter  ResilienceEvent "breaker_*"
``repro_resilience_breaker_state{scope}``  gauge   ResilienceEvent "breaker_*"
``repro_resilience_short_circuits_total``  counter  ResilienceEvent "short_circuit"
``repro_resilience_snapshot_total{action}``  counter  ResilienceEvent "snapshot_*"
``repro_control_ticks_total``           counter    ControlEvent "tick"
``repro_control_decisions_total{controller,parameter}``  counter  ControlEvent "adjust"
``repro_control_admission_rate``        gauge      ControlEvent "adjust" rate
``repro_control_admission_reserve``     gauge      ControlEvent "adjust" reserve
``repro_control_compile_ahead_depth``   gauge      ControlEvent "adjust" depth
``repro_control_backoff_scale``         gauge      ControlEvent "adjust" backoff_scale
``repro_cluster_frames_total{replica}`` counter    ClusterEvent "submitted"/"requeued"/"spillover"
``repro_cluster_requeues_total``        counter    ClusterEvent "requeued"
``repro_cluster_spillovers_total``      counter    ClusterEvent "spillover"
``repro_cluster_shed_total``            counter    ClusterEvent "shed"
``repro_cluster_replica_state{replica}``  gauge    ClusterEvent "state"
``repro_cluster_replicas_up``           gauge      ClusterEvent "state"
``repro_cluster_restarts_total``        counter    ClusterEvent "readmit"
``repro_cluster_kills_total``           counter    ClusterEvent "killed"
``repro_cluster_plans_warmed_total``    counter    ClusterEvent "restore"
======================================  =========  ==========================

Latency histograms use power-of-two nanosecond buckets
(:func:`~repro.obs.metrics.log2_buckets`), fanout/depth histograms use
power-of-two count buckets.

The observer is thread-safe: the compile-ahead pipeline
(:mod:`repro.parallel`) emits compile / cache events from its pool
thread concurrently with the submitting thread, so every handler folds
its event into the registry under one internal mutex.
"""

from __future__ import annotations

import threading

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


class MetricsObserver(Observer):
    """Aggregate lifecycle events into a :class:`MetricsRegistry`.

    Args:
        registry: registry to populate (default: a private one, exposed
            as :attr:`registry`).
    """

    def __init__(self, registry: MetricsRegistry = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        self._lock = threading.Lock()
        r = self.registry
        self._frames = r.counter(
            "repro_frames_total", "Payload frames routed.", ("engine", "mode")
        )
        self._deliveries = r.counter(
            "repro_deliveries_total", "Verified (output, message) deliveries."
        )
        self._splits = r.counter(
            "repro_splits_total", "Alpha splits performed by BSN levels."
        )
        self._switch_ops = r.counter(
            "repro_switch_ops_total", "2x2 switch applications."
        )
        self._frame_ns = r.histogram(
            "repro_frame_ns",
            "End-to-end frame routing latency (ns).",
            ("engine",),
            buckets=_NS_BUCKETS,
        )
        self._fanout = r.histogram(
            "repro_frame_fanout",
            "Total destinations per routed assignment.",
            buckets=_COUNT_BUCKETS,
        )
        self._level_ns = r.histogram(
            "repro_level_ns",
            "Per-recursion-level routing/compile latency (ns).",
            ("level",),
            buckets=_NS_BUCKETS,
        )
        self._stage_ns = r.counter(
            "repro_stage_ns_total",
            "Cumulative per-stage time within a level (ns).",
            ("level", "stage"),
        )
        self._level_splits = r.counter(
            "repro_level_splits_total",
            "Alpha splits per recursion level.",
            ("level",),
        )
        self._cache_events = r.counter(
            "repro_plan_cache_events_total",
            "Plan cache lookups and evictions by kind.",
            ("kind",),
        )
        self._cache_size = r.gauge(
            "repro_plan_cache_size", "Compiled plans currently cached."
        )
        self._queue_depth = r.gauge(
            "repro_queue_depth", "End-of-slot backlog of the queueing simulator."
        )
        self._queue_served = r.counter(
            "repro_queue_served_total", "Requests served by the queueing simulator."
        )
        self._parallel_tasks = r.counter(
            "repro_parallel_tasks_total",
            "Worker-pool tasks completed, by kind (compile).",
            ("kind",),
        )
        self._parallel_workers = r.gauge(
            "repro_parallel_workers", "Configured worker-pool size."
        )
        self._parallel_busy = r.gauge(
            "repro_parallel_workers_busy",
            "Workers currently running a task (utilisation numerator).",
        )
        self._compile_queue_depth = r.gauge(
            "repro_parallel_compile_queue_depth",
            "Compile-ahead prefetches pending on the worker pool.",
        )
        self._coalesced = r.counter(
            "repro_parallel_coalesced_total",
            "Plan-cache misses coalesced onto an in-flight compile "
            "(single-flight deduplication).",
        )
        self._faults_injected = r.counter(
            "repro_faults_injected_total",
            "Fault activations that touched in-flight traffic, by kind.",
            ("kind",),
        )
        self._faults_detected = r.counter(
            "repro_faults_detected_total",
            "Routing passes whose verification found fault casualties.",
        )
        self._faults_retries = r.counter(
            "repro_faults_retries_total",
            "Repair passes started by the healing layer.",
        )
        self._faults_recovered = r.counter(
            "repro_faults_recovered_terminals_total",
            "Terminals healed by a repair pass.",
        )
        self._faults_lost = r.counter(
            "repro_faults_lost_terminals_total",
            "Terminals abandoned after the retry budget ran out.",
        )
        self._faults_quarantines = r.counter(
            "repro_faults_quarantines_total",
            "Times the primary plane entered quarantine.",
        )
        self._plane_state = r.gauge(
            "repro_faults_plane_state",
            "Primary plane state (0 healthy, 1 probation, 2 quarantined).",
        )
        self._res_admitted = r.counter(
            "repro_resilience_admitted_total",
            "Frames admitted by the admission gate, by priority class.",
            ("priority",),
        )
        self._res_shed = r.counter(
            "repro_resilience_shed_total",
            "Frames shed by the admission gate, by priority class.",
            ("priority",),
        )
        self._res_deadline_expired = r.counter(
            "repro_resilience_deadline_expired_total",
            "Healing loops cut short by an expired deadline budget.",
        )
        self._res_breaker_transitions = r.counter(
            "repro_resilience_breaker_transitions_total",
            "Circuit-breaker state transitions, by destination state.",
            ("state",),
        )
        self._res_breaker_state = r.gauge(
            "repro_resilience_breaker_state",
            "Circuit-breaker state (0 closed, 1 half_open, 2 open).",
            ("scope",),
        )
        self._res_short_circuits = r.counter(
            "repro_resilience_short_circuits_total",
            "Frames short-circuited away from an open breaker's plane.",
        )
        self._res_snapshot = r.counter(
            "repro_resilience_snapshot_total",
            "Warm-restart snapshots taken/restored/rejected, by action.",
            ("action",),
        )
        self._control_ticks = r.counter(
            "repro_control_ticks_total",
            "Control-plane ticks evaluated.",
        )
        self._control_decisions = r.counter(
            "repro_control_decisions_total",
            "Actuator adjustments made by the control plane, "
            "by controller and parameter.",
            ("controller", "parameter"),
        )
        self._control_rate = r.gauge(
            "repro_control_admission_rate",
            "Admission refill rate currently set by the AIMD loop.",
        )
        self._control_reserve = r.gauge(
            "repro_control_admission_reserve",
            "Priority token reserve currently set by the AIMD loop.",
        )
        self._control_depth = r.gauge(
            "repro_control_compile_ahead_depth",
            "Compile-ahead prefetch depth currently set by the control "
            "plane.",
        )
        self._control_backoff = r.gauge(
            "repro_control_backoff_scale",
            "Healing retry-backoff scale currently applied "
            "(1 = base policy).",
        )
        self._cluster_frames = r.counter(
            "repro_cluster_frames_total",
            "Frames served per cluster replica (including requeued "
            "and spilled-over frames, attributed to the serving "
            "replica).",
            ("replica",),
        )
        self._cluster_requeues = r.counter(
            "repro_cluster_requeues_total",
            "Frames requeued to a sibling after their home replica "
            "died between placement and service (exactly once each).",
        )
        self._cluster_spillovers = r.counter(
            "repro_cluster_spillovers_total",
            "Frames served by a sibling after the home replica's "
            "admission gate shed them.",
        )
        self._cluster_shed = r.counter(
            "repro_cluster_shed_total",
            "Frames shed by every candidate replica (never routed).",
        )
        self._cluster_replica_state = r.gauge(
            "repro_cluster_replica_state",
            "Replica lifecycle state (0 up, 1 draining, 2 down).",
            ("replica",),
        )
        self._cluster_up = r.gauge(
            "repro_cluster_replicas_up",
            "Replicas currently accepting new placements.",
        )
        self._cluster_restarts = r.counter(
            "repro_cluster_restarts_total",
            "Rolling-restart cycles completed (replica re-admitted).",
        )
        self._cluster_kills = r.counter(
            "repro_cluster_kills_total",
            "Replicas torn down without a drain.",
        )
        self._cluster_plans_warmed = r.counter(
            "repro_cluster_plans_warmed_total",
            "Plans warm-restored into restarted replicas from their "
            "drain snapshots.",
        )

    def on_frame_start(self, event: FrameStart) -> None:
        """Observe the assignment's fanout; remember the frame labels.

        ``FrameDone`` carries no engine/mode, so the labels seen here
        (constant per network instance, and emission is strictly
        start ... done) label the totals at :meth:`on_frame_done`.
        """
        with self._lock:
            self._engine = event.engine
            self._mode = event.mode
            self._fanout.observe(event.fanout)

    def on_level(self, event: LevelSpan) -> None:
        """Fold a level span into the per-level latency/stage metrics."""
        level = str(event.level)
        with self._lock:
            self._level_ns.observe(event.duration_ns, level=level)
            self._level_splits.inc(event.splits, level=level)
            for stage, ns in event.stage_ns.items():
                self._stage_ns.inc(ns, level=level, stage=stage)

    def on_frame_done(self, event: FrameDone) -> None:
        """Fold a finished frame into totals and the latency histogram."""
        with self._lock:
            self._frames.inc(
                event.frames, engine=self._engine, mode=self._mode
            )
            self._deliveries.inc(event.deliveries * event.frames)
            self._splits.inc(event.splits * event.frames)
            self._switch_ops.inc(event.switch_ops * event.frames)
            self._frame_ns.observe(event.duration_ns, engine=self._engine)

    def on_cache_event(self, event: CacheEvent) -> None:
        """Count the cache outcome; track the cache population gauge."""
        with self._lock:
            self._cache_events.inc(1, kind=event.kind)
            self._cache_size.set(event.size)
            if event.kind == "coalesced":
                self._coalesced.inc(1)

    def on_queue_depth(self, event: QueueDepth) -> None:
        """Record the end-of-slot backlog and served count."""
        with self._lock:
            self._queue_depth.set(event.depth)
            self._queue_served.inc(event.served)

    def on_parallel(self, event: ParallelEvent) -> None:
        """Fold a worker-pool sample into the ``repro_parallel_*`` families."""
        with self._lock:
            self._parallel_workers.set(event.workers)
            self._parallel_busy.set(event.busy)
            self._compile_queue_depth.set(event.queue_depth)
            if event.action == "done":
                self._parallel_tasks.inc(1, kind=event.kind)

    def on_fault(self, event: FaultEvent) -> None:
        """Fold a fault-path event into the ``repro_faults_*`` families."""
        action = event.action
        with self._lock:
            if action == "injected":
                self._faults_injected.inc(1, kind=event.kind)
            elif action == "detected":
                self._faults_detected.inc(1)
            elif action == "retry":
                self._faults_retries.inc(1)
            elif action == "recovered":
                self._faults_recovered.inc(len(event.terminals))
            elif action == "lost":
                self._faults_lost.inc(len(event.terminals))
            elif action in _PLANE_STATES:
                if action == "quarantined":
                    self._faults_quarantines.inc(1)
                self._plane_state.set(_PLANE_STATES[action])

    def on_resilience(self, event: ResilienceEvent) -> None:
        """Fold an overload-layer event into the ``repro_resilience_*``
        families."""
        action = event.action
        with self._lock:
            if action == "admitted":
                self._res_admitted.inc(1, priority=str(event.priority))
            elif action == "shed":
                self._res_shed.inc(1, priority=str(event.priority))
            elif action == "deadline_expired":
                self._res_deadline_expired.inc(event.frames)
            elif action in _BREAKER_STATES:
                state = action[len("breaker_"):]
                self._res_breaker_transitions.inc(1, state=state)
                self._res_breaker_state.set(
                    _BREAKER_STATES[action], scope=event.scope
                )
            elif action == "short_circuit":
                self._res_short_circuits.inc(event.frames)
            elif action in (
                "snapshot_saved", "snapshot_restored", "snapshot_rejected"
            ):
                self._res_snapshot.inc(1, action=action)

    def on_cluster(self, event: ClusterEvent) -> None:
        """Fold a serving-tier event into the ``repro_cluster_*``
        families."""
        action = event.action
        with self._lock:
            if action in ("submitted", "requeued", "spillover"):
                self._cluster_frames.inc(
                    event.frames, replica=str(event.replica)
                )
                if action == "requeued":
                    self._cluster_requeues.inc(event.frames)
                elif action == "spillover":
                    self._cluster_spillovers.inc(event.frames)
            elif action == "shed":
                self._cluster_shed.inc(event.frames)
            elif action == "state":
                self._cluster_replica_state.set(
                    _REPLICA_STATES.get(event.state, 2),
                    replica=str(event.replica),
                )
                if event.up >= 0:
                    self._cluster_up.set(event.up)
            elif action == "readmit":
                self._cluster_restarts.inc(1)
            elif action == "killed":
                self._cluster_kills.inc(1)
            elif action == "restore":
                self._cluster_plans_warmed.inc(event.plans)

    def on_control(self, event: ControlEvent) -> None:
        """Fold a control-plane event into the ``repro_control_*``
        families."""
        with self._lock:
            if event.action == "tick":
                self._control_ticks.inc(1)
            elif event.action == "adjust":
                self._control_decisions.inc(
                    1, controller=event.controller, parameter=event.parameter
                )
                gauge = _CONTROL_GAUGES.get(event.parameter)
                if gauge is not None:
                    getattr(self, gauge).set(event.new)

    _engine = "unknown"
    _mode = "unknown"


_PLANE_STATES = {"readmitted": 0, "probation": 1, "quarantined": 2}
_REPLICA_STATES = {"up": 0, "draining": 1, "down": 2}
_BREAKER_STATES = {"breaker_closed": 0, "breaker_half_open": 1, "breaker_open": 2}
_CONTROL_GAUGES = {
    "rate": "_control_rate",
    "reserve": "_control_reserve",
    "depth": "_control_depth",
    "backoff_scale": "_control_backoff",
}
