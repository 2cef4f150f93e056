"""Lifecycle events and the observer protocol of the routing stack.

The routing stack (``MulticastFabric.submit``, ``BRSMN.route`` /
``route_batch``, the :mod:`~repro.core.fastplan` compiler and its
:class:`~repro.core.fastplan.PlanCache`) emits four kinds of events to
an attached :class:`Observer`:

* :class:`FrameStart` — a frame (or payload batch) enters the network;
* :class:`LevelSpan` — one BRSMN recursion level finished, with
  per-stage wall-clock spans (``perf_counter_ns``) and the level's
  split / switch-operation counts;
* :class:`FrameDone` — the frame left the network, with end-to-end
  latency;
* :class:`CacheEvent` — the plan cache answered a lookup (hit / miss)
  or evicted a compiled plan;

plus :class:`QueueDepth` samples from the
:class:`~repro.core.arrivals.QueueingSimulator` slot loop,
:class:`FaultEvent` notifications from the fault-injection / healing
layer (:mod:`repro.faults`): injections that touched traffic, detected
casualties, retries, recoveries, losses and plane quarantine
transitions, and :class:`ParallelEvent` samples from the compile-ahead
pipeline (:mod:`repro.parallel`): compile task lifecycle, pool
utilisation and compile-queue depth.  The single-flight plan cache
additionally reuses :class:`CacheEvent` with ``kind="coalesced"`` for
lookups that piggybacked on another thread's in-flight compilation.
The overload-resilience layer (:mod:`repro.resilience`) emits
:class:`ResilienceEvent` samples: admission decisions, deadline
expiries, circuit-breaker transitions and warm-restart snapshots.
The adaptive control plane (:mod:`repro.control`) emits :class:`ControlEvent`
samples: one per control tick plus one per actuator adjustment.  The
multi-replica serving tier (:mod:`repro.cluster`) emits
:class:`ClusterEvent` samples: per-replica frame placement, requeues
after a replica death, admission spill-overs, replica state
transitions and rolling-restart lifecycle (drain / snapshot /
warm-restore / re-admit).

Observation is strictly pay-for-what-you-use: every emission site is
gated on ``observer is not None and observer.enabled``, so routing with
no observer costs one attribute test per frame, and the
:class:`NullSink` (``enabled = False``) costs exactly the same — it
exists so callers can wire the plumbing unconditionally and flip
collection on without touching call sites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = [
    "FrameStart",
    "LevelSpan",
    "FrameDone",
    "CacheEvent",
    "QueueDepth",
    "FaultEvent",
    "ParallelEvent",
    "ResilienceEvent",
    "ControlEvent",
    "ClusterEvent",
    "Observer",
    "NullSink",
    "CompositeObserver",
]


@dataclass(frozen=True)
class FrameStart:
    """A frame (or shared-assignment payload batch) entered the network.

    Attributes:
        frame_id: per-network monotonically increasing frame number.
        n: network size.
        engine: ``"reference"`` or ``"fast"``.
        mode: routing mode (``"oracle"`` / ``"selfrouting"``).
        frames: payload frames in this submission (1 for ``route``,
            the batch size for ``route_batch``).
        active_inputs: inputs injecting a message.
        fanout: total destinations requested by the assignment.
        t_ns: ``perf_counter_ns`` timestamp of the emission.
    """

    frame_id: int
    n: int
    engine: str
    mode: str
    frames: int = 1
    active_inputs: int = 0
    fanout: int = 0
    t_ns: int = 0


@dataclass(frozen=True)
class LevelSpan:
    """One BRSMN recursion level completed (profiling span).

    On the fast engine the span covers compiling the level into its
    gather (stages ``tag`` / ``scatter`` / ``quasisort`` / ``gather``);
    on the reference engine it covers the level's per-switch BSN
    simulation (stage ``bsn``, or ``deliver`` for the final 2x2 level).

    Attributes:
        frame_id: the frame whose routing produced this span.
        level: 1-based level index (level 1 = the full-size BSN layer).
        size: sub-network size at this level (``n / 2**(level-1)``).
        blocks: side-by-side sub-networks at this level.
        splits: alpha splits performed across the level.
        switch_ops: 2x2 switch applications across the level.
        stage_ns: wall-clock nanoseconds per named stage.
        duration_ns: total wall-clock nanoseconds of the level.
        engine: engine that produced the span.
    """

    frame_id: int
    level: int
    size: int
    blocks: int
    splits: int = 0
    switch_ops: int = 0
    stage_ns: Dict[str, int] = field(default_factory=dict)
    duration_ns: int = 0
    engine: str = "reference"


@dataclass(frozen=True)
class FrameDone:
    """A frame (or payload batch) left the network.

    Attributes:
        frame_id: matches the :class:`FrameStart` of the submission.
        deliveries: (output, message) deliveries of one frame.
        frames: payload frames routed in this submission.
        splits: alpha splits per frame.
        switch_ops: 2x2 switch applications per frame.
        duration_ns: end-to-end wall-clock nanoseconds of the
            submission.
        cache_hit: fast engine — True / False for plan-cache hit /
            miss; None on the reference engine.
        t_ns: ``perf_counter_ns`` timestamp of the emission.
    """

    frame_id: int
    deliveries: int
    frames: int = 1
    splits: int = 0
    switch_ops: int = 0
    duration_ns: int = 0
    cache_hit: object = None
    t_ns: int = 0


@dataclass(frozen=True)
class CacheEvent:
    """The plan cache answered a lookup or evicted an entry.

    Attributes:
        kind: ``"hit"``, ``"miss"``, ``"evict"``, ``"clear"`` or
            ``"coalesced"`` (a lookup that waited on another thread's
            in-flight compilation of the same key instead of compiling
            again).
        key: the assignment fingerprint involved (empty on ``clear``).
        size: cached plans after the event.
        t_ns: ``perf_counter_ns`` timestamp of the emission.
    """

    kind: str
    key: str = ""
    size: int = 0
    t_ns: int = 0


@dataclass(frozen=True)
class QueueDepth:
    """End-of-slot backlog sample from the queueing simulator.

    Attributes:
        slot: frame slot index.
        depth: backlog size at the end of the slot.
        served: requests served during the slot.
    """

    slot: int
    depth: int
    served: int = 0


@dataclass(frozen=True)
class FaultEvent:
    """Something happened on the fault-injection / self-healing path.

    Attributes:
        action: ``"injected"`` (a fault touched traffic),
            ``"detected"`` (verification found casualties),
            ``"retry"`` (a repair pass started), ``"recovered"``
            (terminals healed), ``"lost"`` (terminals abandoned), or a
            plane transition — ``"quarantined"`` / ``"probation"`` /
            ``"readmitted"``.
        kind: fault kind for ``"injected"`` events (empty otherwise).
        level: fault plane for ``"injected"`` events (0 otherwise).
        index: faulty cell index for ``"injected"`` events (-1
            otherwise).
        frame_id: frame involved, when known.
        attempt: routing attempt number the event belongs to.
        terminals: affected terminal outputs.
        t_ns: ``perf_counter_ns`` timestamp of the emission.
    """

    action: str
    kind: str = ""
    level: int = 0
    index: int = -1
    frame_id: int = -1
    attempt: int = 0
    terminals: Tuple[int, ...] = ()
    t_ns: int = 0


@dataclass(frozen=True)
class ParallelEvent:
    """A worker-pool or compile-ahead lifecycle sample.

    Emitted by :mod:`repro.parallel` whenever a task starts or
    finishes on the pool, or the compile-ahead pipeline enqueues /
    drops a prefetch compilation.  Gauge-like fields (``busy``,
    ``queue_depth``) carry the value *after* the event, so a metrics
    observer can mirror them directly.

    Attributes:
        action: ``"start"`` (a task began running on a worker),
            ``"done"`` (it finished), ``"enqueue"`` (the compile-ahead
            pipeline accepted a prefetch) or ``"drop"`` (the prefetch
            was declined: queue full, already cached or in flight).
        kind: task family — ``"compile"`` (a plan compilation).
        workers: configured worker-pool size.
        busy: workers running a task after this event.
        queue_depth: compile-ahead prefetches pending after this event.
        t_ns: ``perf_counter_ns`` timestamp of the emission.
    """

    action: str
    kind: str = ""
    workers: int = 0
    busy: int = 0
    queue_depth: int = 0
    t_ns: int = 0


@dataclass(frozen=True)
class ResilienceEvent:
    """Something happened on the overload-resilience path.

    Emitted by the :mod:`repro.resilience` layer (admission gate,
    circuit breaker, deadline budget, warm restart) so overload
    behaviour shows up in the same observer stream — and the same
    ``repro_resilience_*`` metric families — as ordinary routing.

    Attributes:
        action: ``"admitted"`` / ``"shed"`` (admission decisions),
            ``"deadline_expired"`` (a budget ran out mid-serve),
            ``"breaker_open"`` / ``"breaker_half_open"`` /
            ``"breaker_closed"`` (circuit-breaker transitions),
            ``"short_circuit"`` (a call denied by an open breaker), or
            ``"snapshot_saved"`` / ``"snapshot_restored"`` /
            ``"snapshot_rejected"`` (warm restart; a rejected snapshot
            was unreadable or did not match the fabric, which then
            started cold).
        scope: which guarded resource the event concerns (a breaker's
            scope label, empty elsewhere).
        priority: admission events — the frame's priority class.
        frames: frames covered by the event (1 per decision).
        tokens: admission events — bucket level after the decision.
        queue_depth: admission events — backlog depth at the decision.
        t_ns: ``perf_counter_ns`` timestamp of the emission.
    """

    action: str
    scope: str = ""
    priority: int = 0
    frames: int = 1
    tokens: float = 0.0
    queue_depth: int = 0
    t_ns: int = 0


@dataclass(frozen=True)
class ControlEvent:
    """The adaptive control plane ticked or adjusted an actuator.

    Emitted by :class:`~repro.control.plane.ControlPlane`: one
    ``action="tick"`` event per control tick plus one
    ``action="adjust"`` event per actuator change a controller decided
    on.  Adjustments mirror the entries of the plane's decision log —
    minus ``t_ns``, which is wall-clock and therefore excluded from
    the replayable log by design.

    Attributes:
        action: ``"tick"`` (a control tick fired) or ``"adjust"`` (an
            actuator parameter changed).
        controller: the deciding loop (``"admission"``,
            ``"compile_ahead"``, ``"workers"``, ``"backoff"``; empty
            on ticks).
        parameter: the adjusted knob (``"rate"``, ``"reserve"``,
            ``"depth"``, ``"worker_target"``, ``"backoff_scale"``;
            empty on ticks).
        old: the knob's value before the adjustment.
        new: the value the controller set.
        reason: deterministic cause tag (``"backlog"``,
            ``"high_priority_shed"``, ``"spare_capacity"``,
            ``"drop_rate"``, ``"idle"``, ``"drained"``,
            ``"breaker_half_open"``, ``"breaker_recovered"``).
        tick: the control tick the decision belongs to (1-based).
        t_ns: ``perf_counter_ns`` timestamp of the emission.
    """

    action: str
    controller: str = ""
    parameter: str = ""
    old: float = 0.0
    new: float = 0.0
    reason: str = ""
    tick: int = 0
    t_ns: int = 0


@dataclass(frozen=True)
class ClusterEvent:
    """The multi-replica serving tier placed, moved or restarted work.

    Emitted by :class:`~repro.cluster.cluster.FabricCluster` and
    :class:`~repro.cluster.restart.RollingRestart` so multi-replica
    behaviour shows up in the same observer stream — and the new
    ``repro_cluster_*`` metric families — as single-fabric routing.

    Attributes:
        action: ``"submitted"`` (a frame was served by its placed
            replica), ``"requeued"`` (a frame's home replica died
            between placement and service; the frame was requeued —
            exactly once — to a sibling), ``"spillover"`` (the home
            replica's admission gate shed the frame and a sibling
            served it instead), ``"shed"`` (every candidate shed the
            frame — it never routed), ``"state"`` (a replica changed
            lifecycle state; see ``state``), ``"drain"`` /
            ``"snapshot"`` / ``"restore"`` / ``"readmit"`` (rolling
            restart phases), or ``"killed"`` (a replica was torn down
            without a drain).
        replica: index of the replica concerned (-1 when none, e.g. a
            fully shed frame).
        state: for ``"state"`` events, the replica's new lifecycle
            state (``"up"`` / ``"draining"`` / ``"down"``); empty
            otherwise.
        frames: frames covered by the event (1 per placement decision).
        plans: warm-restored plans (``"restore"`` events only).
        up: replicas accepting new placements after this event
            (``"state"`` events only; -1 otherwise).
        t_ns: ``perf_counter_ns`` timestamp of the emission.
    """

    action: str
    replica: int = -1
    state: str = ""
    frames: int = 1
    plans: int = 0
    up: int = -1
    t_ns: int = 0


class Observer:
    """Base observer: every hook is a no-op; subclass what you need.

    Attributes:
        enabled: emission gate — sites skip all event construction when
            False, so a disabled observer costs one attribute test per
            frame.
    """

    enabled: bool = True

    def on_frame_start(self, event: FrameStart) -> None:
        """A frame entered the network."""

    def on_level(self, event: LevelSpan) -> None:
        """A recursion level completed (profiling span)."""

    def on_frame_done(self, event: FrameDone) -> None:
        """A frame left the network."""

    def on_cache_event(self, event: CacheEvent) -> None:
        """The plan cache hit, missed, evicted or cleared."""

    def on_queue_depth(self, event: QueueDepth) -> None:
        """The queueing simulator finished a slot."""

    def on_fault(self, event: FaultEvent) -> None:
        """The fault-injection / healing layer reported an event."""

    def on_parallel(self, event: ParallelEvent) -> None:
        """The worker pool / compile-ahead pipeline reported an event."""

    def on_resilience(self, event: ResilienceEvent) -> None:
        """The overload-resilience layer reported an event."""

    def on_control(self, event: ControlEvent) -> None:
        """The adaptive control plane ticked or adjusted an actuator."""

    def on_cluster(self, event: ClusterEvent) -> None:
        """The multi-replica serving tier reported an event."""


class NullSink(Observer):
    """A do-nothing observer that keeps every emission site dormant.

    ``enabled = False`` short-circuits all event construction; routing
    with a :class:`NullSink` attached is benchmarked to stay within 5%
    of routing with no observer at all
    (``benchmarks/bench_fast_engine.py``).
    """

    enabled = False


class CompositeObserver(Observer):
    """Fan one event stream out to several observers.

    Args:
        *observers: the observers to notify, in order.  Disabled
            observers are dropped at construction; the composite itself
            is disabled when nothing remains.
    """

    def __init__(self, *observers: Observer):
        self.observers: Tuple[Observer, ...] = tuple(
            o for o in observers if o is not None and o.enabled
        )
        self.enabled = bool(self.observers)

    def on_frame_start(self, event: FrameStart) -> None:
        for o in self.observers:
            o.on_frame_start(event)

    def on_level(self, event: LevelSpan) -> None:
        for o in self.observers:
            o.on_level(event)

    def on_frame_done(self, event: FrameDone) -> None:
        for o in self.observers:
            o.on_frame_done(event)

    def on_cache_event(self, event: CacheEvent) -> None:
        for o in self.observers:
            o.on_cache_event(event)

    def on_queue_depth(self, event: QueueDepth) -> None:
        for o in self.observers:
            o.on_queue_depth(event)

    def on_fault(self, event: FaultEvent) -> None:
        for o in self.observers:
            o.on_fault(event)

    def on_parallel(self, event: ParallelEvent) -> None:
        for o in self.observers:
            o.on_parallel(event)

    def on_resilience(self, event: ResilienceEvent) -> None:
        for o in self.observers:
            o.on_resilience(event)

    def on_control(self, event: ControlEvent) -> None:
        for o in self.observers:
            o.on_control(event)

    def on_cluster(self, event: ClusterEvent) -> None:
        for o in self.observers:
            o.on_cluster(event)
