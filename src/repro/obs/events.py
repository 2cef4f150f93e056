"""Lifecycle events and the observer protocol of the routing stack.

An observer has one hook, :meth:`Observer.on_event`, and every event
is a frozen dataclass of this module.  Emission sites hand each event
to :func:`emit`, which calls ``observer.on_event(event)`` and keeps a
raising observer off the data path (the exception is counted in
``observer.errors``).  Subscribers dispatch on ``type(event)`` and
ignore the classes they do not fold, so adding an event means adding
one class here.

The events, by emitter:

* :class:`FrameStart`, :class:`LevelSpan`, :class:`FrameDone` — a
  frame's lifecycle through ``BRSMN.route`` / ``route_batch``: entry,
  one per-stage profiling span (``perf_counter_ns``) per recursion
  level, exit with end-to-end latency;
* :class:`CacheEvent` — the :class:`~repro.core.fastplan.PlanCache`
  answered a lookup (hit / miss / coalesced), evicted or cleared;
* :class:`QueueDepth` — end-of-slot samples from the
  :class:`~repro.core.arrivals.QueueingSimulator`;
* :class:`FaultEvent` — fault injection and self-healing
  (:mod:`repro.faults`): injections that touched traffic, detected
  casualties, retries, recoveries, losses, plane transitions;
* :class:`ParallelEvent` — the worker pool and compile-ahead pipeline
  (:mod:`repro.parallel`);
* :class:`ResilienceEvent` — admission decisions, deadline expiries,
  breaker transitions and warm-restart snapshots
  (:mod:`repro.resilience`);
* :class:`ControlEvent` — control ticks and actuator adjustments
  (:mod:`repro.control`);
* :class:`ClusterEvent` — placement, requeues, spill-overs, replica
  state and rolling restarts (:mod:`repro.cluster`).

Observation is strictly pay-for-what-you-use: every emission site is
gated on ``observer is not None and observer.enabled`` before it builds
the event, so routing with no observer costs one attribute test per
frame, and the :class:`NullSink` (``enabled = False``) costs exactly
the same — it exists so callers can wire the plumbing unconditionally
and flip collection on without touching call sites.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from typing import Dict, Tuple

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
    "emit",
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


_log = logging.getLogger(__name__)
_errors_lock = threading.Lock()

_REMOVED_HOOKS = frozenset({
    "on_frame_start", "on_level", "on_frame_done", "on_cache_event",
    "on_queue_depth", "on_fault", "on_parallel", "on_resilience",
    "on_control", "on_cluster",
})


class Observer:
    """Base observer: override :meth:`on_event` and dispatch on
    ``type(event)``.

    Attributes:
        enabled: emission gate — sites skip all event construction when
            False, so a disabled observer costs one attribute test per
            frame.
        errors: exceptions :meth:`on_event` raised; :func:`emit` counts
            and drops them so the data path never sees them.
    """

    enabled: bool = True
    errors: int = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        stale = sorted(_REMOVED_HOOKS.intersection(vars(cls)))
        if stale:
            raise TypeError(
                f"{cls.__qualname__} defines {', '.join(stale)}: the "
                "per-kind hooks were replaced by on_event(event); "
                "dispatch on type(event) there"
            )

    def on_event(self, event) -> None:
        """Receive one event (any event class of this module)."""


def emit(observer: Observer, event) -> None:
    """Deliver ``event`` to ``observer.on_event``, isolating failures.

    The caller gates on ``observer is not None and observer.enabled``
    before it builds the event.  An ``Exception`` raised by the hook is
    counted in ``observer.errors`` and dropped (the first one per
    observer is logged with its traceback), so a broken observer never
    breaks routing or leaves session statistics half-updated.
    """
    try:
        observer.on_event(event)
    except Exception:
        with _errors_lock:  # pool threads emit too
            observer.errors = getattr(observer, "errors", 0) + 1
            first = observer.errors == 1
        if first:
            _log.warning(
                "%r raised in on_event; further failures are only "
                "counted in its errors attribute", observer, exc_info=True,
            )


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

    Each leg gets the event through :func:`emit`, so a leg that raises
    is counted in its own ``errors`` and the later legs still see the
    event.

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

    def on_event(self, event) -> None:
        for o in self.observers:
            emit(o, event)
