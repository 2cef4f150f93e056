"""Tracing subscriber: record the event stream, reconstruct timelines.

:class:`TracingObserver` appends every lifecycle event to one ordered
list, preserving the emission order the routing stack guarantees
(``FrameStart`` < cache / level events < ``FrameDone`` per frame).
From that list it reconstructs :class:`FrameTimeline` objects — one per
routed frame, with the frame's level spans in level order — which is
what per-stage performance analysis actually consumes (cf. the
per-stage throughput/latency methodology of wormhole-MIN studies).

This observer allocates per event; attach it for analysis runs, not in
the steady-state hot path (that is what
:class:`~repro.obs.events.NullSink` and
:class:`~repro.obs.metrics_observer.MetricsObserver` are for).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .events import (
    CacheEvent,
    FrameDone,
    FrameStart,
    LevelSpan,
    Observer,
    QueueDepth,
)

__all__ = ["FrameTimeline", "TracingObserver"]


@dataclass
class FrameTimeline:
    """The reconstructed event timeline of one routed frame.

    Attributes:
        start: the frame's :class:`~repro.obs.events.FrameStart`.
        levels: the frame's level spans, in emission order.
        done: the frame's :class:`~repro.obs.events.FrameDone` (None if
            the frame raised mid-route).
        cache_events: plan-cache events observed during the frame.
    """

    start: FrameStart
    levels: List[LevelSpan] = field(default_factory=list)
    done: Optional[FrameDone] = None
    cache_events: List[CacheEvent] = field(default_factory=list)

    @property
    def duration_ns(self) -> int:
        """End-to-end latency of the frame (0 while unfinished)."""
        return self.done.duration_ns if self.done is not None else 0

    def stage_ns(self) -> Dict[str, int]:
        """Total nanoseconds per stage name across all levels."""
        totals: Dict[str, int] = {}
        for span in self.levels:
            for stage, ns in span.stage_ns.items():
                totals[stage] = totals.get(stage, 0) + ns
        return totals


class TracingObserver(Observer):
    """Record every event; reconstruct per-frame timelines on demand."""

    def __init__(self):
        self.events: List[object] = []
        self.queue_samples: List[QueueDepth] = []
        self._sinks = {
            FrameStart: self.events,
            LevelSpan: self.events,
            FrameDone: self.events,
            CacheEvent: self.events,
            QueueDepth: self.queue_samples,
        }

    def on_event(self, event) -> None:
        """Record lifecycle and cache events in :attr:`events`, queue
        samples in :attr:`queue_samples`; ignore the other kinds."""
        sink = self._sinks.get(type(event))
        if sink is not None:
            sink.append(event)

    def clear(self) -> None:
        """Drop everything recorded so far."""
        self.events.clear()
        self.queue_samples.clear()

    def timelines(self) -> List[FrameTimeline]:
        """Group the event stream into per-frame timelines.

        Events between a frame's start and done markers — level spans
        carrying the frame id, cache events (which carry none) — attach
        to that frame; the list is ordered by frame start.
        """
        out: List[FrameTimeline] = []
        open_frames: Dict[int, FrameTimeline] = {}
        last_started: Optional[int] = None
        for event in self.events:
            if isinstance(event, FrameStart):
                tl = FrameTimeline(start=event)
                out.append(tl)
                open_frames[event.frame_id] = tl
                last_started = event.frame_id
            elif isinstance(event, LevelSpan):
                tl = open_frames.get(event.frame_id)
                if tl is not None:
                    tl.levels.append(event)
            elif isinstance(event, FrameDone):
                tl = open_frames.pop(event.frame_id, None)
                if tl is not None:
                    tl.done = event
            elif isinstance(event, CacheEvent):
                if last_started is not None and last_started in open_frames:
                    open_frames[last_started].cache_events.append(event)
        return out

    def timeline(self, frame_id: int) -> Optional[FrameTimeline]:
        """The timeline of one frame id (None if never started)."""
        for tl in self.timelines():
            if tl.start.frame_id == frame_id:
                return tl
        return None
