"""The traced run's layer split: where spans go, and the per-layer
metrics computed from them.

Spans wrap the public calls between the program's layers (module names
under ``repro``): ``cluster``, ``core.serialization``, ``core.fabric``,
``core.brsmn``, ``core.fastplan``, ``core.verification``,
``core.arrivals``, ``faults.healing``, ``obs`` and
``resilience.snapshot``.  A layer a workload bypasses records no spans
and reports 0.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import repro.cluster.cluster as cluster_mod
import repro.core.arrivals as arrivals_mod
import repro.core.fabric as fabric_mod
import repro.core.fastplan as fastplan_mod
import repro.faults.healing as healing_mod
from repro import BRSMN, FabricCluster, FabricSnapshot, MulticastFabric, QueueingSimulator
from repro.cluster import ClusterRouter
from repro.core import FramePlan, PlanCache

from .spans import END, FRAME, NAME, START, VALUE, Tracer, self_times
from .stats import mean

# (metric, unit) in report order; every workload reports all of them.
LAYER_METRICS: List[Tuple[str, str]] = [
    ("cluster.submit.self_us", "us"),
    ("cluster.router.order_us", "us"),
    ("serialization.fingerprint.calls_per_frame", "1/frame"),
    ("serialization.fingerprint_us", "us"),
    ("fabric.submit.self_us", "us"),
    ("brsmn.route.self_us", "us"),
    ("brsmn.route.calls_per_frame", "1/frame"),
    ("fastplan.cache.hit_ratio", "ratio"),
    ("fastplan.cache.get_us", "us"),
    ("fastplan.compile.calls", "1/frame"),
    ("fastplan.compile_ms", "ms"),
    ("fastplan.apply_us", "us"),
    ("verification.calls_per_frame", "1/frame"),
    ("verification.verify_us", "us"),
    ("arrivals.run.self_ms_per_slot", "ms"),
    ("arrivals.backlog_mean", "requests"),
    ("healing.self_us", "us"),
    ("healing.attempts_per_call", "count"),
    ("healing.recovered_ratio", "ratio"),
    ("health.standby_share", "ratio"),
    ("health.quarantines", "1/kframe"),
    ("obs.events_per_frame", "1/frame"),
    ("obs.observer_us_per_frame", "us"),
    ("snapshot.restore_ms", "ms"),
    ("snapshot.restore.plans", "count"),
    ("trace.untraced.submit_p50_us", "us"),
    ("trace.traced.submit_p50_us", "us"),
    ("trace.untraced.frames_per_s", "1/s"),
    ("trace.traced.frames_per_s", "1/s"),
    ("trace.overhead_share", "ratio"),
    ("trace.self_time_share", "ratio"),
]


# Span names ``install`` records ("obs" stands for every ``obs.on_*``).
SPAN_NAMES = (
    "cluster.submit",
    "cluster.router.order",
    "serialization.fingerprint",
    "fabric.submit",
    "brsmn.route",
    "fastplan.cache.get",
    "fastplan.compile",
    "fastplan.apply",
    "verification.verify",
    "arrivals.run",
    "healing",
    "snapshot.restore",
    "obs",
)


def unreached(spans: List[tuple]) -> List[str]:
    """Span names never recorded, in set-up or window: the layers this
    workload bypasses."""
    seen = {s[NAME].split(".on_")[0] for s in spans}
    return [n for n in SPAN_NAMES if n not in seen]


def install(tracer: Tracer, observer=None) -> None:
    """Wrap every layer boundary; ``observer``'s ``on_*`` hooks too.

    ``PlanCache.get`` compiles through its ``compile_fn`` default on the
    plain path and through ``fastplan.compile_frame_plan`` (looked up at
    call time) when an observer or a fault plan is attached; both are
    wrapped.  The default must be swapped before ``get`` itself."""
    tracer.patch(FabricCluster, "submit", "cluster.submit")
    tracer.patch(ClusterRouter, "order", "cluster.router.order")
    tracer.patch(cluster_mod, "assignment_fingerprint", "serialization.fingerprint")
    tracer.patch(fastplan_mod, "assignment_fingerprint", "serialization.fingerprint")
    tracer.patch(MulticastFabric, "submit", "fabric.submit")
    tracer.patch(BRSMN, "route", "brsmn.route")
    tracer.patch_default(PlanCache.get, fastplan_mod.compile_frame_plan, "fastplan.compile")
    tracer.patch(fastplan_mod, "compile_frame_plan", "fastplan.compile")
    tracer.patch(PlanCache, "get", "fastplan.cache.get", value=lambda r: r[1])
    tracer.patch(FramePlan, "apply", "fastplan.apply")
    tracer.patch(fabric_mod, "verify_result", "verification.verify")
    tracer.patch(arrivals_mod, "verify_result", "verification.verify")
    tracer.patch(healing_mod, "verify_delivery", "verification.verify")
    tracer.patch(QueueingSimulator, "run", "arrivals.run", value=lambda r: r.slots_run)
    tracer.patch(healing_mod, "route_with_healing", "healing", value=lambda r: r.attempts)
    tracer.patch(FabricSnapshot, "restore", "snapshot.restore", value=int)
    if observer is not None:
        for hook in sorted(h for h in dir(observer) if h.startswith("on_")):
            tracer.patch(observer, hook, f"obs.{hook}")


class SpanTable:
    """Spans grouped by name: calls, durations and self times (ns)."""

    def __init__(self, spans: List[tuple], window_only: bool):
        selfs = self_times(spans)
        self.calls: Dict[str, int] = defaultdict(int)
        self.dur: Dict[str, List[int]] = defaultdict(list)
        self.self: Dict[str, List[int]] = defaultdict(list)
        self.values: Dict[str, list] = defaultdict(list)
        for span, own in zip(spans, selfs):
            if window_only and span[FRAME] < 0:
                continue
            name = span[NAME]
            self.calls[name] += 1
            self.dur[name].append(span[END] - span[START])
            self.self[name].append(own)
            self.values[name].append(span[VALUE])

    def names(self, prefix: str) -> List[str]:
        return [n for n in self.calls if n.startswith(prefix)]


def layer_metrics(
    spans: List[tuple],
    frames: int,
    busy_ns: int,
    health: Optional[Dict[str, int]] = None,
    backlog_mean: float = 0.0,
) -> Dict[str, float]:
    """Per-layer metrics of one traced window.

    ``frames`` counts routed frames (submits, or non-empty slots);
    ``busy_ns`` is the window's host time inside the program.  Compile
    and snapshot figures include the traced set-up (spans with frame
    id -1); everything else covers the window only."""
    w = SpanTable(spans, window_only=True)
    every = SpanTable(spans, window_only=False)
    per_frame = 1.0 / frames if frames else 0.0
    us = lambda ns: [v / 1e3 for v in ns]  # noqa: E731
    hits = w.values["fastplan.cache.get"]
    slots = sum(w.values["arrivals.run"])
    obs = w.names("obs.")
    health = health or {}
    recovered, lost = health.get("recovered_terminals", 0), health.get("lost_terminals", 0)
    return {
        "cluster.submit.self_us": mean(us(w.self["cluster.submit"])),
        "cluster.router.order_us": mean(us(w.dur["cluster.router.order"])),
        "serialization.fingerprint.calls_per_frame": w.calls["serialization.fingerprint"] * per_frame,
        "serialization.fingerprint_us": mean(us(w.dur["serialization.fingerprint"])),
        "fabric.submit.self_us": mean(us(w.self["fabric.submit"])),
        "brsmn.route.self_us": mean(us(w.self["brsmn.route"])),
        "brsmn.route.calls_per_frame": w.calls["brsmn.route"] * per_frame,
        "fastplan.cache.hit_ratio": mean([1.0 if h else 0.0 for h in hits]),
        "fastplan.cache.get_us": mean(us(w.self["fastplan.cache.get"])),
        "fastplan.compile.calls": w.calls["fastplan.compile"] * per_frame,
        "fastplan.compile_ms": mean(us(every.dur["fastplan.compile"])) / 1e3,
        "fastplan.apply_us": mean(us(w.dur["fastplan.apply"])),
        "verification.calls_per_frame": w.calls["verification.verify"] * per_frame,
        "verification.verify_us": mean(us(w.dur["verification.verify"])),
        "arrivals.run.self_ms_per_slot": (
            sum(w.self["arrivals.run"]) / 1e6 / slots if slots else 0.0
        ),
        "arrivals.backlog_mean": backlog_mean,
        "healing.self_us": mean(us(w.self["healing"])),
        "healing.attempts_per_call": mean(w.values["healing"]),
        "healing.recovered_ratio": recovered / (recovered + lost) if recovered + lost else 0.0,
        "health.standby_share": health.get("standby_frames", 0) * per_frame,
        "health.quarantines": health.get("quarantines", 0) * per_frame * 1e3,
        "obs.events_per_frame": sum(w.calls[n] for n in obs) * per_frame,
        "obs.observer_us_per_frame": sum(sum(w.dur[n]) for n in obs) / 1e3 * per_frame,
        "snapshot.restore_ms": mean(us(every.dur["snapshot.restore"])) / 1e3,
        "snapshot.restore.plans": float(sum(every.values["snapshot.restore"])),
        "trace.self_time_share": sum(sum(v) for v in w.self.values()) / busy_ns if busy_ns else 0.0,
    }


def split_table(spans: List[tuple], frames: int, busy_ns: int) -> List[str]:
    """Human-readable layer split of the traced window: per span name,
    calls per frame, mean self time and share of the window's time."""
    w = SpanTable(spans, window_only=True)
    rows = sorted(w.calls, key=lambda n: -sum(w.self[n]))
    lines = [f"{'span':32} {'calls/frame':>11} {'self us':>9} {'share':>7}"]
    for name in rows:
        total = sum(w.self[name])
        lines.append(
            f"{name:32} {w.calls[name] / frames:11.3f} "
            f"{total / 1e3 / w.calls[name]:9.2f} {total / busy_ns:7.1%}"
        )
    return lines
