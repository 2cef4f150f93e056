"""The three serving workloads: inputs, set-up, timed window and checks.

Each workload drives the program only through public calls, single
threaded, with the default ``workers=1`` and no ``compile_ahead``.
``README.md`` beside this file says why each one exists and which
layers it loads or bypasses.

A workload object is built from a seed (all inputs are drawn then) and
offers:

* ``setup()`` — build one warm instance (the part timed as ``setup_s``);
* ``window(inst, seconds, tracer)`` — the timed closed or open loop;
  it always covers the first ``PREFIX`` frames (or chunks), whose
  deterministic outputs become ``Window.prefix``;
* ``check(window, out)`` — every timed result against its input;
* ``replay(inst, window, out)`` — the prefix again on another instance;
* ``oracle(inst, out)`` — a sample re-routed on ``engine="reference"``.
"""

from __future__ import annotations

import traceback
from array import array
from itertools import islice
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Dict, List, Optional

from repro import (
    BRSMN,
    ClusterConfig,
    FabricCluster,
    FabricSnapshot,
    MetricsObserver,
    MulticastAssignment,
    MulticastFabric,
    NetworkConfig,
    QueueingSimulator,
)
from repro.core import Arrival, Request
from repro.core.serialization import assignment_fingerprint
from repro.faults import Fault, FaultKind, FaultPlan, RetryPolicy, route_with_healing

from . import inputs
from .spans import Tracer

N = inputs.N
SEQUENCE = 8192  # frame-sequence period of the closed-loop workloads


@dataclass
class Checks:
    """Failures found by the benchmark's own checks."""

    failures: List[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


@dataclass
class Window:
    """What one timed window measured and produced.

    ``busy_ns`` is the host time spent inside the program's calls (the
    benchmark's own bookkeeping between calls is excluded);
    ``latency_us`` holds one sample per routed frame.  Closed loops
    record, per frame, the pool index, the id of the delivery key in
    ``keys`` (-1: the call raised) and whether the primary (faulted)
    plane served it, in compact arrays so memory does not grow with
    speed; ``chunks`` holds the open loop's per-chunk outcome.
    ``failed`` and ``lossy_frames`` are completed by the workload's
    ``check``."""

    frames: int = 0
    requests: int = 0
    busy_ns: int = 0
    latency_us: array = field(default_factory=lambda: array("d"))
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    pool_index: array = field(default_factory=lambda: array("H"))
    key_id: array = field(default_factory=lambda: array("i"))
    on_primary: array = field(default_factory=lambda: array("b"))
    keys: Dict[bytes, int] = field(default_factory=dict)
    chunks: list = field(default_factory=list)
    prefix: object = None
    before: Dict[str, int] = field(default_factory=dict)
    after: Dict[str, int] = field(default_factory=dict)
    lossy_frames: int = 0

    def records(self, limit: Optional[int] = None):
        """``(pool index, key id, on primary)`` per frame."""
        return list(islice(zip(self.pool_index, self.key_id, self.on_primary), limit))

    def delivered(self) -> List[bytes]:
        """Distinct delivery keys, indexed by the ids in ``records``."""
        return list(self.keys)

    def delta(self) -> Dict[str, int]:
        """Change of the instance's counters over the window."""
        return {k: self.after[k] - self.before[k] for k in self.after}


def delivery_key(outputs) -> bytes:
    """The source delivered at every output (-1: none), packed."""
    return array("h", [-1 if m is None else m.source for m in outputs]).tobytes()


def expected_key(assignment: MulticastAssignment) -> bytes:
    inverse = assignment.inverse_map()
    return array("h", [inverse.get(o, -1) for o in range(assignment.n)]).tobytes()


def delivery_map(outputs) -> Dict[int, tuple]:
    """``{output: (source, payload)}`` — the comparison the reference
    engine is the oracle for (full ``Message`` equality is too strict:
    reference messages keep residual tag streams)."""
    return {o: (m.source, m.payload) for o, m in enumerate(outputs) if m is not None}


def _error(window: Window, exc: BaseException, failed: int = 1) -> None:
    """Count a call that raised (``failed`` operations lost with it)."""
    window.failed += failed
    if len(window.errors) < 3:
        window.errors.append("".join(traceback.format_exception_only(type(exc), exc)).strip())


class Workload:
    """Defaults shared by the three workloads."""

    name: str
    shape: dict
    inputs: dict

    def observer_of(self, inst):
        """The observer whose hooks the traced run wraps, if any."""
        return None

    def attempted(self, w: Window) -> int:
        return w.frames

    def layer_inputs(self, w: Window) -> dict:
        """Extra inputs of :func:`servebench.layers.layer_metrics`."""
        return {}

    def describe(self, w: Window) -> List[str]:
        """Workload-specific lines of the human-readable report."""
        return []

    def units(self, w: Window):
        """``(busy_ns, frames, requests, latency samples)`` per timed
        call, in order, for :func:`servebench.stats.segments`."""
        raise NotImplementedError


class ClosedLoop(Workload):
    """The timed loop shared by the closed-loop workloads: one caller, one
    ``submit`` per frame, frames drawn from a recurring pool by
    ``self.sequence``."""

    PREFIX = 256
    MEAN_HOLD = 8.0  # frames an assignment is held for, on average
    pool: List[MulticastAssignment]
    sequence: List[int]

    def snapshot_stats(self, inst) -> Dict[str, int]:
        raise NotImplementedError

    def window(self, inst, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        w = Window(before=self.snapshot_stats(inst))
        pool, seq = self.pool, self.sequence
        requests = [len(a.active_inputs) for a in pool]
        keys, lat = w.keys, w.latency_us
        deadline = perf_counter_ns() + int(seconds * 1e9)
        i = 0
        while i < self.PREFIX or perf_counter_ns() < deadline:
            k = seq[i % len(seq)]
            if tracer is not None:
                tracer.frame = i
            t0 = perf_counter_ns()
            try:
                result = inst.submit(pool[k])
            except Exception as exc:  # counted and reported; the loop goes on
                t1 = perf_counter_ns()
                _error(w, exc)
                kid, primary = -1, False
            else:
                t1 = perf_counter_ns()
                kid = keys.setdefault(delivery_key(result.outputs), len(keys))
                primary = hasattr(result, "outcomes")  # a DegradedResult
            w.pool_index.append(k)
            w.key_id.append(kid)
            w.on_primary.append(primary)
            w.busy_ns += t1 - t0
            lat.append((t1 - t0) / 1e3)
            w.requests += requests[k]
            i += 1
            if i == self.PREFIX:
                w.prefix = self.prefix_outputs(inst)
        if tracer is not None:
            tracer.frame = -1
        w.frames = i
        w.after = self.snapshot_stats(inst)
        return w

    def prefix_outputs(self, inst) -> dict:
        raise NotImplementedError

    def units(self, w: Window):
        requests = [len(a.active_inputs) for a in self.pool]
        for k, lat in zip(w.pool_index, w.latency_us):
            yield lat * 1e3, 1, requests[k], (lat,)

    def replay(self, inst, window: Window, out: Checks) -> None:
        """Route the prefix again on a second instance; its outputs must
        match the timed window's exactly."""
        w = self.window(inst, 0.0)
        out.expect(w.prefix == window.prefix, f"{self.name}: replayed prefix differs")
        mine, theirs = w.delivered(), window.delivered()
        same = all(
            a[0] == b[0] and a[2] == b[2] and min(a[1], b[1]) >= 0 and mine[a[1]] == theirs[b[1]]
            for a, b in zip(w.records(self.PREFIX), window.records(self.PREFIX))
        )
        out.expect(same, f"{self.name}: replayed prefix deliveries differ")


class ClusterWarm(ClosedLoop):
    """``FabricCluster``: 4 replicas, n=256, fast engine, one shared
    ``MetricsObserver``, a pool of 64 hotspot assignments held for
    geometric runs (mean 8); every replica warmed by snapshot restore
    of the pool members it is home for."""

    name = "cluster_warm"
    REPLICAS = 4
    POOL = 64

    shape = {"n": N, "replicas": REPLICAS, "pool": POOL, "mean_hold": ClosedLoop.MEAN_HOLD}

    def __init__(self, seed: int):
        rng = inputs.stream(seed, "cluster_warm")
        dests = [inputs.hotspot_destinations(rng) for _ in range(self.POOL)]
        self.pool = [MulticastAssignment(N, d) for d in dests]
        self.sequence = inputs.held_sequence(rng, self.POOL, SEQUENCE, self.MEAN_HOLD)
        self.inputs = {"pool": dests, "sequence": self.sequence}
        self.expected = [expected_key(a) for a in self.pool]

    def setup(self):
        obs = MetricsObserver()
        cluster = FabricCluster(
            ClusterConfig(self.REPLICAS, NetworkConfig(N, engine="fast", observer=obs))
        )
        owned: Dict[int, list] = {r.index: [] for r in cluster.replicas}
        for a in self.pool:
            home = cluster.router.order(assignment_fingerprint(a), cluster.replicas)[0]
            owned[home.index].append({str(i): sorted(a[i]) for i in a.active_inputs})
        for replica in cluster.replicas:
            FabricSnapshot(n=N, assignments=owned[replica.index]).restore(replica.fabric)
        return cluster

    def snapshot_stats(self, cluster) -> Dict[str, int]:
        s = cluster.stats
        return {"frames": s.frames, "deliveries": s.deliveries}

    def prefix_outputs(self, cluster) -> dict:
        return cluster.summary()

    def observer_of(self, cluster):
        return cluster.observer

    failed_share_text = "frames that raised or failed the check, of frames submitted"

    def failed_share(self, windows: List[Window]) -> float:
        return sum(w.failed for w in windows) / sum(w.frames for w in windows)

    def check(self, w: Window, out: Checks) -> None:
        keys = w.delivered()
        bad = sum(1 for k, kid, _ in w.records() if kid >= 0 and keys[kid] != self.expected[k])
        w.failed += bad
        out.expect(bad == 0, f"cluster_warm: {bad} frames delivered wrongly")
        served = [k for k, kid, _ in w.records() if kid >= 0]
        d = w.delta()
        out.expect(
            d["frames"] == len(served)
            and d["deliveries"] == sum(self.pool[k].total_fanout for k in served),
            "cluster_warm: ClusterStats disagree with the routed frames",
        )

    def oracle(self, cluster, out: Checks, sample: int = 6) -> int:
        ref = BRSMN(NetworkConfig(N, engine="reference"))
        picked = list(dict.fromkeys(self.sequence))[:sample]
        for k in picked:
            a = self.pool[k]
            fast = cluster.submit(a)
            want = ref.route(a, mode="selfrouting")
            out.expect(
                delivery_map(fast.outputs) == delivery_map(want.outputs),
                f"cluster_warm: pool[{k}] differs from the reference engine",
            )
        return len(picked)


class FabricFaulted(ClosedLoop):
    """``MulticastFabric``, n=256, fast engine, a seeded plan of
    attempt-independent faults (one ``stuck_at`` and one ``dead_switch``
    cell on every plane), ``RetryPolicy(max_retries=3)`` without
    sleeping, the default ``HealthTracker``; a pool of 16 hotspot
    assignments held for geometric runs, warmed on both planes."""

    name = "fabric_faulted"
    POOL = 16
    KINDS = ("stuck_at", "dead_switch")

    shape = {"n": N, "pool": POOL, "mean_hold": ClosedLoop.MEAN_HOLD, "faults_per_plane": KINDS}

    def __init__(self, seed: int):
        rng = inputs.stream(seed, "fabric_faulted")
        dests = [inputs.hotspot_destinations(rng) for _ in range(self.POOL)]
        self.pool = [MulticastAssignment(N, d) for d in dests]
        self.sequence = inputs.held_sequence(rng, self.POOL, SEQUENCE, self.MEAN_HOLD)
        cells = inputs.fault_cells(rng, self.KINDS)
        self.plan = FaultPlan(
            N, tuple(Fault(kind=FaultKind(kind), level=lvl, index=k) for kind, lvl, k in cells)
        )
        self.policy = RetryPolicy(max_retries=3)
        self.inputs = {"pool": dests, "sequence": self.sequence, "faults": cells}
        self.expected = [expected_key(a) for a in self.pool]
        # What set-up healing delivered and lost per pool member, once
        # per set-up (they must all agree).
        self.healed: List[List[tuple]] = []

    def setup(self):
        fabric = MulticastFabric(
            NetworkConfig(N, engine="fast", fault_plan=self.plan), retry_policy=self.policy
        )
        healed = []
        for a in self.pool:
            result = route_with_healing(fabric.network, a, policy=self.policy)
            healed.append((delivery_key(result.outputs), len(result.lost)))
            fabric.standby.route(a, mode=fabric.mode)
        self.healed.append(healed)
        return fabric

    def snapshot_stats(self, fabric) -> Dict[str, int]:
        s = fabric.stats
        return {
            "frames": s.frames,
            "deliveries": s.deliveries,
            "degraded_frames": s.degraded_frames,
            "lost_frames": s.lost_frames,
            "lost_terminals": s.lost_terminals,
            "recovered_terminals": s.recovered_terminals,
            "quarantines": s.quarantines,
            "standby_frames": s.standby_frames,
        }

    def prefix_outputs(self, fabric) -> dict:
        return self.snapshot_stats(fabric)

    failed_share_text = "frames with >= 1 lost terminal, of frames submitted"

    def failed_share(self, windows: List[Window]) -> float:
        return sum(w.lossy_frames for w in windows) / sum(w.frames for w in windows)

    def layer_inputs(self, w: Window) -> dict:
        return {"health": w.delta()}

    def describe(self, w: Window) -> List[str]:
        d = w.delta()
        return [
            f"faults: {[(f.kind.value, f.level, f.index) for f in self.plan.faults]}",
            f"window: {d['frames']} frames, {d['standby_frames']} on standby, "
            f"{d['quarantines']} quarantines, {d['lost_terminals']} of "
            f"{d['deliveries'] + d['lost_terminals']} terminals lost",
        ]

    def check(self, w: Window, out: Checks) -> None:
        """A standby frame must deliver every terminal; a primary frame
        exactly what set-up healing delivered for that pool member (the
        fault kinds are attempt-independent) — and the fabric's loss
        accounting must add up to the losses seen in the outputs."""
        out.expect(
            all(h == self.healed[0] for h in self.healed),
            "fabric_faulted: set-ups healed the pool differently",
        )
        healed, keys = self.healed[0], w.delivered()
        bad = lost_terminals = 0
        for k, kid, primary in w.records():
            if kid < 0:
                continue
            want, lost = healed[k] if primary else (self.expected[k], 0)
            if keys[kid] != want:
                bad += 1
            lost_terminals += lost
            w.lossy_frames += lost > 0
        w.failed += bad
        out.expect(bad == 0, f"fabric_faulted: {bad} frames delivered wrongly")
        d = w.delta()
        out.expect(
            d["lost_terminals"] == lost_terminals and d["lost_frames"] == w.lossy_frames,
            "fabric_faulted: FabricStats losses disagree with the delivered outputs",
        )

    def oracle(self, fabric, out: Checks, sample: int = 3) -> int:
        """Heal a sample on a reference network with the same fault plan
        (and route it on a fault-free one, the standby's twin)."""
        ref = BRSMN(NetworkConfig(N, engine="reference", fault_plan=self.plan))
        clean = BRSMN(NetworkConfig(N, engine="reference"))
        picked = list(dict.fromkeys(self.sequence))[:sample]
        for k in picked:
            a = self.pool[k]
            fast = route_with_healing(fabric.network, a, policy=self.policy)
            want = route_with_healing(ref, a, policy=self.policy)
            out.expect(
                delivery_map(fast.outputs) == delivery_map(want.outputs)
                and fast.lost == want.lost
                and fast.recovered == want.recovered
                and fast.attempts == want.attempts,
                f"fabric_faulted: pool[{k}] heals differently on the reference engine",
            )
            standby = fabric.standby.route(a, mode=fabric.mode)
            out.expect(
                delivery_map(standby.outputs)
                == delivery_map(clean.route(a, mode=fabric.mode).outputs),
                f"fabric_faulted: pool[{k}] standby differs from the reference engine",
            )
        return len(picked)


class QueueCold(Workload):
    """``QueueingSimulator``, n=256, fast engine, no observer, faults or
    gate.  Open loop in slot time: each chunk is a fresh Poisson stream
    (24 requests a slot, mean fanout 4) of ``SLOTS`` slots, run until
    its backlog drains; every routed frame is new to the plan cache.
    A chunk is one ``run`` call, short enough (about 0.2 s) that a run
    holds many of them.  Set-up builds the simulator and serves one
    warm-up chunk, drawn apart from the timed ones."""

    name = "queue_cold"
    SLOTS = 16
    RATE = 24.0
    MEAN_FANOUT = 4.0
    PREFIX = 4  # chunks always run, digested and replayed
    ORACLE_SLOTS = 6

    shape = {"n": N, "slots_per_chunk": SLOTS, "rate": RATE, "mean_fanout": MEAN_FANOUT}

    def __init__(self, seed: int):
        self.seed = seed
        self._chunks: Dict[int, list] = {}
        rng = inputs.stream(seed, "queue_cold:warmup")
        self.warmup = inputs.poisson_requests(rng, self.SLOTS, self.RATE, self.MEAN_FANOUT, tag="w.")
        self.inputs = {
            "warmup": self.warmup,
            "chunks": [self.requests(c) for c in range(self.PREFIX)],
        }
        # The warm-up chunk's simulated statistics, once per set-up
        # (they must all agree and serve every arrival).
        self.warmed: List[dict] = []

    def requests(self, chunk: int) -> list:
        """Chunk ``chunk``'s arrival stream; the prefix chunks are kept."""
        if chunk in self._chunks:
            return self._chunks[chunk]
        rng = inputs.stream(self.seed, f"queue_cold:{chunk}")
        reqs = inputs.poisson_requests(rng, self.SLOTS, self.RATE, self.MEAN_FANOUT, tag=f"c{chunk}.")
        if chunk < self.PREFIX:
            self._chunks[chunk] = reqs
        return reqs

    @staticmethod
    def arrivals(requests) -> List[Arrival]:
        return [Arrival(slot, Request(src, d, payload=p)) for slot, src, d, p in requests]

    def setup(self):
        sim = QueueingSimulator(NetworkConfig(N, engine="fast"))
        self.warmed.append(self.simulated(sim.run(self.arrivals(self.warmup))))
        return sim

    def attempted(self, w: Window) -> int:
        return w.requests

    failed_share_text = "requests not served, of arrivals"

    def failed_share(self, windows: List[Window]) -> float:
        return sum(w.failed for w in windows) / sum(w.requests for w in windows)

    @staticmethod
    def backlog_mean(w: Window) -> float:
        backlog = [b for *_, r in w.chunks if r is not None for b in r.backlog_per_slot]
        return sum(backlog) / len(backlog) if backlog else 0.0

    def layer_inputs(self, w: Window) -> dict:
        return {"backlog_mean": self.backlog_mean(w)}

    def describe(self, w: Window) -> List[str]:
        from .stats import percentile

        waits = [x for p in w.prefix if p for x in p["waits"]]
        p99, count = percentile(waits, 99)
        return [
            f"wait_p99_slots = {p99} slots (n={count}, first {self.PREFIX} chunks; simulated, "
            "repeats exactly for a seed)",
            f"window: {len(w.chunks)} chunks, {w.requests} arrivals, {w.frames} routed slots, "
            f"mean backlog {self.backlog_mean(w):.2f}",
        ]

    def window(self, sim, seconds: float, tracer: Optional[Tracer] = None) -> Window:
        w = Window()
        deadline = perf_counter_ns() + int(seconds * 1e9)
        chunk = 0
        while chunk < self.PREFIX or perf_counter_ns() < deadline:
            reqs = self.requests(chunk)
            arrivals = self.arrivals(reqs)
            if tracer is not None:
                tracer.frame = chunk
            t0 = perf_counter_ns()
            try:
                report = sim.run(arrivals)
            except Exception as exc:  # counted and reported; the loop goes on
                t1 = perf_counter_ns()
                _error(w, exc, failed=len(reqs))
                report = None
            else:
                t1 = perf_counter_ns()
                w.frames += len(report.serve_ms)
                w.latency_us.extend(ms * 1e3 for ms in report.serve_ms)
            w.busy_ns += t1 - t0
            w.requests += len(reqs)
            fanout = sum(len(d) for _, _, d, _ in reqs)
            w.chunks.append((len(reqs), fanout, reqs[-1][0] + 1 if reqs else 0, t1 - t0, report))
            chunk += 1
        if tracer is not None:
            tracer.frame = -1
        w.prefix = [self.simulated(c[-1]) for c in w.chunks[: self.PREFIX]]
        return w

    @staticmethod
    def simulated(report) -> Optional[dict]:
        """The simulated-time statistics (no host time in them)."""
        if report is None:
            return None
        return {
            "slots_run": report.slots_run,
            "served": report.served,
            "deliveries": report.deliveries,
            "waits": report.waits,
            "backlog": report.backlog_per_slot,
            "shed": report.shed,
            "requeued": report.requeued,
            "abandoned": report.abandoned,
        }

    def check(self, w: Window, out: Checks) -> None:
        """Every arrival served once, with its whole fanout delivered,
        never before it arrived, and the backlog drained; set-up's
        warm-up chunk the same way."""
        out.expect(
            all(s == self.warmed[0] for s in self.warmed)
            and self.warmed[0]["served"] == len(self.warmup)
            and self.warmed[0]["deliveries"] == sum(len(d) for _, _, d, _ in self.warmup),
            "queue_cold: the set-up warm-up chunk was served wrongly or differently",
        )
        bad = 0
        for arrivals, fanout, horizon, _, report in w.chunks:
            if report is None:
                continue
            ok = (
                report.served == arrivals
                and report.shed == 0
                and report.abandoned == 0
                and report.deliveries == fanout
                and len(report.waits) == report.served
                and min(report.waits, default=0) >= 0
                and report.slots_run >= horizon
                and len(report.backlog_per_slot) == report.slots_run
                and (not report.backlog_per_slot or report.backlog_per_slot[-1] == 0)
            )
            if not ok:
                bad += 1
                w.failed += arrivals
        out.expect(bad == 0, f"queue_cold: {bad} chunks failed the service checks")

    def units(self, w: Window):
        i = 0
        for arrivals, _, _, busy_ns, report in w.chunks:
            slots = len(report.serve_ms) if report is not None else 0
            yield busy_ns, slots, arrivals, w.latency_us[i : i + slots]
            i += slots

    def replay(self, sim, window: Window, out: Checks) -> None:
        w = self.window(sim, 0.0)
        out.expect(w.prefix == window.prefix, "queue_cold: replayed prefix differs")

    def oracle(self, sim, out: Checks) -> int:
        """Serve the first slots of chunk 0 on a fresh fast simulator and
        on a reference one; every routed frame's deliveries and the
        simulated statistics must match."""
        reqs = [r for r in self.requests(0) if r[0] < self.ORACLE_SLOTS]
        runs = []
        for engine in ("fast", "reference"):
            tracer = Tracer()
            tracer.patch(BRSMN, "route", "capture", value=lambda r: delivery_map(r.outputs))
            try:
                report = QueueingSimulator(NetworkConfig(N, engine=engine)).run(self.arrivals(reqs))
            finally:
                tracer.restore()
            runs.append((self.simulated(report), [s[-1] for s in tracer.records()]))
        out.expect(runs[0] == runs[1], "queue_cold: the reference engine serves the sample differently")
        return len(runs[0][1])


WORKLOADS = {cls.name: cls for cls in (ClusterWarm, QueueCold, FabricFaulted)}
