"""Run one serving-benchmark workload and print its metrics.

Usage, from the repository root::

    python3 servebench/run.py --workload cluster_warm --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` splits a
traced window's time across layers and reports its overhead against an
untraced window of the same length.  The program is imported from
``src/`` beside this directory.  Human-readable lines come first; the
last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every check
passed; 2 means the program could not be loaded.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from time import perf_counter_ns

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Set-up is repeated this many times before the timed window and as
# many after it, and the median of all is reported: the host's speed
# drifts over seconds, and one burst of set-ups reads only one moment.
SETUP_REPS = 3

# Throughput and median latency are read per segment of this much host
# time inside the program's calls, and the best segment is reported: the
# shared host this was tuned on slows by up to 1.8x for seconds at a
# time, and a run's best tenth of a second is far steadier than its
# whole (README.md, "Steadiness").
SEGMENT_S = 0.1

# (metric, unit); every workload reports all of them with --trace 0.
E2E_METRICS = [
    ("setup_s", "s"),
    ("frames_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("submit_p50_us", "us"),
    ("peak_rss_mb", "MB"),
]


def load_program() -> bool:
    """Put ``src/`` and this package on the path; False when the program
    is not there (or would be imported from anywhere else)."""
    src = ROOT / "src"
    sys.path[0:1] = [str(src), str(ROOT)]
    try:
        import repro
    except ImportError as exc:
        print(f"servebench: cannot import the program from {src}: {exc}", file=sys.stderr)
        return False
    if not pathlib.Path(repro.__file__).resolve().is_relative_to(src):
        print(f"servebench: repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return False
    return True


def timed_setups(workload, reps: int):
    """Build ``reps`` instances; returns the first two and every set-up
    time."""
    instances, seconds = [], []
    for _ in range(reps):
        t0 = perf_counter_ns()
        inst = workload.setup()
        seconds.append((perf_counter_ns() - t0) / 1e9)
        if len(instances) < 2:
            instances.append(inst)
    return instances, seconds


def e2e(workload, window) -> dict:
    """Throughput and median latency of one window's best segment, each
    ``(value, samples)``; throughput counts host time inside the
    program's calls only."""
    from servebench import stats

    return stats.best_segment(stats.segments(workload.units(window), SEGMENT_S * 1e9))


def whole_window(window) -> dict:
    """The same figures over the whole window, and its tail latency
    (printed, not bounded: they follow the host's speed)."""
    from servebench import stats

    busy_s = window.busy_ns / 1e9
    figures = {
        "frames_per_s": (window.frames / busy_s, window.frames),
        "requests_per_s": (window.requests / busy_s, window.requests),
    }
    for p in (50, 95, 99):
        figures[f"submit_p{p}_us"] = stats.percentile(window.latency_us, p)
    return figures


def untraced_run(workload, seconds: float, checks):
    """Set up several times, measure one window, set up again, replay
    the window's prefix on a second instance.  Returns the windows, the
    oracle's instance and the end-to-end metrics."""
    from servebench import stats

    (inst, replay), setup_s = timed_setups(workload, SETUP_REPS)
    window = workload.window(inst, seconds)
    rss = stats.peak_rss_mb()
    setup_s += timed_setups(workload, SETUP_REPS)[1]
    print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup_s))
    workload.replay(replay, window, checks)
    values = e2e(workload, window)
    values["setup_s"] = (stats.median(setup_s), len(setup_s))
    values["peak_rss_mb"] = (rss, 1)
    return [window], replay, values


def traced_run(workload, seconds: float, checks):
    """An untraced and a traced window of half the length each, on two
    instances (the second set up under tracing too).  Returns the
    windows, the oracle's instance and the per-layer metrics."""
    from servebench import layers
    from servebench.spans import Tracer

    (inst,), _ = timed_setups(workload, 1)
    tracer = Tracer()
    layers.install(tracer)
    try:
        traced_inst = workload.setup()
    finally:
        tracer.restore()
    plain = workload.window(inst, seconds / 2)
    layers.install(tracer, workload.observer_of(traced_inst))
    try:
        traced = workload.window(traced_inst, seconds / 2, tracer)
    finally:
        tracer.restore()
    checks.expect(plain.prefix == traced.prefix, "traced prefix differs from the untraced one")
    spans = tracer.records()

    values = {
        k: (v, traced.frames)
        for k, v in layers.layer_metrics(
            spans, traced.frames, traced.busy_ns, **workload.layer_inputs(traced)
        ).items()
    }
    for label, w in (("untraced", plain), ("traced", traced)):
        figures = e2e(workload, w)
        values[f"trace.{label}.submit_p50_us"] = figures["submit_p50_us"]
        values[f"trace.{label}.frames_per_s"] = figures["frames_per_s"]
    per_frame = [w.busy_ns / w.frames for w in (plain, traced)]
    values["trace.overhead_share"] = (per_frame[1] / per_frame[0] - 1.0, traced.frames)
    print("layer split of the traced window (self time):")
    for line in layers.split_table(spans, traced.frames, traced.busy_ns):
        print("  " + line)
    print(
        "spans never recorded (bypassed layers; their metrics read 0): "
        + (", ".join(layers.unreached(spans)) or "none")
    )
    return [plain, traced], inst, values


def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    from servebench import layers, stats
    from servebench.workloads import WORKLOADS, Checks

    workload = WORKLOADS[name](seed)
    checks = Checks()
    print(f"servebench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print("context " + json.dumps(dict(stats.context(ROOT, seed), shape=workload.shape)))

    measure = traced_run if trace else untraced_run
    windows, oracle_inst, values = measure(workload, seconds, checks)
    print(f"host_probe_ms at end = {stats.host_probe_ms():.3f}")
    for w in windows:
        workload.check(w, checks)
        checks.failures.extend(f"{name}: raised {err}" for err in w.errors)
    sampled = workload.oracle(oracle_inst, checks)
    attempted = sum(workload.attempted(w) for w in windows)
    failed = sum(w.failed for w in windows)

    main = windows[-1]
    print(f"oracle: {sampled} sampled routings compared with engine='reference'")
    print(f"digest inputs={stats.digest(workload.inputs)} outputs={stats.digest(main.prefix)}")
    print(f"failed_share = {workload.failed_share(windows):.6f} ({workload.failed_share_text})")
    segs = stats.segments(workload.units(main), SEGMENT_S * 1e9)
    print(f"best of {len(segs)} segments of {SEGMENT_S:g} s busy time (n: that segment's count)")
    for metric, (value, count) in whole_window(main).items():
        print(f"whole window: {metric} = {value:.6g} (n={count})")
    for line in workload.describe(main):
        print(line)
    units = dict(layers.LAYER_METRICS if trace else E2E_METRICS)
    for metric, unit in units.items():
        value, count = values[metric]
        print(f"metric {metric} = {value:.6g} {unit} (n={count})")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    correct = not checks.failures and failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {m: {"value": values[m][0], "unit": u} for m, u in units.items()},
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not load_program():
        return 2
    from servebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
