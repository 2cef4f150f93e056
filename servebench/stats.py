"""Small measurement helpers: percentiles with their sample count,
digests, peak memory and the run context printed with every result."""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import time
from typing import Dict, Iterable, List, Sequence, Tuple


def percentile(samples: Sequence[float], p: float) -> Tuple[float, int]:
    """Nearest-rank ``p``-th percentile and the sample count behind it.

    The value is an observed sample (no interpolation): the smallest one
    with at least ``p`` percent of the samples at or below it.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered)


def segments(units: Iterable[tuple], span_ns: float) -> List[tuple]:
    """Group consecutive units ``(busy_ns, frames, requests, samples)``
    into segments of at least ``span_ns`` busy time, each
    ``(busy_ns, frames, requests, samples)``.  A shorter remainder at
    the end is dropped, unless it is all there is."""
    out: List[tuple] = []
    busy = frames = requests = 0
    samples: List[float] = []
    for b, f, r, s in units:
        busy += b
        frames += f
        requests += r
        samples.extend(s)
        if busy >= span_ns:
            out.append((busy, frames, requests, samples))
            busy = frames = requests = 0
            samples = []
    if not out and busy:
        out.append((busy, frames, requests, samples))
    return out


def best_segment(segs: Sequence[tuple]) -> Dict[str, Tuple[float, int]]:
    """The best reading over ``segments``, each ``(value, count)``: the
    highest frame rate (count: its frames), that rate in requests at
    the requests per frame of all the segments (count: their requests),
    and the lowest median sample (count: its samples).  Requests per
    frame vary from segment to segment with the inputs, so the best
    segment's own request rate would read input luck as speed."""
    best = max(segs, key=lambda s: s[1] / s[0])
    rate = best[1] / best[0] * 1e9
    frames, requests = sum(s[1] for s in segs), sum(s[2] for s in segs)
    return {
        "frames_per_s": (rate, best[1]),
        "requests_per_s": (rate * requests / frames, requests),
        "submit_p50_us": min(percentile(s[3], 50) for s in segs if s[3]),
    }


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample (mean of the middle two when even)."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample (a layer not reached)."""
    return sum(values) / len(values) if values else 0.0


def digest(obj) -> str:
    """A short, stable digest of a JSON-serialisable object."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit(root: pathlib.Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_probe_ms(reps: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a rough reading of how
    fast this host runs right now, to tell a slow host from a slow
    program when comparing runs."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append((time.perf_counter_ns() - t0) / 1e6)
    return median(times)


def context(root: pathlib.Path, seed: int) -> Dict[str, object]:
    """Host and build facts needed to compare results across commits."""
    import numpy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "commit": git_commit(root),
        "seed": seed,
        "host_probe_ms": round(host_probe_ms(), 3),
    }

