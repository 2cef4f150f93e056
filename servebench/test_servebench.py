"""Tests of the benchmark's own helpers.

Run from the repository root (``src`` on the path lets pytest apply the
repository's warning filters)::

    PYTHONPATH=src python3 -m pytest servebench -q
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import types

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

from servebench import inputs, spans, stats  # noqa: E402
from servebench.spans import END, NAME, PARENT, START, Tracer  # noqa: E402


def test_percentile_is_nearest_rank_with_its_sample_count():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert stats.percentile(samples, 50) == (50, 100)
    assert stats.percentile(samples, 99) == (99, 100)
    assert stats.percentile(samples, 100) == (100, 100)
    assert stats.percentile([7.5], 99) == (7.5, 1)
    # 10 samples: p99 needs rank ceil(9.9) = 10, the maximum.
    assert stats.percentile(list(range(10)), 99) == (9, 10)
    assert stats.percentile(list(range(10)), 50) == (4, 10)


@pytest.mark.parametrize("p", [0, -1, 101])
def test_percentile_rejects_bad_input(p):
    with pytest.raises(ValueError):
        stats.percentile([1, 2, 3], p)
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_segments_group_busy_time_and_the_best_one_is_reported():
    units = [(40, 1, 2, (40,)), (70, 1, 3, (70,)), (30, 1, 1, (30,)),
             (30, 1, 1, (30,)), (50, 1, 2, (50,)), (10, 1, 1, (10,))]
    segs = stats.segments(units, 100)
    # The remainder (10 ns) is shorter than a segment and dropped.
    assert segs == [(110, 2, 5, [40, 70]), (110, 3, 4, [30, 30, 50])]
    best = stats.best_segment(segs)
    assert best["frames_per_s"] == (3 / 110 * 1e9, 3)
    # The best frame rate, at the 9 requests per 5 frames of all segments.
    assert best["requests_per_s"] == (3 / 110 * 1e9 * 9 / 5, 9)
    assert best["submit_p50_us"] == (30, 3)  # nearest rank; the other reads 40
    # A window shorter than one segment is one segment.
    assert stats.segments(units[:1], 100) == [(40, 1, 2, [40])]


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_time_counts_overlapping_children_once():
    recs = [
        _span("parent", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("b", 30, 60, 0),  # overlaps a by 10
        _span("c", 90, 130, 0),  # runs past the parent's end
    ]
    assert spans.self_times(recs) == [100 - 50 - 10, 30, 30, 40]


def test_self_time_of_nested_spans_subtracts_direct_children_only():
    recs = [
        _span("root", 0, 100, -1),
        _span("child", 10, 90, 0),
        _span("grandchild", 20, 50, 1),
        _span("grandchild", 60, 70, 1),
    ]
    assert spans.self_times(recs) == [20, 80 - 40, 30, 10]
    # Self times of one tree add up to the root's duration.
    assert sum(spans.self_times(recs)) == 100


def test_covered_clips_and_merges():
    assert spans.covered_ns(0, 10, []) == 0
    assert spans.covered_ns(0, 10, [(-5, 3), (2, 4), (8, 20)]) == 6
    assert spans.covered_ns(0, 10, [(20, 30)]) == 0


class _Box:
    def work(self, x):
        return helper(x) + 1


def helper(x):
    return x * 2


def test_tracer_patches_nest_and_restore():
    module = sys.modules[__name__]
    box = _Box()
    original_work, original_helper = _Box.__dict__["work"], helper
    tracer = Tracer()
    tracer.patch(_Box, "work", "box.work", value=lambda r: r)
    tracer.patch(module, "helper", "helper")
    try:
        tracer.frame = 7
        assert box.work(3) == 7
    finally:
        tracer.restore()
    assert _Box.__dict__["work"] is original_work and module.helper is original_helper
    (outer, inner) = tracer.records()
    assert (outer[NAME], outer[PARENT], outer[-1]) == ("box.work", -1, 7)
    assert (inner[NAME], inner[PARENT]) == ("helper", 0)
    assert outer[START] <= inner[START] <= inner[END] <= outer[END]
    assert all(s[spans.FRAME] == 7 for s in tracer.records())


def test_tracer_instance_patch_and_default_patch_restore():
    obj = types.SimpleNamespace(hook=lambda: "hooked")

    def compile_it(x):
        return x + 1

    def get(x, compile_fn=compile_it):
        return compile_fn(x)

    tracer = Tracer()
    tracer.patch_default(get, compile_it, "compile")
    tracer.patch(obj, "hook", "hook")
    try:
        assert get(1) == 2 and obj.hook() == "hooked"
    finally:
        tracer.restore()
    assert [s[NAME] for s in tracer.records()] == ["compile", "hook"]
    assert get.__defaults__ == (compile_it,)
    assert not hasattr(obj, "hook")


def test_input_generators_are_seeded():
    a = inputs.poisson_requests(inputs.stream(5, "q"), 20, 24.0, 4.0)
    b = inputs.poisson_requests(inputs.stream(5, "q"), 20, 24.0, 4.0)
    c = inputs.poisson_requests(inputs.stream(6, "q"), 20, 24.0, 4.0)
    assert a == b and a != c
    rng = inputs.stream(1, "g")
    draws = [inputs.geometric(rng, 8.0) for _ in range(20000)]
    assert min(draws) == 1 and abs(sum(draws) / len(draws) - 8.0) < 0.3
    rng = inputs.stream(1, "p")
    draws = [inputs.poisson(rng, 24.0) for _ in range(20000)]
    assert abs(sum(draws) / len(draws) - 24.0) < 0.2
    dests = inputs.hotspot_destinations(inputs.stream(1, "h"))
    used = [d for ds in dests if ds for d in ds]
    assert len(used) == len(set(used)) == 4 + int(252 * 0.25)


def test_digests_repeat_for_a_seed_and_differ_across_seeds():
    from servebench.workloads import FabricFaulted

    def run(seed):
        workload = FabricFaulted(seed)
        window = workload.window(workload.setup(), 0.0)  # the fixed prefix only
        return stats.digest(workload.inputs), stats.digest(window.prefix)

    first, again, other = run(3), run(3), run(4)
    assert first == again
    assert first[0] != other[0]


def test_digest_is_order_independent_for_mappings():
    assert stats.digest({"a": 1, "b": [1, 2]}) == stats.digest({"b": [1, 2], "a": 1})
    assert stats.digest({"a": 1}) != stats.digest({"a": 2})


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "servebench", tmp_path / "servebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        spec["command"] + ["--workload", "queue_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_matches_the_command():
    from servebench import layers, run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [m for m, _ in run.E2E_METRICS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(run.E2E_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == dict(layers.LAYER_METRICS)
    from servebench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
