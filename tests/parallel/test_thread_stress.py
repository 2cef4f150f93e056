"""Concurrency stress + fault-batch property tests.

Two pins:

* ``route_batch`` under a ``FaultPlan`` is bit-identical to routing the
  same payload rows through sequential faulted ``route`` calls;
* eight concurrent fast routers sharing one
  :class:`~repro.core.fastplan.PlanCache` deliver exactly what the
  reference engine delivers, frame for frame.
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assignments, make_random_assignment
from repro.core.brsmn import BRSMN
from repro.core.config import NetworkConfig
from repro.core.fastplan import PlanCache
from repro.faults import FaultPlan


@settings(max_examples=20, deadline=None)
@given(
    a=assignments(min_m=2, max_m=4),
    fault_seed=st.integers(0, 2**16),
    faults=st.integers(1, 3),
)
def test_faulted_route_batch_matches_sequential_routes(a, fault_seed, faults):
    plan = FaultPlan.random(a.n, faults=faults, seed=fault_seed)
    net = BRSMN(NetworkConfig(a.n, engine="fast", fault_plan=plan))
    rng = np.random.default_rng(fault_seed)
    mat = rng.integers(1, 2**31, size=(7, a.n))

    batch = net.route_batch(a, mat)
    for f in range(mat.shape[0]):
        single = net.route(a, payloads=list(mat[f]))
        expect = np.zeros(a.n, dtype=mat.dtype)
        for o, msg in enumerate(single.outputs):
            if msg is not None:
                expect[o] = msg.payload
        assert np.array_equal(batch.payloads[f], expect)
        # delivery_src agrees with the per-frame outputs (casualties
        # are idle in both views).
        for o in range(a.n):
            src = batch.delivery_src[o]
            if single.outputs[o] is None:
                assert src == -1
            else:
                assert src == single.outputs[o].source


def test_eight_routers_sharing_one_cache_match_reference():
    n = 32
    frames = [
        make_random_assignment(n, random.Random(seed)) for seed in range(24)
    ]
    reference = BRSMN(NetworkConfig(n))
    expected = []
    for a in frames:
        outputs = reference.route(a).outputs
        expected.append(
            [(m.source, m.payload) if m is not None else None for m in outputs]
        )

    cache = PlanCache(maxsize=64)
    errors = []
    start = threading.Barrier(8)

    def router(tid):
        # Each thread owns a network but they all share one cache, so
        # plan compilation is a cross-thread rendezvous on every frame.
        net = BRSMN(NetworkConfig(n, engine="fast"), plan_cache=cache)
        start.wait(timeout=10)
        for k, a in enumerate(frames):
            got = [
                (m.source, m.payload) if m is not None else None
                for m in net.route(a).outputs
            ]
            if got != expected[k]:
                errors.append((tid, k))
                return

    threads = [threading.Thread(target=router, args=(t,)) for t in range(8)]
    # A short switch interval forces thread switches inside the cache's
    # critical sections, where a lost counter update would show.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    # Single-flight: 8 threads x 24 frames but at most one compile per
    # distinct assignment; every other lookup hit or coalesced.
    assert cache.misses <= len(frames)
    assert cache.hits + cache.coalesced == 8 * len(frames) - cache.misses


def test_concurrent_batch_routers_share_a_cache():
    n = 16
    a = make_random_assignment(n, random.Random(99))
    cache = PlanCache(maxsize=8)
    rng = np.random.default_rng(0)
    mat = rng.integers(0, 2**31, size=(50, n))
    baseline = BRSMN(NetworkConfig(n, engine="fast")).route_batch(a, mat)
    outcomes = []

    def worker():
        net = BRSMN(NetworkConfig(n, engine="fast"), plan_cache=cache)
        outcomes.append(net.route_batch(a, mat))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert len(outcomes) == 8
    for result in outcomes:
        assert np.array_equal(result.payloads, baseline.payloads)
    assert cache.misses == 1  # one shared plan, compiled exactly once
