"""PlanCache under threads: single-flight, events, fault keys."""

from __future__ import annotations

import random
import threading
import time

import pytest

from conftest import EventRecorder, make_random_assignment
from repro.core.fastplan import PlanCache, compile_frame_plan
from repro.core.serialization import assignment_fingerprint


def kinds(recorder):
    return [e.kind for e in recorder.events]


def assignment(n=16, seed=0):
    return make_random_assignment(n, random.Random(seed))


class TestSingleFlight:
    def test_concurrent_misses_compile_exactly_once(self):
        obs = EventRecorder()
        cache = PlanCache(maxsize=8, observer=obs)
        a = assignment(seed=1)
        entered = threading.Event()
        release = threading.Event()
        compiles = []

        def slow_compile(asg):
            entered.set()
            assert release.wait(timeout=10)
            compiles.append(threading.get_ident())
            return compile_frame_plan(asg)

        results = []

        def worker():
            results.append(cache.get(a, slow_compile))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        # The leader is parked inside slow_compile; hold it there until
        # the other 7 lookups have coalesced onto its in-flight future
        # (the coalesced counter is bumped before a waiter parks).
        assert entered.wait(timeout=10)
        deadline = time.monotonic() + 10
        while cache.coalesced < 7 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join(timeout=10)

        assert len(compiles) == 1
        assert cache.misses == 1
        assert cache.coalesced == 7
        plans = {id(plan) for plan, _ in results}
        assert len(plans) == 1
        # The one leader reports a miss, every waiter reports a hit.
        assert sorted(hit for _, hit in results) == [False] + [True] * 7
        assert cache.hit_rate == pytest.approx(7 / 8)
        # One CacheEvent per lookup: the leader's miss, 7 coalesced.
        assert sorted(kinds(obs)) == ["coalesced"] * 7 + ["miss"]

    def test_coalesced_waiters_reraise_leader_failure_then_retry(self):
        cache = PlanCache(maxsize=8)
        a = assignment(seed=2)
        entered = threading.Event()
        release = threading.Event()

        def failing_compile(asg):
            entered.set()
            assert release.wait(timeout=5)
            raise RuntimeError("compile exploded")

        errors = []

        def leader():
            try:
                cache.get(a, failing_compile)
            except RuntimeError as exc:
                errors.append(str(exc))

        def waiter():
            assert entered.wait(timeout=5)
            try:
                cache.get(a, failing_compile)
            except RuntimeError as exc:
                errors.append(str(exc))

        t1 = threading.Thread(target=leader)
        t2 = threading.Thread(target=waiter)
        t1.start()
        t2.start()
        assert entered.wait(timeout=5)
        # Let the waiter coalesce onto the in-flight future, then fail.
        deadline = time.monotonic() + 10
        while cache.coalesced < 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        release.set()
        t1.join(timeout=5)
        t2.join(timeout=5)

        assert errors == ["compile exploded", "compile exploded"]
        assert not cache.contains(a)
        # The key was left uncached: a later lookup retries the compile.
        plan, hit = cache.get(a)
        assert hit is False
        assert cache.contains(a)

    def test_contains_counts_inflight_compiles(self):
        cache = PlanCache(maxsize=8)
        a = assignment(seed=3)
        started = threading.Event()
        release = threading.Event()

        def slow_compile(asg):
            started.set()
            assert release.wait(timeout=5)
            return compile_frame_plan(asg)

        t = threading.Thread(target=lambda: cache.get(a, slow_compile))
        t.start()
        assert started.wait(timeout=5)
        assert cache.contains(a)  # in flight, not yet inserted
        assert len(cache) == 0
        release.set()
        t.join(timeout=5)
        assert cache.contains(a)
        assert len(cache) == 1


class TestCacheSemantics:
    def test_hit_miss_counters_and_event_order(self):
        obs = EventRecorder()
        cache = PlanCache(maxsize=8, observer=obs)
        a, b = assignment(seed=4), assignment(seed=5)
        _, hit = cache.get(a)
        assert hit is False
        _, hit = cache.get(a)
        assert hit is True
        cache.get(b)
        assert (cache.hits, cache.misses, cache.coalesced) == (1, 2, 0)
        assert cache.hit_rate == pytest.approx(1 / 3)
        assert kinds(obs) == ["miss", "hit", "miss"]
        # Miss events snapshot the pre-insert size, hits the current.
        assert [e.size for e in obs.events] == [0, 1, 1]

    def test_total_capacity_is_bounded(self):
        cache = PlanCache(maxsize=8)
        for seed in range(40):
            cache.get(assignment(seed=seed))
        assert len(cache) == 8

    def test_clear_resets_everything(self):
        obs = EventRecorder()
        cache = PlanCache(maxsize=8, observer=obs)
        cache.get(assignment(seed=9))
        cache.get(assignment(seed=9))
        cache.clear()
        assert len(cache) == 0
        assert (cache.hits, cache.misses, cache.coalesced) == (0, 0, 0)
        assert kinds(obs)[-1] == "clear"

    def test_validation(self):
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_keys_are_the_assignment_fingerprint(self):
        a = assignment(seed=10)
        fp = assignment_fingerprint(a)
        assert PlanCache.make_key(a) == fp
        assert PlanCache.make_key(a, "fp") == f"{fp}@fp"


class TestFaultKeysUnderEviction:
    """`fingerprint@plan` keys stay correct under concurrent eviction."""

    def test_healthy_and_faulted_plans_never_collide(self):
        cache = PlanCache(maxsize=4)
        a = assignment(seed=11)
        stop = threading.Event()
        errors = []

        def churn(tid):
            # Keep the tiny cache constantly evicting.
            k = 0
            while not stop.is_set():
                cache.get(assignment(seed=100 + tid * 1000 + (k % 17)))
                k += 1

        def lookup():
            # Alternate healthy / faulted lookups of one assignment;
            # whatever evictions happen concurrently, each key must
            # always come back with its own plan.
            while not stop.is_set():
                healthy, _ = cache.get(a, lambda _: ("healthy", "plan"))
                faulted, _ = cache.get(
                    a, lambda _: ("faulted", "plan"), extra_key="deadbeef@1"
                )
                if healthy[0] != "healthy" or faulted[0] != "faulted":
                    errors.append((healthy, faulted))
                    return

        threads = [
            threading.Thread(target=churn, args=(t,)) for t in range(3)
        ] + [threading.Thread(target=lookup) for _ in range(2)]
        for t in threads:
            t.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for t in threads:
            t.join(timeout=10)
        timer.cancel()
        stop.set()
        assert errors == []
        assert len(cache) <= 4
