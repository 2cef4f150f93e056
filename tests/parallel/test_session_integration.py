"""Compile-ahead through the session facades: same answers, off-thread work."""

from __future__ import annotations

import pytest

from repro.core.arrivals import QueueingSimulator, poisson_arrivals
from repro.core.config import NetworkConfig
from repro.core.fabric import MulticastFabric
from repro.workloads.hotspot import hotspot_session


def test_config_validates_parallel_fields():
    cfg = NetworkConfig(16, engine="fast", compile_ahead=2)
    assert cfg.compile_ahead == 2
    with pytest.raises(ValueError):
        NetworkConfig(16, engine="fast", compile_ahead=-1)
    with pytest.raises(ValueError):
        NetworkConfig(16, compile_ahead=1)  # reference engine


def test_fabric_lookahead_session_matches_sequential():
    frames = hotspot_session(32, frames=30, seed=11)
    sequential = MulticastFabric(NetworkConfig(32, engine="fast")).run(frames)
    fabric = MulticastFabric(
        NetworkConfig(32, engine="fast", compile_ahead=2)
    )
    try:
        parallel = fabric.run(frames)
    finally:
        fabric.close()
    assert parallel.frames == sequential.frames
    assert parallel.deliveries == sequential.deliveries
    assert parallel.splits == sequential.splits
    assert parallel.fanout_histogram == sequential.fanout_histogram
    # Lookahead moved compiles off-thread; the cache still converged to
    # one plan per distinct assignment (prefetch + route coalesce).
    cache = fabric.network.plan_cache
    assert cache.misses <= sequential.plan_cache_misses
    assert fabric.network.pipeline.prefetches > 0


def test_fabric_run_accepts_generators_with_lookahead():
    fabric = MulticastFabric(
        NetworkConfig(16, engine="fast", compile_ahead=3)
    )
    try:
        stats = fabric.run(a for a in hotspot_session(16, frames=10, seed=3))
    finally:
        fabric.close()
    assert stats.frames == 10


def test_queueing_simulator_prefetch_is_invisible_in_results():
    arrivals = poisson_arrivals(16, rate=1.5, slots=20, seed=13)
    plain = QueueingSimulator(NetworkConfig(16, engine="fast")).run(arrivals)
    sim = QueueingSimulator(
        NetworkConfig(16, engine="fast", compile_ahead=2)
    )
    try:
        prefetched = sim.run(arrivals)
    finally:
        sim.close()
    assert prefetched.served == plain.served
    assert prefetched.waits == plain.waits
    assert prefetched.deliveries == plain.deliveries
    assert prefetched.backlog_per_slot == plain.backlog_per_slot


def test_close_is_idempotent_and_restartable():
    fabric = MulticastFabric(NetworkConfig(16, engine="fast", compile_ahead=1))
    frames = hotspot_session(16, frames=4, seed=1)
    fabric.run(frames)
    fabric.close()
    fabric.close()
    fabric.run(frames)  # pool restarts transparently
    fabric.close()
    assert fabric.stats.frames == 8
