"""FabricSnapshot: warm-restart round trips for plans, health, breaker."""

import random

import pytest

from conftest import make_random_assignment
from repro import (
    BreakerPolicy,
    BreakerState,
    FabricSnapshot,
    MulticastFabric,
    NetworkConfig,
)
from repro.faults import FaultPlan
from repro.faults.health import PlaneState
from repro.obs import MetricsObserver


def _frames(n, count, seed=0):
    rng = random.Random(seed)
    return [make_random_assignment(n, rng) for _ in range(count)]


class TestPlanCacheWarmth:
    def test_restore_warms_the_plan_cache(self):
        cfg = NetworkConfig(16, engine="fast")
        fab = MulticastFabric(cfg)
        frames = _frames(16, 6, seed=1)
        fab.run(frames)
        snap = fab.snapshot()
        assert snap.n == 16
        assert len(snap.assignments) == 6

        fab2 = MulticastFabric(cfg)
        warmed = fab2.restore(snap)
        assert warmed == 6
        # The warmed cache serves the same frames without a compile.
        fab2.run(frames)
        assert fab2.stats.plan_cache_misses == 0
        assert fab2.stats.plan_cache_hits > 0
        fab.close()
        fab2.close()

    def test_restored_deliveries_match(self):
        cfg = NetworkConfig(16, engine="fast")
        fab = MulticastFabric(cfg)
        frames = _frames(16, 4, seed=2)
        originals = [fab.submit(f) for f in frames]
        snap = fab.snapshot()
        fab2 = MulticastFabric(cfg)
        fab2.restore(snap)
        for frame, original in zip(frames, originals):
            again = fab2.submit(frame)
            assert [
                None if m is None else (m.source, m.payload)
                for m in again.outputs
            ] == [
                None if m is None else (m.source, m.payload)
                for m in original.outputs
            ]
        fab.close()
        fab2.close()

    def test_reference_engine_snapshots_are_empty_but_valid(self):
        cfg = NetworkConfig(8, engine="reference")
        fab = MulticastFabric(cfg)
        fab.run(_frames(8, 3, seed=3))
        snap = fab.snapshot()
        assert snap.assignments == []
        fab2 = MulticastFabric(cfg)
        assert fab2.restore(snap) == 0


class TestHealthAndBreaker:
    def _faulted_config(self):
        plan = FaultPlan.random(16, faults=4, seed=7)
        return NetworkConfig(
            16,
            engine="fast",
            fault_plan=plan,
            breaker=BreakerPolicy(
                failure_threshold=2, open_frames=3, half_open_probes=1
            ),
        )

    def test_quarantine_and_breaker_survive_restart(self):
        cfg = self._faulted_config()
        fab = MulticastFabric(cfg, strict=False)
        for f in _frames(16, 40, seed=4):
            fab.submit(f)
        assert fab.stats.quarantines > 0
        snap = fab.snapshot()
        assert snap.health is not None and snap.breaker is not None

        fab2 = MulticastFabric(cfg, strict=False)
        assert fab2.health.state is PlaneState.HEALTHY
        fab2.restore(snap)
        assert fab2.health.state is fab.health.state
        assert fab2.breaker.state is fab.breaker.state
        assert fab2.breaker.opens == fab.breaker.opens
        fab.close()
        fab2.close()

    def test_breakerless_fabric_ignores_breaker_state(self):
        plan = FaultPlan.random(16, faults=2, seed=1)
        cfg = NetworkConfig(16, engine="fast", fault_plan=plan)
        snap = FabricSnapshot(
            n=16, breaker={"state": "open"}, health=None
        )
        fab = MulticastFabric(cfg, strict=False)
        fab.restore(snap)  # no breaker attribute to restore into
        assert fab.breaker is None
        fab.close()


class TestJsonFormat:
    def test_round_trip_through_json_and_disk(self, tmp_path):
        cfg = NetworkConfig(16, engine="fast")
        fab = MulticastFabric(cfg)
        fab.run(_frames(16, 3, seed=5))
        snap = fab.snapshot()

        again = FabricSnapshot.from_json(snap.to_json())
        assert again.n == snap.n
        assert again.assignments == snap.assignments

        path = tmp_path / "fabric.json"
        snap.save(str(path))
        loaded = FabricSnapshot.load(str(path))
        assert loaded.assignments == snap.assignments
        fab.close()

    def test_wrong_kind_and_version_rejected(self):
        with pytest.raises(ValueError, match="fabric_snapshot"):
            FabricSnapshot.from_json('{"kind": "assignment", "n": 8}')
        with pytest.raises(ValueError, match="version"):
            FabricSnapshot.from_json(
                '{"kind": "fabric_snapshot", "version": 99, "n": 8}'
            )

    def test_size_mismatch_refused(self):
        snap = FabricSnapshot(n=32)
        fab = MulticastFabric(NetworkConfig(16, engine="fast"))
        with pytest.raises(ValueError, match="n=32"):
            fab.restore(snap)
        fab.close()

    def test_restore_recompiles_under_the_new_fault_plan(self):
        """Plans are recompiled by the restoring fabric's own compiler,
        so a different fault plan yields that plan's (different)
        behaviour, not stale healthy-plane plans."""
        cfg = NetworkConfig(16, engine="fast")
        fab = MulticastFabric(cfg)
        frames = _frames(16, 2, seed=6)
        fab.run(frames)
        snap = fab.snapshot()

        faulted = NetworkConfig(
            16, engine="fast", fault_plan=FaultPlan.random(16, faults=3, seed=2)
        )
        fab2 = MulticastFabric(faulted, strict=False)
        warmed = fab2.restore(snap)
        assert warmed == len(snap.assignments)
        # The warmed fabric still routes through its healing layer.
        result = fab2.submit(frames[0])
        assert hasattr(result, "outcomes")
        fab.close()
        fab2.close()


class TestSnapshotPathAutoPersistence:
    """``NetworkConfig(snapshot_path=...)``: close() persists, the next
    constructor warm-restores — no explicit snapshot calls."""

    def test_close_writes_and_reopen_restores(self, tmp_path):
        path = tmp_path / "state" / "fabric.json"
        cfg = NetworkConfig(16, engine="fast", snapshot_path=str(path))
        frames = _frames(16, 5, seed=3)

        fab = MulticastFabric(cfg)
        fab.run(frames)
        fab.close()
        assert path.exists()
        assert FabricSnapshot.load(str(path)).n == 16

        fab2 = MulticastFabric(cfg)
        try:
            fab2.run(frames)
            assert fab2.stats.plan_cache_misses == 0
            assert fab2.stats.plan_cache_hits > 0
        finally:
            fab2.close()

    def test_missing_file_starts_cold(self, tmp_path):
        cfg = NetworkConfig(
            16, engine="fast", snapshot_path=str(tmp_path / "absent.json")
        )
        fab = MulticastFabric(cfg)
        try:
            fab.run(_frames(16, 2, seed=4))
            assert fab.stats.plan_cache_misses > 0
        finally:
            fab.close()

    def test_non_string_path_rejected_by_name(self):
        with pytest.raises(ValueError, match="snapshot_path"):
            NetworkConfig(16, snapshot_path=7)


class TestAcrossCompileAhead:
    """A snapshot holds assignments, not compiled plans, so nothing
    about how a fabric compiles may leak into the document: one taken
    with compile-ahead restores into a fabric without it, and back."""

    @pytest.mark.parametrize("src_ahead,dst_ahead", [(2, 0), (0, 2)])
    def test_plan_cache_round_trip(self, src_ahead, dst_ahead):
        frames = _frames(16, 4, seed=8) * 3
        src = MulticastFabric(
            NetworkConfig(16, engine="fast", compile_ahead=src_ahead)
        )
        src.run(frames)
        snap = src.snapshot()
        src.close()

        dst = MulticastFabric(
            NetworkConfig(16, engine="fast", compile_ahead=dst_ahead)
        )
        assert dst.restore(snap) == len(snap.assignments) == 4
        for a in frames:
            dst.submit(a)
        assert dst.stats.plan_cache_misses == 0
        assert dst.stats.plan_cache_hits == len(frames)
        dst.close()

    def test_document_is_deterministic(self):
        """Two fabrics fed the same frames write identical documents."""
        docs = []
        for ahead in (0, 2):
            fab = MulticastFabric(
                NetworkConfig(16, engine="fast", compile_ahead=ahead)
            )
            for a in _frames(16, 4, seed=9):
                fab.submit(a)
            docs.append(FabricSnapshot.capture(fab).to_json())
            fab.close()
        assert docs[0] == docs[1]


def _rejections(metrics):
    counter = metrics.registry.get("repro_resilience_snapshot_total")
    return counter.value(action="snapshot_rejected")


class TestBadSnapshotStartsCold:
    """A snapshot that cannot be used never bricks startup: the fabric
    starts cold and counts one ``snapshot_rejected`` event."""

    def _start(self, path, n=16):
        metrics = MetricsObserver()
        fab = MulticastFabric(
            NetworkConfig(
                n, engine="fast", snapshot_path=str(path), observer=metrics
            )
        )
        return fab, metrics

    def _assert_cold(self, fab, metrics):
        assert len(fab.network.plan_cache) == 0
        assert _rejections(metrics) == 1
        fab.run(_frames(fab.n, 2, seed=10))
        assert fab.stats.plan_cache_misses == 2

    def test_torn_file(self, tmp_path):
        path = tmp_path / "fabric.json"
        path.write_text('{"kind": "fabric_snapshot", "vers')
        fab, metrics = self._start(path)
        self._assert_cold(fab, metrics)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "fabric.json"
        path.write_text(
            '{"kind": "fabric_snapshot", "version": 99, "n": 16, '
            '"assignments": []}'
        )
        fab, metrics = self._start(path)
        self._assert_cold(fab, metrics)

    def test_wrong_n(self, tmp_path):
        path = tmp_path / "fabric.json"
        big = MulticastFabric(
            NetworkConfig(32, engine="fast", snapshot_path=str(path))
        )
        big.run(_frames(32, 3, seed=11))
        big.close()
        assert FabricSnapshot.load(str(path)).n == 32
        fab, metrics = self._start(path, n=16)
        self._assert_cold(fab, metrics)

    def test_wrong_structure(self, tmp_path):
        path = tmp_path / "fabric.json"
        path.write_text(
            '{"kind": "fabric_snapshot", "version": 1, "n": 16, '
            '"assignments": [1]}'
        )
        fab, metrics = self._start(path)
        self._assert_cold(fab, metrics)

    def test_bad_breaker_state_rolls_back_health(self, tmp_path):
        path = tmp_path / "fabric.json"
        quarantined = {
            "state": "quarantined",
            "consecutive_failures": 0,
            "drained": 1,
            "clean_probes": 0,
            "quarantines": 1,
            "readmissions": 0,
        }
        FabricSnapshot(
            n=16,
            assignments=[{"0": [1, 2]}],
            health=quarantined,
            breaker={"state": "open"},
        ).save(str(path))
        metrics = MetricsObserver()
        fab = MulticastFabric(
            NetworkConfig(
                16,
                engine="fast",
                fault_plan=FaultPlan.random(16, faults=2, seed=1),
                breaker=BreakerPolicy(),
                snapshot_path=str(path),
                observer=metrics,
            ),
            strict=False,
        )
        assert fab.health.state is PlaneState.HEALTHY
        assert fab.health.quarantines == 0
        assert fab.breaker.state is BreakerState.CLOSED
        assert len(fab.network.plan_cache) == 0
        assert _rejections(metrics) == 1
        fab.close()

    def test_good_file_counts_no_rejection(self, tmp_path):
        path = tmp_path / "fabric.json"
        src = MulticastFabric(
            NetworkConfig(16, engine="fast", snapshot_path=str(path))
        )
        src.run(_frames(16, 3, seed=12))
        src.close()
        saved = len(FabricSnapshot.load(str(path)).assignments)
        fab, metrics = self._start(path)
        assert saved > 0 and len(fab.network.plan_cache) == saved
        assert _rejections(metrics) == 0
        counter = metrics.registry.get("repro_resilience_snapshot_total")
        assert counter.value(action="snapshot_restored") == 1


class TestAtomicSave:
    def test_interrupted_save_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "fabric.json"
        FabricSnapshot(n=16, assignments=[{"0": [1, 2]}]).save(str(path))
        before = path.read_bytes()

        import repro.resilience.snapshot as snapshot_mod

        def torn_fsync(fd):
            raise OSError("disk pulled mid-write")

        monkeypatch.setattr(snapshot_mod.os, "fsync", torn_fsync)
        with pytest.raises(OSError, match="mid-write"):
            FabricSnapshot(n=16, assignments=[{"3": [4]}] * 50).save(
                str(path)
            )
        assert path.read_bytes() == before
        # The temporary file was cleaned up; only the snapshot remains.
        assert [p.name for p in tmp_path.iterdir()] == ["fabric.json"]

    def test_save_replaces_atomically(self, tmp_path):
        path = tmp_path / "fabric.json"
        FabricSnapshot(n=16).save(str(path))
        FabricSnapshot(n=16, assignments=[{"0": [1]}]).save(str(path))
        assert FabricSnapshot.load(str(path)).assignments == [{"0": [1]}]
        assert [p.name for p in tmp_path.iterdir()] == ["fabric.json"]
