"""ControlPlane: signal windows, binding, actuation, events, export."""

import json

import pytest

from repro.control import ControlPlane, ControlPolicy, SignalAggregator
from repro.obs import MetricsObserver
from repro.obs.events import (
    ControlEvent,
    FaultEvent,
    FrameDone,
    ResilienceEvent,
    emit,
)
from repro.core.fastplan import PlanCache
from repro.parallel import CompileAheadPipeline, WorkerPool
from repro.resilience import AdmissionGate, AdmissionPolicy
from repro.faults import RetryPolicy

from conftest import EventRecorder


def shed_high(aggregator, count=1):
    for _ in range(count):
        emit(aggregator, ResilienceEvent(action="shed", priority=1))


class TestSignalAggregator:
    def test_empty_window(self):
        agg = SignalAggregator(4)
        w = agg.window()
        assert w.ticks == 0 and w.frames == 0

    def test_counts_fold_into_current_bucket(self):
        agg = SignalAggregator(4)
        emit(agg, FrameDone(frame_id=1, deliveries=3, frames=2))
        emit(agg, ResilienceEvent(action="admitted", priority=1))
        emit(agg, ResilienceEvent(action="shed", priority=0))
        emit(agg, FaultEvent(action="retry"))
        emit(agg, FaultEvent(action="lost", terminals=(3, 5)))
        agg.close_tick(queue_depth=7)
        w = agg.window()
        assert w.ticks == 1 and w.frames == 2
        assert w.admitted_high == 1 and w.shed_low == 1
        assert w.retries == 1 and w.lost_terminals == 2
        assert w.queue_depth == 7

    def test_window_slides(self):
        agg = SignalAggregator(2)
        for depth in (1, 2, 3):
            emit(agg, ResilienceEvent(action="shed", priority=1))
            agg.close_tick(queue_depth=depth)
        w = agg.window()
        assert w.ticks == 2        # oldest bucket evicted
        assert w.shed_high == 2    # flows sum over the window
        assert w.queue_depth == 3  # levels come from the latest tick

    def test_levels_not_summed(self):
        agg = SignalAggregator(4)
        agg.close_tick(queue_depth=10, breaker_half_open=True)
        agg.close_tick(queue_depth=0, breaker_half_open=False)
        w = agg.window()
        assert w.queue_depth == 0 and not w.breaker_half_open

    def test_bad_window_rejected_by_name(self):
        with pytest.raises(ValueError, match="window_ticks"):
            SignalAggregator(0)


class TestTickCadence:
    def test_tick_frames_batches_events(self):
        plane = ControlPlane(ControlPolicy(tick_frames=3))
        assert not plane.maybe_tick()
        assert not plane.maybe_tick()
        assert plane.maybe_tick()
        assert plane.tick_count == 1

    def test_tick_events_reach_the_owner_observer(self):
        rec = EventRecorder()
        plane = ControlPlane(ControlPolicy(), observer=rec)
        plane.tick()
        assert [e.action for e in rec.of(ControlEvent)] == ["tick"]
        assert rec.of(ControlEvent)[0].tick == 1
        assert rec.of(ControlEvent)[0].t_ns > 0


class TestGateActuation:
    def test_shed_high_raises_gate_rate_and_reserve(self):
        gate = AdmissionGate(AdmissionPolicy(rate=1.0, burst=8.0))
        plane = ControlPlane(ControlPolicy(rate_increase=0.5))
        plane.bind(gate=gate)
        shed_high(plane.signals)
        plane.tick(queue_depth=0)
        assert gate.policy.rate == 1.5
        assert gate.policy.reserve == 0.5

    def test_backlog_cuts_gate_rate(self):
        gate = AdmissionGate(AdmissionPolicy(rate=4.0, burst=8.0))
        plane = ControlPlane(ControlPolicy(backlog_high=10.0))
        plane.bind(gate=gate)
        plane.tick(queue_depth=50)
        assert gate.policy.rate == 2.0

    def test_reserve_never_reaches_gate_burst(self):
        # The gate would raise on reserve >= burst; the plane's
        # reserve_cap keeps every decided value applicable.
        gate = AdmissionGate(AdmissionPolicy(rate=1.0, burst=2.0))
        plane = ControlPlane(
            ControlPolicy(reserve_step=5.0, reserve_max=100.0)
        )
        plane.bind(gate=gate)
        for _ in range(4):
            shed_high(plane.signals)
            plane.tick(queue_depth=0)
        assert gate.policy.reserve == 1.0  # burst - 1, not reserve_max

    def test_unbound_plane_ticks_without_actuating(self):
        plane = ControlPlane(ControlPolicy())
        shed_high(plane.signals)
        plane.tick(queue_depth=99)
        assert plane.decision_log() == []


class TestPipelineAndWorkerActuation:
    @pytest.fixture()
    def pool(self):
        p = WorkerPool(1)
        yield p
        p.shutdown()

    def test_idle_window_shrinks_pipeline_depth(self, pool):
        pipeline = CompileAheadPipeline(
            PlanCache(maxsize=8), pool, depth=3
        )
        plane = ControlPlane(ControlPolicy())
        plane.bind(pipeline=pipeline)
        plane.tick()
        assert pipeline.depth == 2


class TestBackoffActuation:
    def test_half_open_breaker_scales_retry_policy(self):
        class HalfOpenBreaker:
            state = "half_open"

        applied = []
        base = RetryPolicy(base_delay_s=0.1, max_delay_s=1.0)
        plane = ControlPlane(ControlPolicy(half_open_backoff_scale=2.0))
        plane.bind(
            breaker=HalfOpenBreaker(),
            retry_policy=base,
            retry_setter=applied.append,
        )
        plane.tick()
        assert applied[-1].base_delay_s == pytest.approx(0.2)
        assert applied[-1].max_delay_s == pytest.approx(2.0)

        HalfOpenBreaker.state = "closed"
        plane.tick()
        assert applied[-1] is base  # scale 1.0 returns the base policy


class TestDecisionLog:
    def make_logged_plane(self):
        gate = AdmissionGate(AdmissionPolicy(rate=1.0, burst=8.0))
        plane = ControlPlane(ControlPolicy())
        plane.bind(gate=gate)
        shed_high(plane.signals)
        plane.tick(queue_depth=0)
        return plane

    def test_entries_carry_no_wall_clock(self):
        log = self.make_logged_plane().decision_log()
        assert log, "expected at least one decision"
        for entry in log:
            assert set(entry) == {
                "tick", "controller", "parameter", "old", "new", "reason"
            }

    def test_log_is_a_copy(self):
        plane = self.make_logged_plane()
        plane.decision_log().clear()
        assert plane.decision_log()

    def test_export_round_trips(self, tmp_path):
        plane = self.make_logged_plane()
        path = tmp_path / "nested" / "decisions.json"
        plane.export_decision_log(str(path))
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert doc["ticks"] == plane.tick_count
        assert doc["decisions"] == plane.decision_log()

    def test_adjust_events_mirror_the_log(self):
        rec = EventRecorder()
        gate = AdmissionGate(AdmissionPolicy(rate=1.0, burst=8.0))
        plane = ControlPlane(ControlPolicy(), observer=rec)
        plane.bind(gate=gate)
        shed_high(plane.signals)
        plane.tick(queue_depth=0)
        adjusts = [e for e in rec.of(ControlEvent) if e.action == "adjust"]
        log = plane.decision_log()
        assert len(adjusts) == len(log)
        for event, entry in zip(adjusts, log):
            assert event.controller == entry["controller"]
            assert event.parameter == entry["parameter"]
            assert event.new == entry["new"]
            assert event.t_ns > 0  # events do carry wall-clock


class TestControlMetrics:
    def test_metric_families_populated(self):
        metrics = MetricsObserver()
        gate = AdmissionGate(AdmissionPolicy(rate=1.0, burst=8.0))
        plane = ControlPlane(ControlPolicy(), observer=metrics)
        plane.bind(gate=gate)
        shed_high(plane.signals)
        plane.tick(queue_depth=0)
        doc = json.loads(metrics.registry.to_json())
        by_name = {m["name"]: m for m in doc["metrics"]}
        assert by_name["repro_control_ticks_total"]["samples"][0]["value"] == 1
        decisions = by_name["repro_control_decisions_total"]["samples"]
        assert sum(s["value"] for s in decisions) == len(plane.decision_log())
        assert (
            by_name["repro_control_admission_rate"]["samples"][0]["value"]
            == gate.policy.rate
        )
