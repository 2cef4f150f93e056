"""Lifecycle hooks: emission order, both engines, cache and queue events.

The contract under test: per routed frame the stack emits exactly one
``FrameStart``, then the frame's level spans (and, on the fast engine,
plan-cache events), then exactly one ``FrameDone`` — in that order —
and nothing at all when the attached observer is disabled.
"""

import numpy as np
import pytest

from repro.core.arrivals import QueueingSimulator, poisson_arrivals
from repro.core.brsmn import BRSMN
from repro.core.config import NetworkConfig
from repro.core.fabric import MulticastFabric
from repro.core.multicast import MulticastAssignment, paper_example_assignment
from repro.obs import (
    CompositeObserver,
    MetricsObserver,
    NullSink,
    Observer,
    TracingObserver,
)
from repro.obs.events import CacheEvent, FrameDone, FrameStart, LevelSpan


def _traced_net(n, engine):
    tr = TracingObserver()
    net = BRSMN(NetworkConfig(n, engine=engine, observer=tr))
    return net, tr


class TestEmissionOrder:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_frame_start_levels_done(self, engine):
        net, tr = _traced_net(8, engine)
        net.route(paper_example_assignment())
        kinds = [type(e) for e in tr.events]
        assert kinds[0] is FrameStart
        assert kinds[-1] is FrameDone
        assert kinds.count(FrameStart) == 1 and kinds.count(FrameDone) == 1
        assert LevelSpan in kinds[1:-1]
        # timestamps agree with the ordering
        start, done = tr.events[0], tr.events[-1]
        assert start.t_ns <= done.t_ns
        assert done.duration_ns == done.t_ns - start.t_ns

    def test_frame_ids_increase(self):
        net, tr = _traced_net(8, "fast")
        a = paper_example_assignment()
        net.route(a)
        net.route(a)
        ids = [e.frame_id for e in tr.events if isinstance(e, FrameStart)]
        assert ids == sorted(ids) and len(set(ids)) == 2

    def test_frame_start_payload(self):
        net, tr = _traced_net(8, "reference")
        net.route(paper_example_assignment(), mode="oracle")
        start = tr.events[0]
        assert start.n == 8
        assert start.engine == "reference"
        assert start.mode == "oracle"
        assert start.frames == 1
        assert start.active_inputs == 4
        assert start.fanout == 8


class TestLevelSpans:
    def test_reference_levels_cover_the_recursion(self):
        net, tr = _traced_net(16, "reference")
        net.route(MulticastAssignment.from_dict(16, {0: list(range(16))}))
        tl = tr.timelines()[0]
        assert [s.level for s in tl.levels] == [1, 2, 3, 4]
        assert [s.size for s in tl.levels] == [16, 8, 4, 2]
        assert [s.blocks for s in tl.levels] == [1, 2, 4, 8]
        assert all(s.engine == "reference" for s in tl.levels)
        # level m is the delivery layer, everything above is BSN work
        assert set(tl.levels[-1].stage_ns) == {"deliver"}
        for span in tl.levels[:-1]:
            assert set(span.stage_ns) == {"bsn"}
            assert span.duration_ns > 0

    def test_fast_levels_carry_compile_stages(self):
        net, tr = _traced_net(16, "fast")
        net.route(MulticastAssignment.from_dict(16, {0: list(range(16))}))
        tl = tr.timelines()[0]
        assert [s.level for s in tl.levels] == [1, 2, 3]
        assert [s.size for s in tl.levels] == [16, 8, 4]
        assert all(s.engine == "fast" for s in tl.levels)
        for span in tl.levels:
            assert set(span.stage_ns) == {"tag", "scatter", "quasisort", "gather"}
            assert span.duration_ns >= max(span.stage_ns.values())
        # the broadcast splits once per level on its way to 16 outputs
        assert sum(s.splits for s in tl.levels) > 0
        assert tl.stage_ns().keys() == {"tag", "scatter", "quasisort", "gather"}

    def test_split_totals_match_result(self):
        net, tr = _traced_net(8, "reference")
        res = net.route(paper_example_assignment())
        tl = tr.timelines()[0]
        assert sum(s.splits for s in tl.levels) == res.total_splits
        assert sum(s.switch_ops for s in tl.levels) == res.switch_ops


class TestCacheEvents:
    def test_miss_then_hit(self):
        net, tr = _traced_net(8, "fast")
        a = paper_example_assignment()
        net.route(a)
        net.route(a)
        first, second = tr.timelines()
        assert [e.kind for e in first.cache_events] == ["miss"]
        assert [e.kind for e in second.cache_events] == ["hit"]
        assert first.done.cache_hit is False
        assert second.done.cache_hit is True
        # cache events land between the frame markers
        kinds = [
            (type(e), getattr(e, "kind", None)) for e in tr.events
        ]
        assert kinds.index((CacheEvent, "miss")) > kinds.index((FrameStart, None))

    def test_eviction_emitted(self):
        tr = TracingObserver()
        net = BRSMN(NetworkConfig(8, engine="fast", plan_cache_size=1, observer=tr))
        net.route(MulticastAssignment.from_dict(8, {0: [1]}))
        net.route(MulticastAssignment.from_dict(8, {2: [3]}))
        kinds = [e.kind for e in tr.events if isinstance(e, CacheEvent)]
        assert kinds == ["miss", "miss", "evict"] or kinds == ["miss", "evict", "miss"]

    def test_reference_engine_emits_no_cache_events(self):
        net, tr = _traced_net(8, "reference")
        net.route(paper_example_assignment())
        assert not [e for e in tr.events if isinstance(e, CacheEvent)]
        assert tr.timelines()[0].done.cache_hit is None


class TestBatchRouting:
    def test_fast_batch_is_one_submission(self):
        net, tr = _traced_net(8, "fast")
        mat = np.arange(5 * 8).reshape(5, 8).astype(object)
        net.route_batch(paper_example_assignment(), mat)
        starts = [e for e in tr.events if isinstance(e, FrameStart)]
        dones = [e for e in tr.events if isinstance(e, FrameDone)]
        assert len(starts) == len(dones) == 1
        assert starts[0].frames == 5 and dones[0].frames == 5
        assert dones[0].deliveries == 8  # per-frame deliveries

    def test_metrics_scale_by_batch_size(self):
        mo = MetricsObserver()
        net = BRSMN(NetworkConfig(8, engine="fast", observer=mo))
        mat = np.arange(5 * 8).reshape(5, 8).astype(object)
        net.route_batch(paper_example_assignment(), mat)
        frames = mo.registry.get("repro_frames_total")
        assert frames.value(engine="fast", mode="oracle") == 5.0
        assert mo.registry.get("repro_deliveries_total").value() == 40.0


class TestFabricAndComposite:
    def test_fabric_wires_config_observer(self):
        tr = TracingObserver()
        mo = MetricsObserver()
        fabric = MulticastFabric(
            NetworkConfig(8, observer=CompositeObserver(tr, mo))
        )
        fabric.submit(paper_example_assignment())
        assert len(tr.timelines()) == 1
        assert (
            mo.registry.get("repro_frames_total").value(
                engine="reference", mode="selfrouting"
            )
            == 1.0
        )

    def test_observer_kwarg_overrides_config(self):
        tr_cfg, tr_kw = TracingObserver(), TracingObserver()
        fabric = MulticastFabric(
            NetworkConfig(8, observer=tr_cfg), observer=tr_kw
        )
        fabric.submit(paper_example_assignment())
        assert not tr_cfg.events
        assert tr_kw.events

    def test_composite_drops_disabled_members(self):
        tr = TracingObserver()
        comp = CompositeObserver(NullSink(), tr, None)
        assert comp.observers == (tr,)
        assert comp.enabled
        assert not CompositeObserver(NullSink()).enabled
        assert not CompositeObserver().enabled

    def test_nullsink_keeps_sites_dormant(self):
        sink = NullSink()
        net = BRSMN(NetworkConfig(8, observer=sink))
        res = net.route(paper_example_assignment())
        assert res.delivered  # routing itself unaffected
        assert sink.enabled is False

    def test_base_observer_hooks_are_noops(self):
        obs = Observer()
        net = BRSMN(NetworkConfig(8, observer=obs))
        assert net.route(paper_example_assignment()).delivered


class TestQueueDepth:
    def test_simulator_samples_every_slot(self):
        tr = TracingObserver()
        sim = QueueingSimulator(
            NetworkConfig(8, engine="fast"), observer=tr
        )
        arrivals = poisson_arrivals(8, rate=1.0, slots=6, seed=3)
        report = sim.run(arrivals)
        assert len(tr.queue_samples) == report.slots_run
        assert [q.slot for q in tr.queue_samples] == list(range(report.slots_run))
        assert [q.depth for q in tr.queue_samples] == report.backlog_per_slot
        assert sum(q.served for q in tr.queue_samples) == report.served

    def test_metrics_observer_gauges(self):
        mo = MetricsObserver()
        sim = QueueingSimulator(NetworkConfig(8), observer=mo)
        arrivals = poisson_arrivals(8, rate=1.0, slots=6, seed=3)
        report = sim.run(arrivals)
        assert (
            mo.registry.get("repro_queue_served_total").value()
            == float(report.served)
        )
        assert (
            mo.registry.get("repro_queue_depth").value()
            == float(report.backlog_per_slot[-1])
        )


class _RaisesOnFrameDone(Observer):
    def on_event(self, event):
        if isinstance(event, FrameDone):
            raise RuntimeError("observer bug")


class TestObserverFailureIsolation:
    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_raising_observer_does_not_break_submit(self, engine):
        bad = _RaisesOnFrameDone()
        fabric = MulticastFabric(NetworkConfig(8, engine=engine, observer=bad))
        result = fabric.submit(paper_example_assignment())
        assert result.delivered
        assert fabric.stats.frames == 1
        assert bad.errors == 1

    def test_only_the_first_failure_is_logged(self, caplog):
        bad = _RaisesOnFrameDone()
        fabric = MulticastFabric(NetworkConfig(8, observer=bad))
        fabric.submit(paper_example_assignment())
        fabric.submit(paper_example_assignment())
        assert bad.errors == 2
        (record,) = caplog.records
        assert record.exc_info[0] is RuntimeError

    def test_raising_leg_does_not_starve_the_others(self):
        bad, mo = _RaisesOnFrameDone(), MetricsObserver()
        comp = CompositeObserver(bad, mo)
        MulticastFabric(NetworkConfig(8, observer=comp)).submit(
            paper_example_assignment()
        )
        frames = mo.registry.get("repro_frames_total")
        assert frames.value(engine="reference", mode="selfrouting") == 1.0
        assert (bad.errors, mo.errors, comp.errors) == (1, 0, 0)


class TestRemovedHooks:
    def test_old_style_subclass_fails_loudly(self):
        for hook in (
            "on_frame_start", "on_level", "on_frame_done", "on_cache_event",
            "on_queue_depth", "on_fault", "on_parallel", "on_resilience",
            "on_control", "on_cluster",
        ):
            with pytest.raises(TypeError, match="on_event"):
                type("OldStyle", (Observer,), {hook: lambda self, e: None})
