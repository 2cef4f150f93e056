"""Public API surface: everything advertised imports and works."""

import importlib

import pytest

import repro

# The supported top-level surface, exactly.  Additions here are API
# commitments: anything reachable only through subpackages (fastplan,
# fast_scatter, per-switch internals) is private and free to change.
STABLE_API = [
    "AdmissionGate",
    "AdmissionPolicy",
    "BRSMN",
    "BinarySplittingNetwork",
    "BreakerPolicy",
    "BreakerState",
    "CircuitBreaker",
    "ClusterConfig",
    "ClusterStats",
    "CompositeObserver",
    "ControlPlane",
    "ControlPolicy",
    "DeadlineBudget",
    "DegradedResult",
    "FabricCluster",
    "FabricReplica",
    "FabricSnapshot",
    "FabricStats",
    "FaultKind",
    "FaultPlan",
    "FeedbackBRSMN",
    "Message",
    "MetricsObserver",
    "MetricsRegistry",
    "MulticastAssignment",
    "MulticastFabric",
    "NetworkConfig",
    "NullSink",
    "Observer",
    "QueueingSimulator",
    "ReplicaState",
    "ResilienceEvent",
    "RetryPolicy",
    "RollingRestart",
    "RoutingResult",
    "ShedFrame",
    "SignalWindow",
    "Tag",
    "TagTree",
    "TracingObserver",
    "build_network",
    "paper_example_assignment",
    "route_multicast",
    "route_resilient",
    "verify_result",
    "__version__",
]


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_is_exactly_the_stable_surface(self):
        assert repro.__all__ == STABLE_API

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_fast_engine_internals_stay_private(self):
        """Compiled-plan internals are reachable via subpackages only."""
        for name in ("compile_frame_plan", "FramePlan", "PlanCache", "fastplan"):
            assert name not in repro.__all__
            assert not hasattr(repro, name), name

    def test_quickstart_snippet(self):
        """The README quickstart, verbatim."""
        from repro import MulticastAssignment, route_multicast

        assignment = MulticastAssignment(
            8, [{0, 1}, None, {3, 4, 7}, {2}, None, None, None, {5, 6}]
        )
        result = route_multicast(8, assignment)
        assert {o: m.source for o, m in result.delivered.items()} == {
            0: 0, 1: 0, 2: 3, 3: 2, 4: 2, 5: 7, 6: 7, 7: 2,
        }


@pytest.mark.parametrize(
    "module",
    [
        "repro.core",
        "repro.obs",
        "repro.faults",
        "repro.resilience",
        "repro.control",
        "repro.cluster",
        "repro.parallel",
        "repro.rbn",
        "repro.hardware",
        "repro.baselines",
        "repro.workloads",
        "repro.analysis",
        "repro.viz",
        "repro.cli",
        "repro.errors",
    ],
)
class TestSubpackages:
    def test_all_exports_resolve(self, module):
        mod = importlib.import_module(module)
        assert hasattr(mod, "__all__"), module
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_module_docstrings(self, module):
        mod = importlib.import_module(module)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20


class TestRemovedParallelSurface:
    """The batch-sharding executors are gone; only compile-ahead and
    the one plan cache remain."""

    def test_parallel_exports_only_compile_ahead(self):
        parallel = importlib.import_module("repro.parallel")
        assert parallel.__all__ == ["CompileAheadPipeline", "WorkerPool"]
        for name in (
            "ConcurrentPlanCache", "ShardedBatchRouter", "shard_bounds",
            "ProcessShardRouter", "ProcessWorkerPool", "PlanEnvelope",
        ):
            assert not hasattr(parallel, name), name

    def test_no_process_event_or_worker_loop(self):
        events = importlib.import_module("repro.obs.events")
        control = importlib.import_module("repro.control")
        assert not hasattr(events, "ProcessEvent")
        assert not hasattr(events.Observer, "on_process")
        assert not hasattr(control, "WorkerState")
        assert not hasattr(control, "worker_step")

    def test_plan_cache_is_the_one_cache(self):
        from repro.core import PlanCache

        for ahead in (0, 2):
            net = repro.BRSMN(
                repro.NetworkConfig(16, engine="fast", compile_ahead=ahead)
            )
            assert type(net.plan_cache) is PlanCache
            if ahead:
                assert net.pipeline.cache is net.plan_cache
            net.close()


class TestObserverProtocol:
    def test_one_hook(self):
        from repro.obs import Observer

        assert callable(Observer.on_event)
        assert [n for n in dir(Observer) if n.startswith("on_")] == [
            "on_event"
        ]
        for name in (
            "on_frame_start", "on_level", "on_frame_done", "on_cache_event",
            "on_queue_depth", "on_fault", "on_parallel", "on_resilience",
            "on_control", "on_cluster",
        ):
            assert not hasattr(Observer, name), name


class TestDocstringCoverage:
    def test_every_public_callable_documented(self):
        """Deliverable (e): doc comments on every public item."""
        undocumented = []
        for module_name in (
            "repro.core", "repro.obs", "repro.faults", "repro.resilience",
            "repro.control", "repro.cluster", "repro.parallel", "repro.rbn",
            "repro.hardware", "repro.baselines",
            "repro.workloads", "repro.analysis", "repro.viz",
        ):
            mod = importlib.import_module(module_name)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if type(obj).__module__ == "typing":
                    continue  # type aliases carry no docstring of their own
                if callable(obj) and not isinstance(obj, type):
                    if not getattr(obj, "__doc__", None):
                        undocumented.append(f"{module_name}.{name}")
                elif isinstance(obj, type):
                    if not obj.__doc__:
                        undocumented.append(f"{module_name}.{name}")
        assert not undocumented, undocumented

    def test_public_methods_documented(self):
        """Spot-check classes central to the API."""
        from repro import BRSMN, FeedbackBRSMN, MulticastAssignment, TagTree

        for cls in (BRSMN, FeedbackBRSMN, MulticastAssignment, TagTree):
            for name, member in vars(cls).items():
                if name.startswith("_") or not callable(member):
                    continue
                assert member.__doc__, f"{cls.__name__}.{name}"
