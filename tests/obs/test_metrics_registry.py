"""Metrics registry: counters, gauges, histograms, snapshots, merging."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ConfigError
from repro.obs import registry as obs_registry
from repro.obs.registry import (
    DEFAULT_BUCKETS_S,
    MetricsRegistry,
    MetricsSnapshot,
    metrics_scope,
)

pytestmark = pytest.mark.obs


class TestCounters:
    def test_inc_defaults_to_one(self):
        registry = MetricsRegistry()
        registry.inc("a")
        registry.inc("a")
        registry.inc("b", 5)
        assert registry.counter_value("a") == 2
        assert registry.counter_value("b") == 5

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0

    def test_counter_max_keeps_the_high_water_mark(self):
        registry = MetricsRegistry()
        registry.counter_max("a", 10)
        registry.counter_max("a", 3)
        assert registry.counter_value("a") == 10

    def test_snapshot_survives_writer_threads(self):
        """A read on one thread while others add histograms must not fail
        with "dictionary changed size during iteration" — even when a GC
        pass during the read runs finalizers that switch threads — and
        threads writing disjoint counters of one registry lose no update."""
        import gc
        import sys
        import threading

        class Cyclic:
            """Garbage only the cyclic GC frees, with a Python finalizer."""

            def __init__(self):
                self.cycle = self

            def __del__(self):
                sum(range(10))

        registry = MetricsRegistry()
        rounds = 20_000

        def write(name):
            for index in range(rounds):
                registry.inc(f"{name}.count")
                registry.observe(f"{name}.h{index % 1000}", 0.001)

        writers = [
            threading.Thread(target=write, args=(f"writer{i}",)) for i in range(3)
        ]
        interval = sys.getswitchinterval()
        threshold = gc.get_threshold()
        sys.setswitchinterval(1e-6)
        gc.set_threshold(50)
        try:
            for writer in writers:
                writer.start()
            for _ in range(rounds):
                registry.inc("reader.count")
                if any(writer.is_alive() for writer in writers):
                    Cyclic()
                    registry.snapshot()
            for writer in writers:
                writer.join(timeout=60)
        finally:
            gc.set_threshold(*threshold)
            sys.setswitchinterval(interval)
        assert not any(writer.is_alive() for writer in writers)
        snapshot = registry.snapshot()
        assert snapshot.counters == {
            "writer0.count": rounds,
            "writer1.count": rounds,
            "writer2.count": rounds,
            "reader.count": rounds,
        }
        assert len(snapshot.histograms) == 3000


class TestGauges:
    def test_gauge_set_overwrites_and_max_keeps_high_water(self):
        registry = MetricsRegistry()
        registry.gauge_set("depth", 5.0)
        registry.gauge_set("depth", 2.0)
        assert registry.gauge_value("depth") == 2.0
        registry.gauge_max("peak", 5.0)
        registry.gauge_max("peak", 2.0)
        assert registry.gauge_value("peak") == 5.0


class TestHistograms:
    def test_observe_counts_and_mean(self):
        registry = MetricsRegistry()
        for value in (0.001, 0.002, 0.004):
            registry.observe("lat", value)
        assert registry.histogram_count("lat") == 3
        snap = registry.snapshot().histograms["lat"]
        assert snap.mean == pytest.approx((0.001 + 0.002 + 0.004) / 3)
        assert snap.min_value == 0.001
        assert snap.max_value == 0.004

    def test_quantile_is_upper_bound(self):
        registry = MetricsRegistry()
        for _ in range(100):
            registry.observe("lat", 0.0009)  # lands in the <= 0.001 bucket
        q = registry.quantile("lat", 0.9)
        assert q is not None
        assert q >= 0.0009
        assert q in DEFAULT_BUCKETS_S

    def test_quantile_of_missing_histogram_is_none(self):
        assert MetricsRegistry().quantile("nope", 0.5) is None

    def test_overflow_bucket_reports_observed_max(self):
        registry = MetricsRegistry()
        registry.observe("lat", 99.0)  # beyond the last finite bound
        assert registry.quantile("lat", 0.99) == 99.0


class TestSnapshots:
    def test_snapshot_roundtrips_through_pickle_and_dict(self):
        registry = MetricsRegistry()
        registry.inc("c", 3)
        registry.gauge_set("g", 1.5)
        registry.observe("h", 0.01)
        snap = registry.snapshot()
        assert MetricsSnapshot.from_dict(snap.to_dict()) == snap
        assert pickle.loads(pickle.dumps(snap)) == snap

    def test_to_dict_is_sorted_and_deterministic(self):
        registry = MetricsRegistry()
        registry.inc("z")
        registry.inc("a")
        data = registry.snapshot().to_dict()
        assert list(data["counters"]) == ["a", "z"]

    def test_merged_sums_counters_maxes_gauges_adds_buckets(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("c", 2)
        right.inc("c", 3)
        left.gauge_max("peak", 7.0)
        right.gauge_max("peak", 4.0)
        left.observe("h", 0.001)
        right.observe("h", 0.004)
        merged = left.snapshot().merged(right.snapshot())
        assert merged.counters["c"] == 5
        assert merged.gauges["peak"] == 7.0
        assert merged.histograms["h"].count == 2
        assert merged.histograms["h"].min_value == 0.001
        assert merged.histograms["h"].max_value == 0.004

    def test_merge_order_independent(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.inc("c", 2)
        left.observe("h", 0.001)
        right.inc("c", 3)
        right.observe("h", 0.1)
        a = left.snapshot().merged(right.snapshot())
        b = right.snapshot().merged(left.snapshot())
        assert a == b

    def test_mismatched_bounds_refuse_to_merge(self):
        left, right = MetricsRegistry(), MetricsRegistry()
        left.observe("h", 0.001)
        right.observe("h", 0.001, bounds=(0.5, 1.0))
        with pytest.raises(ConfigError, match="bucket bounds"):
            left.snapshot().merged(right.snapshot())


class TestActiveRegistry:
    def test_free_functions_are_noops_without_registry(self):
        assert obs_registry.active_registry() is None
        # Must not raise, must not allocate a registry.
        obs_registry.inc("x")
        obs_registry.observe("y", 0.1)
        obs_registry.gauge_set("z", 1.0)
        assert obs_registry.active_registry() is None

    def test_metrics_scope_installs_and_restores(self):
        registry = MetricsRegistry()
        with metrics_scope(registry):
            obs_registry.inc("inside")
            assert obs_registry.active_registry() is registry
        assert obs_registry.active_registry() is None
        assert registry.counter_value("inside") == 1

    def test_install_returns_previous(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        assert obs_registry.install_metrics_registry(first) is None
        assert obs_registry.install_metrics_registry(second) is first
        assert obs_registry.install_metrics_registry(None) is second

    def test_reset_prefix_scopes_generations(self):
        registry = MetricsRegistry()
        registry.inc("server.a")
        registry.observe("server.lat", 0.1)
        registry.inc("pool.tasks")
        registry.reset_prefix("server.")
        assert registry.counter_value("server.a") == 0
        assert registry.histogram_count("server.lat") == 0
        assert registry.counter_value("pool.tasks") == 1
