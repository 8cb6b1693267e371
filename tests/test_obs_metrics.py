"""Metrics registry and Prometheus exposition tests for repro.obs.metrics.

The scrape half covers the bug this layer fixed: the old renderer only
annotated latency summaries, so strict Prometheus parsers rejected the
bare counter and gauge samples.  ``parse_exposition`` below enforces the
0.0.4 text-format contract — every sample line must sit under a ``# HELP``
and ``# TYPE`` pair for its metric family — first against a registry built
by hand, then against a live ``/metrics`` endpoint with the engine and
simulation metric families registered.
"""

from __future__ import annotations

import json
import urllib.request
from typing import Dict

import pytest

from repro.obs.metrics import MetricsRegistry, percentile


def parse_exposition(text: str) -> Dict[str, dict]:
    """Parse Prometheus text format 0.0.4, strictly.

    Returns ``{family: {"help": str, "type": str, "samples": [(name,
    labels, value)]}}`` and asserts that every sample line belongs to a
    family whose ``# HELP`` and ``# TYPE`` lines both appeared first.
    """
    families: Dict[str, dict] = {}
    current: Dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            family, _, help_text = rest.partition(" ")
            assert help_text, f"line {number}: HELP without text"
            assert family not in families, (
                f"line {number}: family {family} declared twice"
            )
            families[family] = {"help": help_text, "type": "", "samples": []}
            current = families[family]
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            family, _, kind = rest.partition(" ")
            assert family in families, (
                f"line {number}: TYPE before HELP for {family}"
            )
            assert kind in {"counter", "gauge", "summary", "histogram"}, (
                f"line {number}: bad type {kind!r}"
            )
            families[family]["type"] = kind
            continue
        assert not line.startswith("#"), f"line {number}: stray comment"
        name, _, value_text = line.partition(" ")
        labels = ""
        if "{" in name:
            name, _, labels = name.partition("{")
            labels = "{" + labels
        family = name
        # Summary series samples (_count/_sum) belong to the base family.
        for suffix in ("_count", "_sum"):
            if name.endswith(suffix) and name[: -len(suffix)] in families:
                family = name[: -len(suffix)]
        assert family in families, (
            f"line {number}: sample {name} outside any HELP/TYPE family"
        )
        assert families[family]["type"], (
            f"line {number}: sample {name} before its TYPE line"
        )
        families[family]["samples"].append(
            (name, labels, float(value_text))
        )
    return families


class TestPercentile:
    def test_empty_and_singleton(self):
        assert percentile([], 0.5) == 0.0
        assert percentile([7.0], 0.99) == 7.0

    def test_linear_interpolation(self):
        assert percentile([0.0, 10.0], 0.5) == 5.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_service_shim_removed(self):
        # The repro.service.metrics re-export shim was removed in v2.0;
        # repro.obs.metrics is the only home.
        with pytest.raises(ImportError):
            from repro.service.metrics import percentile  # noqa: F401


class TestRegistry:
    def test_counters_and_gauges(self):
        registry = MetricsRegistry()
        registry.inc("jobs_total")
        registry.inc("jobs_total", 2)
        registry.gauge("depth", lambda: 4.0)
        assert registry.counter("jobs_total") == 3
        snapshot = registry.to_dict()
        assert snapshot["counters"]["jobs_total"] == 3
        assert snapshot["gauges"]["depth"] == 4.0

    def test_latency_summary_quantiles(self):
        registry = MetricsRegistry()
        for ms in range(1, 101):
            registry.observe("exec", ms / 1000.0)
        summary = registry.latency_summary("exec")
        assert summary["count"] == 100
        assert summary["p50"] == pytest.approx(0.0505, abs=1e-6)
        assert summary["p99"] == pytest.approx(0.09901, abs=1e-5)

    def test_registry_importable_from_service_package(self):
        # The service package re-exposes the canonical registry class for
        # daemon embedders (the deep repro.service.metrics module is gone).
        from repro.service import MetricsRegistry as reexported

        assert reexported is MetricsRegistry


class TestPrometheusRendering:
    def test_every_metric_kind_is_annotated(self):
        registry = MetricsRegistry()
        registry.inc("jobs_total", help="jobs accepted")
        registry.gauge("queue_depth", lambda: 2.0, help="queued jobs")
        registry.observe("exec", 0.25, help="execution latency")
        registry.inc("undescribed_total")  # placeholder HELP path

        families = parse_exposition(registry.render_prometheus())
        assert families["repro_jobs_total"]["type"] == "counter"
        assert families["repro_jobs_total"]["help"] == "jobs accepted"
        assert families["repro_queue_depth"]["type"] == "gauge"
        assert families["repro_exec_seconds"]["type"] == "summary"
        assert families["repro_undescribed_total"]["help"]

        quantiles = [
            labels
            for name, labels, _ in families["repro_exec_seconds"]["samples"]
            if name == "repro_exec_seconds"
        ]
        assert quantiles == [
            '{quantile="0.5"}', '{quantile="0.95"}', '{quantile="0.99"}',
        ]

    def test_summary_emits_count_and_sum(self):
        registry = MetricsRegistry()
        registry.observe("exec", 1.0)
        registry.observe("exec", 3.0)
        families = parse_exposition(registry.render_prometheus())
        samples = {
            name: value
            for name, _, value in families["repro_exec_seconds"]["samples"]
        }
        assert samples["repro_exec_seconds_count"] == 2
        assert samples["repro_exec_seconds_sum"] == pytest.approx(4.0)


class TestLabeledSeries:
    def test_inc_and_set_and_read_back(self):
        registry = MetricsRegistry()
        registry.set_labeled("worker_tasks", {"worker": "a"}, 2, kind="counter")
        # A set installs the absolute total; it does not add to it.
        registry.set_labeled("worker_tasks", {"worker": "a"}, 3, kind="counter")
        registry.set_labeled(
            "worker_tasks", {"worker": "b"}, 7, kind="counter",
        )
        assert registry.labeled_value("worker_tasks", {"worker": "a"}) == 3
        assert registry.labeled_value("worker_tasks", {"worker": "b"}) == 7
        assert registry.labeled_value("worker_tasks", {"worker": "c"}) == 0.0

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.set_labeled("inflight", {"worker": "a"}, 1, kind="gauge")
        with pytest.raises(ValueError, match="is a gauge, not a counter"):
            registry.set_labeled("inflight", {"worker": "a"}, 2,
                                 kind="counter")

    def test_remove_series_and_family(self):
        registry = MetricsRegistry()
        registry.set_labeled("inflight", {"worker": "a"}, 1, kind="gauge")
        registry.set_labeled("inflight", {"worker": "b"}, 2, kind="gauge")
        registry.remove_labeled("inflight", {"worker": "a"})
        assert registry.labeled_value("inflight", {"worker": "a"}) == 0.0
        assert registry.labeled_value("inflight", {"worker": "b"}) == 2
        registry.remove_labeled("inflight")
        assert registry.labeled_series("inflight") == {}

    def test_labeled_families_render_and_parse_strictly(self):
        registry = MetricsRegistry()
        registry.set_labeled(
            "fleet_worker_tasks_done_total", {"worker": "alpha"}, 5,
            kind="counter", help="tasks per worker",
        )
        registry.set_labeled(
            "fleet_worker_tasks_done_total", {"worker": "beta"}, 2,
            kind="counter",
        )
        registry.set_labeled(
            "fleet_worker_inflight", {"worker": "alpha"}, 1.0, kind="gauge",
        )
        families = parse_exposition(registry.render_prometheus())
        done = families["repro_fleet_worker_tasks_done_total"]
        assert done["type"] == "counter"
        assert done["help"] == "tasks per worker"
        assert sorted(
            (labels, value) for _, labels, value in done["samples"]
        ) == [('{worker="alpha"}', 5.0), ('{worker="beta"}', 2.0)]
        inflight = families["repro_fleet_worker_inflight"]
        assert inflight["type"] == "gauge"
        assert inflight["samples"] == [
            ("repro_fleet_worker_inflight", '{worker="alpha"}', 1.0),
        ]

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.set_labeled(
            "inflight", {"worker": 'we"ird\\name\n'}, 1, kind="gauge",
        )
        rendered = registry.render_prometheus()
        assert '{worker="we\\"ird\\\\name\\n"}' in rendered
        # The escaped line still parses under the strict grammar.
        parse_exposition(rendered)

    def test_to_dict_includes_labeled_section(self):
        registry = MetricsRegistry()
        registry.set_labeled(
            "inflight", {"worker": "a"}, 3, kind="gauge",
        )
        snapshot = registry.to_dict()
        assert snapshot["labeled"]["inflight"] == [
            {"labels": {"worker": "a"}, "value": 3.0},
        ]


class TestLiveScrape:
    """Scrape a real server: the whole stack's metrics parse strictly."""

    @pytest.fixture()
    def service(self, tmp_path):
        from test_service_server import Served

        served = Served(tmp_path / "cache")
        served.start_worker()
        yield served
        served.stop()

    def _get(self, url: str) -> str:
        with urllib.request.urlopen(url, timeout=30.0) as response:
            return response.read().decode("utf-8")

    def test_metrics_expose_engine_and_simulation_families(self, service):
        from repro.service import ServiceClient

        client = ServiceClient(service.url, timeout=30.0)
        receipt = client.submit_simulate("database")
        client.result(receipt["id"], timeout=60.0)

        families = parse_exposition(self._get(service.url + "/metrics"))
        for family in [
            "repro_jobs_submitted_total",     # service layer
            "repro_engine_jobs_ok_total",     # engine layer
            "repro_cache_memory_hits",        # artifact cache
            "repro_sim_epochs_total",         # simulation layer
            "repro_sim_sb_occupancy_hwm",
        ]:
            assert family in families, f"missing {family}"
        (sample,) = families["repro_sim_epochs_total"]["samples"]
        assert sample[2] > 0

        snapshot = json.loads(
            self._get(service.url + "/metrics?format=json")
        )
        assert snapshot["counters"]["jobs_submitted_total"] == 1
        assert snapshot["gauges"]["engine_jobs_ok_total"] == 1
        assert snapshot["gauges"]["sim_epochs_total"] > 0
