"""Unit tests for the observability layer (``repro.obs``).

Covers the registry primitives (counters and gauges read by collectors,
histogram semantics and identity), snapshot merging, the Prometheus
text rendering, the JSONL exporter round-trip (including torn trailing
lines), the trace ring, and the HTTP scrape endpoint.
"""

import asyncio
import json
import logging

import pytest

import repro.obs.trace as trace_module
from repro.core.errors import ConfigurationError
from repro.obs import (
    Histogram,
    JsonlExporter,
    MetricsHttpServer,
    MetricsRegistry,
    TraceRing,
    last_snapshot,
    merge_snapshots,
    read_snapshots,
    render_prometheus,
)


def tallies(registry, **values):
    """Register a collector reading ``values`` (a dict the test keeps
    changing) and return that dict."""
    registry.register_collector(lambda: dict(values))
    return values


class TestCounterAndGauge:
    def test_counter_monotonic(self):
        """A ``_total`` series is a counter, read afresh at every
        snapshot from the tally that keeps it."""
        registry = MetricsRegistry()
        struct = {"sent": 1}
        registry.register_collector(lambda: {"repro_sent_total": struct["sent"]})
        assert registry.snapshot()["counters"] == {"repro_sent_total": 1}
        struct["sent"] += 4
        assert registry.snapshot()["counters"] == {"repro_sent_total": 5}
        assert registry.snapshot()["gauges"] == {}

    def test_gauge_moves_both_ways(self):
        registry = MetricsRegistry()
        depth = [10.0]
        registry.register_collector(lambda: {"repro_depth": depth[0]})
        seen = []
        for value in (10.0, 12.5, 12.0):
            depth[0] = value
            seen.append(registry.snapshot()["gauges"]["repro_depth"])
        assert seen == [10.0, 12.5, 12.0]
        assert registry.snapshot()["counters"] == {}


class TestHistogram:
    def test_bucketing_is_value_le_bound(self):
        histogram = Histogram(bounds=(1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            histogram.observe(value)
        # <=1.0 gets 0.5 and 1.0; <=10.0 gets 5.0 and 10.0; +Inf gets 11.0.
        assert histogram.counts == [2, 2, 1]
        assert histogram.count == 5
        assert histogram.sum == pytest.approx(27.5)
        assert histogram.mean == pytest.approx(5.5)

    def test_bounds_must_be_strictly_increasing_and_finite(self):
        with pytest.raises(ConfigurationError):
            Histogram(bounds=(1.0, 1.0))
        with pytest.raises(ConfigurationError):
            Histogram(bounds=(float("inf"),))
        with pytest.raises(ConfigurationError):
            Histogram(bounds=())

    def test_quantiles_interpolate_within_bucket(self):
        histogram = Histogram(bounds=(10.0, 20.0))
        for _ in range(100):
            histogram.observe(5.0)
        assert 0.0 < histogram.quantile(0.5) <= 10.0
        assert histogram.quantile(0.0) == pytest.approx(0.0)
        assert histogram.quantile(1.0) == pytest.approx(10.0)
        with pytest.raises(ConfigurationError):
            histogram.quantile(1.5)

    def test_overflow_quantile_reports_top_finite_bound(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(100.0)
        assert histogram.quantile(0.99) == 1.0

    def test_merge_requires_identical_bounds(self):
        left = Histogram(bounds=(1.0, 2.0))
        right = Histogram(bounds=(1.0, 2.0))
        left.observe(0.5)
        right.observe(1.5)
        right.observe(9.0)
        left.merge(right)
        assert left.counts == [1, 1, 1]
        assert left.count == 3
        with pytest.raises(ConfigurationError):
            left.merge(Histogram(bounds=(1.0, 3.0)))

    def test_dict_round_trip(self):
        histogram = Histogram(bounds=(0.1, 1.0))
        histogram.observe(0.05)
        histogram.observe(5.0)
        clone = Histogram.from_dict(
            json.loads(json.dumps(histogram.as_dict()))
        )
        assert clone.bounds == histogram.bounds
        assert clone.counts == histogram.counts
        assert clone.count == histogram.count
        assert clone.sum == pytest.approx(histogram.sum)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.histogram("repro_t_seconds") is registry.histogram(
            "repro_t_seconds"
        )

    def test_histogram_bounds_are_series_identity(self):
        registry = MetricsRegistry()
        registry.histogram("repro_t_seconds", bounds=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            registry.histogram("repro_t_seconds", bounds=(1.0, 3.0))

    def test_collectors_sync_external_tallies_at_snapshot(self):
        registry = MetricsRegistry(labels={"node": "a"})
        external = {"sent": 0}
        registry.register_collector(lambda: {"repro_sent_total": external["sent"]})
        external["sent"] = 7
        snapshot = registry.snapshot()
        assert snapshot["counters"]["repro_sent_total"] == 7
        assert snapshot["labels"] == {"node": "a"}

    def test_series_sort_by_name_and_a_later_collector_wins(self):
        registry = MetricsRegistry()
        tallies(registry, repro_b_total=1, repro_z=2.0, repro_a=1.0)
        tallies(registry, repro_a_total=3, repro_b_total=4)
        snapshot = registry.snapshot()
        assert list(snapshot["counters"].items()) == [
            ("repro_a_total", 3), ("repro_b_total", 4),
        ]
        assert list(snapshot["gauges"].items()) == [("repro_a", 1.0), ("repro_z", 2.0)]
        # A series that appears later takes its sorted place.
        tallies(registry, repro_m=0.5)
        assert list(registry.snapshot()["gauges"]) == ["repro_a", "repro_m", "repro_z"]


class TestMergeSnapshots:
    def _snapshot(self, node, sent, depth, hist_value):
        registry = MetricsRegistry(labels={"node": node, "cluster": "test"})
        tallies(registry, repro_sent_total=sent, repro_depth=depth)
        registry.histogram("repro_t_seconds", bounds=(1.0, 2.0)).observe(hist_value)
        return registry.snapshot()

    def test_counters_sum_histograms_fold_labels_intersect(self):
        merged = merge_snapshots(
            [self._snapshot("a", 3, 2.0, 0.5), self._snapshot("b", 4, 1.0, 1.5)]
        )
        assert merged["counters"]["repro_sent_total"] == 7
        assert merged["gauges"]["repro_depth"] == pytest.approx(3.0)
        histogram = Histogram.from_dict(merged["histograms"]["repro_t_seconds"])
        assert histogram.count == 2
        assert histogram.counts == [1, 1, 0]
        # Disagreeing labels (node identity) are erased; agreeing survive.
        assert merged["labels"] == {"cluster": "test"}


class TestPrometheusRendering:
    def test_counters_gauges_and_histograms_render(self):
        registry = MetricsRegistry(labels={"node": "a"})
        tallies(registry, repro_sent_total=5, repro_depth=2.0)
        histogram = registry.histogram("repro_t_seconds", bounds=(1.0, 2.0))
        histogram.observe(0.5)
        histogram.observe(9.0)
        text = registry.render_prometheus()
        assert 'repro_sent_total{node="a"} 5' in text
        assert 'repro_depth{node="a"} 2.0' in text
        assert 'repro_t_seconds_bucket{node="a",le="1.0"} 1' in text
        assert 'repro_t_seconds_bucket{node="a",le="+Inf"} 2' in text
        assert 'repro_t_seconds_count{node="a"} 2' in text
        assert text.endswith("\n")

    def test_render_from_plain_snapshot_dict(self):
        registry = MetricsRegistry()
        tallies(registry, repro_x_total=1)
        registry.histogram("repro_t_seconds", bounds=(1.0,)).observe(0.5)
        text = render_prometheus(registry.snapshot())
        assert text == (
            "repro_x_total 1\n"
            'repro_t_seconds_bucket{le="1.0"} 1\n'
            'repro_t_seconds_bucket{le="+Inf"} 1\n'
            "repro_t_seconds_sum 0.5\n"
            "repro_t_seconds_count 1\n"
        )

    def test_label_values_are_escaped(self):
        """A node id with a quote, a backslash or a newline still
        renders a line a scraper can parse."""
        registry = MetricsRegistry(labels={"node": 'a"b\\c\nd'})
        tallies(registry, repro_x_total=1)
        registry.histogram("repro_t_seconds", bounds=(1.0,)).observe(0.5)
        lines = registry.render_prometheus().splitlines()
        assert lines[0] == 'repro_x_total{node="a\\"b\\\\c\\nd"} 1'
        assert lines[1] == 'repro_t_seconds_bucket{node="a\\"b\\\\c\\nd",le="1.0"} 1'
        assert len(lines) == 5


class TestJsonlExporter:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        registry = MetricsRegistry(labels={"node": "a"})
        values = tallies(registry, repro_sent_total=2)
        with JsonlExporter(path) as exporter:
            exporter.export(registry.snapshot(), ts=1.0)
            values["repro_sent_total"] += 3
            exporter.export(registry.snapshot(), ts=2.0)
            assert exporter.lines_written == 2
        snapshots = read_snapshots(path)
        assert [s["ts"] for s in snapshots] == [1.0, 2.0]
        assert snapshots[-1]["counters"]["repro_sent_total"] == 5
        assert last_snapshot(path) == snapshots[-1]
        assert all("wall" in s for s in snapshots)

    def test_append_mode_survives_reopen(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        for ts in (1.0, 2.0):
            with JsonlExporter(path) as exporter:
                exporter.export({"counters": {}}, ts=ts)
        assert [s["ts"] for s in read_snapshots(path)] == [1.0, 2.0]

    def test_torn_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with JsonlExporter(path) as exporter:
            exporter.export({"counters": {"repro_x_total": 1}}, ts=1.0)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"ts": 2.0, "counters": {"repro_x_')  # crash mid-write
        snapshots = read_snapshots(path)
        assert len(snapshots) == 1
        assert last_snapshot(path)["ts"] == 1.0

    def test_missing_file_returns_none(self, tmp_path):
        with pytest.raises(OSError):
            read_snapshots(tmp_path / "absent.jsonl")


class TestTraceRing:
    def test_ring_keeps_newest_and_counts_lifetime(self, monkeypatch):
        monkeypatch.setattr(trace_module, "_CAPACITY", 3)
        ring = TraceRing()
        for i in range(5):
            ring.emit("alert", ts=float(i), seq=i)
        assert len(ring) == 3
        assert ring.emitted == 5
        assert [e["seq"] for e in ring.events()] == [2, 3, 4]

    def test_kind_filter(self):
        ring = TraceRing()
        ring.emit("alert", ts=1.0)
        ring.emit("quarantine", ts=2.0, peer="b")
        alerts = ring.events(kind="alert")
        assert len(alerts) == 1 and alerts[0]["kind"] == "alert"
        ring.clear()
        assert len(ring) == 0


class TestHttpEndpoint:
    def test_scrape_and_404(self):
        async def scenario():
            registry = MetricsRegistry(labels={"node": "a"})
            tallies(registry, repro_sent_total=9)
            server = MetricsHttpServer(registry, port=0)
            await server.start()
            assert server.port != 0

            async def fetch(path):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(
                    f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode()
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw.decode()

            ok = await fetch("/metrics")
            assert ok.startswith("HTTP/1.1 200 OK")
            assert 'repro_sent_total{node="a"} 9' in ok
            missing = await fetch("/other")
            assert missing.startswith("HTTP/1.1 404")
            await server.close()

        asyncio.run(scenario())

    def test_overlong_request_line_gets_400_and_the_server_keeps_serving(self, caplog):
        """A header line past the stream reader's 64 KiB limit is a bad
        request, answered as one — not an exception out of the handler."""

        async def scenario():
            registry = MetricsRegistry(labels={"node": "a"})
            tallies(registry, repro_sent_total=9)
            server = MetricsHttpServer(registry, port=0)
            await server.start()

            async def fetch(request: bytes) -> str:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(request)
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw.decode()

            huge = b"GET /metrics HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n"
            bad = await fetch(huge)
            ok = await fetch(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            await server.close()
            return bad, ok

        with caplog.at_level(logging.ERROR):
            bad, ok = asyncio.run(scenario())
        assert bad.startswith("HTTP/1.1 400 Bad Request")
        assert ok.startswith("HTTP/1.1 200 OK")
        assert 'repro_sent_total{node="a"} 9' in ok
        assert [r for r in caplog.records if r.levelno >= logging.ERROR] == []
