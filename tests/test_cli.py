"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestTheoryCommand:
    def test_prints_curve(self, capsys):
        code, out = run_cli(capsys, "theory", "--r", "100", "--x", "20")
        assert code == 0
        assert "P_err" in out
        assert "3.47" in out  # the paper's optimum

    def test_k_max_respected(self, capsys):
        code, out = run_cli(capsys, "theory", "--r", "50", "--x", "10", "--k-max", "3")
        lines = [line for line in out.splitlines() if line.strip() and line.strip()[0].isdigit()]
        assert len(lines) == 3


class TestDimensionCommand:
    def test_recipe_fields(self, capsys):
        code, out = run_cli(
            capsys,
            "dimension", "--nodes", "1000", "--send-rate", "0.2",
            "--delay-ms", "100", "--budget-bytes", "512",
        )
        assert code == 0
        assert "concurrency X" in out
        assert "keys per process K" in out
        assert "vector-clock bytes" in out

    def test_tiny_budget_still_valid(self, capsys):
        code, out = run_cli(
            capsys, "dimension", "--nodes", "10", "--send-rate", "1",
            "--budget-bytes", "8",
        )
        assert code == 0
        assert "vector size R" in out


class TestSimulateCommand:
    BASE = [
        "simulate", "--nodes", "15", "--r", "30", "--k", "3",
        "--lambda-ms", "800", "--duration-ms", "6000", "--seed", "4",
    ]

    def test_text_output(self, capsys):
        code, out = run_cli(capsys, *self.BASE)
        assert code == 0
        assert "eps_min" in out
        assert "stuck pending" in out

    def test_json_output(self, capsys):
        code, out = run_cli(capsys, *self.BASE, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["traffic"]["sent"] > 0
        assert payload["traffic"]["delivered_remote"] == payload["traffic"]["sent"] * 14
        assert payload["traffic"]["stuck_pending"] == 0
        counters = payload["counters"]
        assert 0.0 <= counters["eps_min"] <= counters["eps_max"] <= 1.0

    def test_clock_choices(self, capsys):
        for clock in ("vector", "lamport", "plausible", "bloom"):
            code, out = run_cli(capsys, *self.BASE, "--clock", clock, "--json")
            assert code == 0, clock
            assert json.loads(out)["traffic"]["stuck_pending"] == 0


class TestSweepCommand:
    def test_sweep_k(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--parameter", "k", "--values", "2,3",
            "--nodes", "12", "--r", "24", "--lambda-ms", "800",
            "--duration-ms", "5000", "--repeats", "1",
        )
        assert code == 0
        assert "sweep of k" in out
        data_lines = [l for l in out.splitlines() if l.strip().startswith(("2", "3"))]
        assert len(data_lines) == 2

    def test_sweep_lambda(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--parameter", "lambda", "--values", "500,1000",
            "--nodes", "10", "--r", "20", "--duration-ms", "4000",
            "--repeats", "1",
        )
        assert code == 0
        assert "sweep of lambda" in out

    def test_sweep_nodes(self, capsys):
        code, out = run_cli(
            capsys,
            "sweep", "--parameter", "nodes", "--values", "8,12",
            "--r", "20", "--lambda-ms", "800", "--duration-ms", "4000",
            "--repeats", "1",
        )
        assert code == 0
        assert "sweep of nodes" in out


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_invalid_clock_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--clock", "quantum"])

    def test_removed_spellings_fail_loudly(self):
        """One drain engine, one socket path: the old selectors are
        errors, not silently ignored."""
        from repro import NodeConfig, SimulationConfig

        for argv in (["simulate", "--engine", "indexed"],
                     ["node", "--io-mode", "batched"],
                     ["node", "--coalesce-mtu", "1400"],
                     ["node", "--ack-delay", "0.005"],
                     ["node", "--rx-batch", "32"],
                     ["node", "--tx-batch", "32"],
                     # the node runs the paper's clock only
                     ["node", "--clock", "vector"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(argv)
        for build in (lambda: NodeConfig(engine="indexed"),
                      lambda: NodeConfig(io_mode="batched"),
                      lambda: SimulationConfig(n_nodes=4, engine="indexed")):
            with pytest.raises(TypeError):
                build()

    def test_choices_track_the_registry(self, monkeypatch):
        # The parser reads its choices from the scheme map: a family
        # there is selectable here without a second list in the CLI.
        from repro.core import clocks

        monkeypatch.setitem(clocks.SCHEMES, "cli-test-clock", clocks.ProbabilisticCausalClock)
        args = build_parser().parse_args(["simulate", "--clock", "cli-test-clock"])
        assert args.clock == "cli-test-clock"


class TestEnginesCommand:
    def test_lists_registered_components(self, capsys):
        code, out = run_cli(capsys, "engines")
        assert code == 0
        for name in ("probabilistic", "plausible", "lamport", "vector",
                     "bloom"):
            assert name in out
        assert "delivery engines" not in out
        for name in ("none", "basic", "refined"):
            assert name in out
        # capability descriptors surface in the listing
        assert "needs_dense_index" in out


class TestNodeCommand:
    def test_solo_node_runs_and_reports_stats(self, capsys):
        code, out = run_cli(
            capsys,
            "node", "--id", "solo", "--count", "2",
            "--interval", "0.01", "--duration", "0.05",
        )
        assert code == 0
        assert "listening on 127.0.0.1:" in out
        assert "solo" in out
        assert "hello-0" in out and "hello-1" in out
        assert "retransmits=" in out

    def test_two_nodes_exchange_over_udp(self, capsys):
        # The CLI runs its own event loop, so host the receiving node on
        # a background-thread loop and point the CLI sender at it.
        import asyncio
        import threading
        import time

        from repro.api import NodeConfig, create_node
        from tests.recording import Deliveries

        log = Deliveries()
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        try:
            receiver = asyncio.run_coroutine_threadsafe(
                create_node("rx", NodeConfig(r=128, k=3), on_delivery=log.append), loop
            ).result(timeout=10)
            host, port = receiver.local_address
            code = main([
                "node", "--id", "tx", "--peer", f"{host}:{port}",
                "--count", "2", "--interval", "0.01", "--duration", "0.3",
            ])
            assert code == 0
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                if len(log) == 2:
                    break
                time.sleep(0.01)
            assert log.payloads() == ["hello-0", "hello-1"]
            asyncio.run_coroutine_threadsafe(receiver.close(), loop).result(timeout=10)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()

    def test_bad_listen_spec_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["node", "--listen", "no-port", "--count", "0"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["node", "--adaptive"], "adaptive needs membership"),
            (["node", "--heartbeat-interval", "0.5", "--quarantine-after", "0.1"],
             "quarantine_after"),
            (["node", "--k", "200"], "K <= R"),
            (["simulate", "--k", "500", "--r", "10"], "K <= R"),
            (["node", "--adaptive", "--bootstrap", "--detector", "refined"],
             "detector='basic'"),
        ],
    )
    def test_rejected_configuration_is_a_usage_error(self, capsys, argv, message):
        """A configuration the library refuses ends in one line on
        stderr and exit code 2, not a traceback."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro {argv[0]}: error: ")
        assert message in captured.err and "Traceback" not in captured.err


class TestStatsCommand:
    def _export(self, tmp_path, name="m.jsonl"):
        from repro.obs import JsonlExporter, MetricsRegistry

        registry = MetricsRegistry(labels={"node": "a"})
        registry.register_collector(lambda: {
            "repro_endpoint_sent_total": 5, "repro_pending_depth": 2.0,
        })
        registry.histogram(
            "repro_delivery_wait_seconds", bounds=(0.01, 0.1)
        ).observe(0.05)
        path = tmp_path / name
        with JsonlExporter(path) as exporter:
            exporter.export(registry.snapshot(), ts=3.0)
        return path

    def test_renders_tables(self, capsys, tmp_path):
        path = self._export(tmp_path)
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0
        assert "node=a" in out
        assert "repro_endpoint_sent_total" in out
        assert "repro_pending_depth" in out
        assert "repro_delivery_wait_seconds" in out
        assert "p95" in out

    def test_json_output(self, capsys, tmp_path):
        path = self._export(tmp_path)
        code, out = run_cli(capsys, "stats", str(path), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["counters"]["repro_endpoint_sent_total"] == 5

    def test_prometheus_output(self, capsys, tmp_path):
        path = self._export(tmp_path)
        code, out = run_cli(capsys, "stats", str(path), "--prometheus")
        assert code == 0
        assert 'repro_endpoint_sent_total{node="a"} 5' in out
        assert 'le="+Inf"' in out

    def test_merges_multiple_files(self, capsys, tmp_path):
        first = self._export(tmp_path, "a.jsonl")
        second = self._export(tmp_path, "b.jsonl")
        code, out = run_cli(capsys, "stats", str(first), str(second), "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["counters"]["repro_endpoint_sent_total"] == 10

    def test_fleet_merge_recomputes_the_delta_health_gauges(self, capsys, tmp_path):
        """Summing a ratio over nodes is meaningless: the merged view is
        misses over arriving deltas fleet-wide."""
        from repro.obs import JsonlExporter, MetricsRegistry

        paths = []
        for name, misses, decoded in (("a", 30, 70), ("b", 0, 300)):
            registry = MetricsRegistry(labels={"node": name})
            registry.register_collector(lambda misses=misses, decoded=decoded: {
                "repro_wire_delta_ref_misses_total": misses,
                "repro_wire_delta_received_total": decoded,
                "repro_delta_ref_miss_ratio": misses / (misses + decoded),
            })
            paths.append(tmp_path / f"{name}.jsonl")
            with JsonlExporter(paths[-1]) as exporter:
                exporter.export(registry.snapshot(), ts=1.0)
        code, out = run_cli(capsys, "stats", *map(str, paths), "--json")
        assert code == 0
        gauges = json.loads(out)["gauges"]
        assert gauges["repro_delta_ref_miss_ratio"] == pytest.approx(30 / 400)
        code, out = run_cli(capsys, "stats", str(paths[0]))
        assert "repro_delta_ref_miss_ratio" in out

    def test_fleet_merge_recomputes_the_repair_duplicate_ratio(self, capsys, tmp_path):
        """Duplicates land on one node, the repairs leave another: the
        fleet's share is the summed duplicates over the summed repairs."""
        from repro.obs import JsonlExporter, MetricsRegistry

        paths = []
        for name, sent, duplicates in (("a", 8, 0), ("b", 0, 2)):
            registry = MetricsRegistry(labels={"node": name})
            registry.register_collector(lambda sent=sent, duplicates=duplicates: {
                "repro_antientropy_repairs_sent_total": sent,
                "repro_antientropy_repair_duplicates_total": duplicates,
                "repro_antientropy_repair_duplicate_ratio": duplicates / sent if sent else 0.0,
            })
            paths.append(tmp_path / f"{name}.jsonl")
            with JsonlExporter(paths[-1]) as exporter:
                exporter.export(registry.snapshot(), ts=1.0)
        code, out = run_cli(capsys, "stats", *map(str, paths), "--json")
        assert code == 0
        gauges = json.loads(out)["gauges"]
        assert gauges["repro_antientropy_repair_duplicate_ratio"] == pytest.approx(2 / 8)
        assert "repro_delta_ref_miss_ratio" not in gauges

    def test_missing_file_fails_cleanly(self, capsys, tmp_path):
        code = main(["stats", str(tmp_path / "absent.jsonl")])
        captured = capsys.readouterr()
        assert code == 1
        assert "absent.jsonl" in captured.err

    def test_empty_file_fails_cleanly(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        code = main(["stats", str(empty)])
        captured = capsys.readouterr()
        assert code == 1
        assert "no complete snapshot" in captured.err


class TestMetricsFlags:
    def test_simulate_exports_snapshot(self, capsys, tmp_path):
        from repro.obs import last_snapshot

        path = tmp_path / "sim.jsonl"
        code, out = run_cli(
            capsys,
            "simulate", "--nodes", "10", "--r", "30", "--k", "3",
            "--lambda-ms", "500", "--duration-ms", "3000", "--seed", "2",
            "--metrics-path", str(path),
        )
        assert code == 0
        snapshot = last_snapshot(path)
        assert snapshot is not None
        assert snapshot["labels"] == {"mode": "sim"}
        assert snapshot["counters"]["repro_sim_deliveries_total"] > 0
        histogram = snapshot["histograms"]["repro_sim_delivery_latency_ms"]
        assert histogram["count"] > 0

    def test_node_reports_detector_and_exports_metrics(self, capsys, tmp_path):
        path = tmp_path / "node.jsonl"
        code, out = run_cli(
            capsys,
            "node", "--id", "solo", "--count", "2",
            "--interval", "0.01", "--duration", "0.1",
            "--metrics-path", str(path), "--metrics-interval", "0.03",
            "--metrics-port", "0",
        )
        assert code == 0
        assert "detector: checks=" in out
        assert "alert_rate=" in out
        assert "metrics: http://127.0.0.1:" in out
        # The exported file round-trips through the stats renderer.
        code, out = run_cli(capsys, "stats", str(path))
        assert code == 0
        assert "repro_endpoint_sent_total" in out
        assert "repro_state_entries_store_messages" in out
