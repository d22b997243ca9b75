"""Golden tests for `--trace` on the CLI and `repro trace summarize`."""

import json

import pytest

from repro.cli import main
from repro.experiments.registry import REGISTRY, ExperimentEntry
from repro.obs import recorder as _obs
from repro.obs.recorder import NULL_RECORDER
from repro.obs.summary import (
    load_trace,
    prefix_accounting,
    probe_accounting,
    summarize_text,
)

SERVE_FAST = [
    "serve",
    "--epochs", "2",
    "--seed", "9",
    "--workloads", "M.lmps", "H.KM",
    "--policy-samples", "5",
]


@pytest.fixture
def tiny_experiment(monkeypatch):
    """A fast experiment so `repro run` tests stay quick."""

    def _run():
        with _obs.RECORDER.span("tiny.work") as span:
            span.set_sim(1.0)
        _obs.RECORDER.count("tiny.calls")
        return "ok"

    entry = ExperimentEntry(
        experiment_id="tinytest",
        paper_artifact="Test artifact",
        description="fast experiment for trace tests",
        run=_run,
        render=lambda result: f"result: {result}",
    )
    monkeypatch.setitem(REGISTRY, "tinytest", entry)
    return entry


class TestTraceFlag:
    def test_run_with_trace_produces_a_loadable_trace(
        self, tmp_path, capsys, tiny_experiment
    ):
        path = str(tmp_path / "run.json")
        assert main(["run", "tinytest", "--trace", path]) == 0
        captured = capsys.readouterr()
        assert "result: ok" in captured.out
        assert f"trace written to {path}" in captured.err
        payload = load_trace(path)
        names = [span["name"] for span in payload["spans"]]
        assert "tiny.work" in names
        assert payload["counters"]["tiny.calls"] == 1

    def test_trace_flag_works_at_top_level_too(
        self, tmp_path, capsys, tiny_experiment
    ):
        path = str(tmp_path / "run.json")
        assert main(["--trace", path, "run", "tinytest"]) == 0
        assert load_trace(path)["counters"]["tiny.calls"] == 1

    def test_recorder_uninstalled_after_main(self, tmp_path, tiny_experiment):
        path = str(tmp_path / "run.json")
        main(["run", "tinytest", "--trace", path])
        assert _obs.RECORDER is NULL_RECORDER

    def test_recorder_uninstalled_even_on_error(self, tmp_path, capsys):
        path = str(tmp_path / "bad.json")
        code = main(
            ["predict", "--model", str(tmp_path / "missing.json"),
             "--workload", "M.lmps", "--trace", path]
        )
        assert code == 1
        assert _obs.RECORDER is NULL_RECORDER

    def test_without_trace_nothing_is_written(self, tmp_path, capsys, tiny_experiment):
        assert main(["run", "tinytest"]) == 0
        assert list(tmp_path.iterdir()) == []


class TestServeTraceGolden:
    def test_serve_trace_is_byte_identical_across_runs(self, tmp_path, capsys):
        first = str(tmp_path / "a.json")
        second = str(tmp_path / "b.json")
        assert main(SERVE_FAST + ["--trace", first]) == 0
        assert main(SERVE_FAST + ["--trace", second]) == 0
        with open(first, "rb") as fa, open(second, "rb") as fb:
            assert fa.read() == fb.read()

    def test_serve_trace_carries_all_four_layers(self, tmp_path, capsys):
        path = str(tmp_path / "day.json")
        assert main(SERVE_FAST + ["--trace", path]) == 0
        payload = load_trace(path)
        names = {span["name"] for span in payload["spans"]}
        # One representative span per instrumented layer.
        assert "measure.setting" in names  # sim runner
        assert "profile.probe" in names  # profilers
        assert "anneal.restart" in names  # placement search
        assert "service.epoch" in names  # service loop
        assert payload["counters"]["engine.runs"] > 0  # engine
        assert payload["counters"]["service.epochs"] == 2


class TestTraceSummarize:
    def test_summarize_renders_rollups_and_table3(self, tmp_path, capsys):
        path = str(tmp_path / "day.json")
        main(SERVE_FAST + ["--trace", path])
        capsys.readouterr()
        assert main(["trace", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "Spans:" in out
        assert "service.epoch" in out
        assert "Profiling cost (Table 3" in out
        assert "M.lmps" in out and "H.KM" in out

    def test_summarize_rejects_garbage(self, tmp_path, capsys):
        garbage = {
            "junk.json": "not a trace",
            # Valid JSON, but a record or event that is no object.
            "list.jsonl": "[1, 2]\n",
            "chrome.json": '{"traceEvents": [1]}',
        }
        for name, text in garbage.items():
            path = tmp_path / name
            path.write_text(text)
            assert main(["trace", "summarize", str(path)]) == 1
            assert "error:" in capsys.readouterr().err

    def test_daemon_accounting_lists_counters_and_gauges(self):
        payload = {
            "spans": [],
            "counters": {
                "daemon.commits": 6,
                "daemon.claims": 8,
                "engine.runs": 3,
            },
            "gauges": {"daemon.queue_depth": 2, "other.gauge": 1},
        }
        rows = prefix_accounting(payload, ("daemon.",), gauges=True)
        assert rows == [
            ("daemon.claims", 8),
            ("daemon.commits", 6),
            ("daemon.queue_depth (gauge)", 2),
        ]
        text = summarize_text(payload)
        assert "Daemon (daemon.* counters and gauges):" in text
        assert "daemon.queue_depth (gauge)" in text

    def test_flat_traces_have_no_daemon_section(self):
        payload = {"spans": [], "counters": {"engine.runs": 3}}
        assert prefix_accounting(payload, ("daemon.",), gauges=True) == []
        assert "Daemon" not in summarize_text(payload)

    def test_probe_accounting_matches_builder_report(self, tmp_path, capsys):
        from repro.core.builder import build_model
        from repro.sim.runner import ClusterRunner

        path = str(tmp_path / "profile.jsonl")
        assert main(
            ["profile", "M.lmps", "--policy-samples", "3", "--seed", "4",
             "--trace", path]
        ) == 0
        report = build_model(
            ClusterRunner(base_seed=4), ["M.lmps"], policy_samples=3, seed=4
        )
        outcome = report.profiling_outcomes["M.lmps"]
        rows = probe_accounting(load_trace(path))
        assert ("M.lmps", "binary-optimized", outcome.settings_measured,
                outcome.total_settings) == rows[0][:4]


class TestOutputAlias:
    def test_output_and_out_both_accepted(self, tmp_path, capsys):
        for flag in ("--output", "--out"):
            model_path = str(tmp_path / f"model{flag.strip('-')}.json")
            assert main(
                ["profile", "M.lmps", flag, model_path,
                 "--policy-samples", "3", "--seed", "4"]
            ) == 0
            with open(model_path, "r", encoding="utf-8") as handle:
                assert "M.lmps" in json.load(handle)["profiles"]
