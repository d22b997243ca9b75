"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

SERVE_FAST = [
    "serve",
    "--epochs", "2",
    "--seed", "9",
    "--workloads", "M.lmps", "H.KM",
    "--policy-samples", "5",
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_validates_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])


class TestListCommand:
    def test_lists_catalog_and_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "M.lmps" in out
        assert "fig2" in out
        assert "fig13" in out


class TestProfilePredictRoundtrip:
    def test_profile_then_predict(self, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        code = main(
            [
                "profile", "M.lmps",
                "--out", model_path,
                "--policy-samples", "5",
                "--seed", "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "M.lmps" in out and "Bubble score" in out

        code = main(
            [
                "predict", "--model", model_path,
                "--workload", "M.lmps",
                "--pressure", "6", "--count", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "M.lmps" in out and "x solo time" in out

    def test_predict_heterogeneous(self, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        main(["profile", "M.lmps", "--out", model_path,
              "--policy-samples", "5", "--seed", "4"])
        capsys.readouterr()
        code = main(
            [
                "predict", "--model", model_path,
                "--workload", "M.lmps",
                "--pressures", "6,3,0,0,0,0,0,0",
            ]
        )
        assert code == 0
        assert "heterogeneous" in capsys.readouterr().out

    def test_predict_missing_model_errors(self, capsys):
        code = main(
            ["predict", "--model", "/nonexistent.json", "--workload", "M.lmps"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestProfileAlgorithms:
    def test_random_sampling_algorithm(self, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        code = main(
            [
                "profile", "M.lmps",
                "--out", model_path,
                "--algorithm", "random-30%",
                "--policy-samples", "5",
                "--seed", "4",
            ]
        )
        assert code == 0
        assert "Bubble score" in capsys.readouterr().out


class TestServeCommand:
    def test_serves_a_short_day(self, tmp_path, capsys):
        log_path = tmp_path / "events.jsonl"
        code = main(SERVE_FAST + ["--event-log", str(log_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "epoch" in out
        assert "epoch_end" in out
        lines = log_path.read_text().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "epoch_end" in kinds

    def test_day_is_deterministic_across_processes(self, tmp_path, capsys):
        paths = []
        for name in ("a", "b"):
            log = tmp_path / f"{name}.jsonl"
            snap = tmp_path / f"{name}.json"
            assert main(
                SERVE_FAST + ["--event-log", str(log), "--snapshot", str(snap)]
            ) == 0
            paths.append((log, snap))
        capsys.readouterr()
        (log_a, snap_a), (log_b, snap_b) = paths
        assert log_a.read_bytes() == log_b.read_bytes()
        assert snap_a.read_bytes() == snap_b.read_bytes()

    def test_expectation_roundtrip(self, tmp_path, capsys):
        expect = tmp_path / "expect.json"
        assert main(SERVE_FAST + ["--update-expect", str(expect)]) == 0
        assert main(SERVE_FAST + ["--expect", str(expect)]) == 0
        assert "expectation check passed" in capsys.readouterr().out

    def test_expectation_fails_on_violation_regression(self, tmp_path, capsys):
        expect = tmp_path / "expect.json"
        assert main(SERVE_FAST + ["--update-expect", str(expect)]) == 0
        data = json.loads(expect.read_text())
        data["final"]["qos_violations_total"] = -1
        expect.write_text(json.dumps(data))
        assert main(SERVE_FAST + ["--expect", str(expect)]) == 1
        assert "QoS-violation regression" in capsys.readouterr().err

    def test_bad_fault_plan_reports_cli_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"crash_rat": 0.5}))
        assert main(SERVE_FAST + ["--faults", str(plan)]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "crash_rat" in err

    def test_resume_requires_checkpoint(self, capsys):
        assert main(SERVE_FAST + ["--resume"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "--resume requires --checkpoint" in err


class TestServeCellsAndResume:
    """``--resume`` finishes its day; flags of the other mode are refused.

    The ``--cells 1`` == flat identity is pinned in
    ``tests/scale/test_service.py``.
    """

    @pytest.fixture(scope="class")
    def flat_day(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("flat")
        assert main(
            SERVE_FAST + [
                "--event-log", str(out / "events.jsonl"),
                "--snapshot", str(out / "snapshot.json"),
            ]
        ) == 0
        return out

    def test_resumed_day_equals_the_uninterrupted_one(
        self, tmp_path, flat_day
    ):
        durable = [
            "--checkpoint", str(tmp_path / "day.ckpt"),
            "--event-log", str(tmp_path / "events.jsonl"),
        ]
        assert main(SERVE_FAST + durable + ["--epochs", "1"]) == 0
        assert main(
            SERVE_FAST + durable + [
                "--snapshot", str(tmp_path / "snapshot.json"), "--resume",
            ]
        ) == 0
        for name in ("events.jsonl", "snapshot.json"):
            assert (tmp_path / name).read_bytes() == (
                flat_day / name
            ).read_bytes()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--cells", "1", "--nodes", "16"], "--cells 2 or more"),
            (
                ["--cells", "2", "--provider", "elastic",
                 "--max-nodes", "20"],
                "sized by their shard",
            ),
        ],
        ids=["one-cell-nodes", "cells-max-nodes"],
    )
    def test_rejects_flags_of_the_other_mode(self, flags, message, capsys):
        assert main(SERVE_FAST + flags) == 1
        assert message in capsys.readouterr().err


class TestNetworkFlags:
    """``--network-noise`` / ``--domains`` on profile, serve and daemon."""

    def test_flat_defaults(self):
        from repro.cli._parents import wants_network

        parser = build_parser()
        for argv in (
            ["profile", "M.lmps"],
            ["serve"],
            ["daemon", "--spool", "/tmp/s"],
        ):
            args = parser.parse_args(argv)
            assert args.network_noise == 0.0, argv[0]
            assert tuple(args.domains) == ("compute",), argv[0]
            assert not wants_network(args), argv[0]

    def test_parse_values(self):
        from repro.cli._parents import wants_network

        args = build_parser().parse_args(
            ["serve", "--network-noise", "2.5",
             "--domains", "compute", "network"]
        )
        assert args.network_noise == 2.5
        assert "network" in args.domains
        assert wants_network(args)

    def test_unknown_domain_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--domains", "disk"])

    def test_profile_network_then_predict_by_domain(self, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        code = main(
            [
                "profile", "D.PS",
                "--out", model_path,
                "--policy-samples", "5",
                "--seed", "4",
                "--domains", "compute", "network",
            ]
        )
        assert code == 0
        assert "Network score" in capsys.readouterr().out

        code = main(
            [
                "predict", "--model", model_path,
                "--workload", "D.PS",
                "--pressure", "6", "--count", "2",
                "--domain", "network",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "network domain" in out and "x solo time" in out

    def test_compute_profile_table_unchanged_by_default(self, capsys):
        assert main(
            ["profile", "M.lmps", "--policy-samples", "5", "--seed", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "Bubble score" in out
        assert "Network score" not in out
