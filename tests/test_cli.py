"""Tests for the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.profile_store import save_model

CHAOS_PLAN = str(
    Path(__file__).resolve().parents[1]
    / "benchmarks" / "baselines" / "chaos_plan.json"
)

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


class TestRunCommand:
    @pytest.mark.parametrize("argv", [
        ["run", "table3", "--faults", CHAOS_PLAN],
        ["--faults", CHAOS_PLAN, "run", "table3"],
    ], ids=["after-verb", "before-verb"])
    def test_rejects_a_fault_plan_before_running(self, argv, capsys):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "--faults" in captured.err
        assert "Running" not in captured.out + captured.err


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

    @pytest.mark.parametrize("flag, value", [
        ("--pressures", "nan"),
        ("--pressures", "1,,2"),
        ("--pressures", "1,inf"),
        ("--pressures", ""),
        ("--pressure", "-1"),
        ("--pressure", "inf"),
        ("--count", "-1"),
        ("--count", "nan"),
    ])
    def test_predict_rejects_bad_numbers(self, flag, value, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        matrix = PropagationMatrix(
            [4.0, 8.0], [0.0, 1.0], np.array([[1.0, 1.2], [1.0, 1.5]])
        )
        save_model(
            InterferenceModel({"M.lmps": InterferenceProfile(
                "M.lmps", matrix, "N MAX", bubble_score=2.5
            )}),
            model_path,
        )
        code = main(
            ["predict", "--model", str(model_path), "--workload", "M.lmps",
             flag, value]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert f"error: {flag} " in captured.err
        assert "solo time" not in captured.out


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


_SPOT = ["--provider", "elastic", "--spot-fraction", "2"]
_MIX = ["--workloads", "M.lmps", "H.KM", "--policy-samples", "5"]
_BAD_DAY_FLAGS = [
    pytest.param(verb, flags, message, id=f"{name}-{verb}")
    for name, flags, message in [
        ("epochs", ["--epochs", "0"], "--epochs must be at least 1"),
        ("arrival-rate", ["--arrival-rate", "-1"],
         "arrival_rate must be non-negative"),
        ("arrival-rate-nan", ["--arrival-rate", "nan"],
         "arrival_rate must be non-negative and finite"),
        ("arrival-rate-inf", ["--arrival-rate", "inf"],
         "arrival_rate must be non-negative and finite"),
        ("migration-cost", ["--migration-cost", "-1"],
         "migration_cost must be non-negative"),
        ("migration-cost-nan", ["--migration-cost", "nan"],
         "migration_cost must be non-negative and finite"),
        ("spot-fraction", _SPOT, "spot_fraction must be in [0, 1]"),
        ("workloads",
         ["--workloads", "M.lmps", "X.bogus", "--policy-samples", "5"],
         "unknown workload 'X.bogus'"),
        ("policy-samples", _MIX + ["--policy-samples", "0"],
         "--policy-samples must be at least 1"),
        ("zero-initial-nodes",
         _MIX + ["--epochs", "1", "--provider", "elastic",
                 "--initial-nodes", "0"],
         "initial_nodes must be in [1, 4], got 0"),
        ("zero-max-nodes",
         _MIX + ["--epochs", "1", "--provider", "elastic",
                 "--max-nodes", "0"],
         "max_nodes must be positive"),
    ]
    for verb in ("serve", "daemon")
] + [
    pytest.param("serve", _MIX + ["--epochs", "1", "--cells", "2",
                                  "--nodes", "0"],
                 "num_nodes must be positive", id="cells-zero-nodes-serve"),
    pytest.param("serve", _MIX + ["--epochs", "1", "--cells", "1",
                                  "--nodes", "0"],
                 "--nodes/--cell-workers require --cells 2 or more",
                 id="one-cell-zero-nodes-serve"),

    pytest.param("serve", ["--cells", "2"] + _SPOT,
                 "spot_fraction must be in [0, 1]",
                 id="cells-spot-fraction-serve"),
    pytest.param("serve", _MIX + ["--cells", "3", "--nodes", "2"],
                 "cannot shard 2 node(s) into 3 cells",
                 id="cells-nodes-serve"),
    pytest.param("serve", _MIX + ["--cells", "2", "--cell-workers", "-1"],
                 "--cell-workers must be non-negative",
                 id="cell-workers-serve"),
    pytest.param("daemon", ["--lease-ticks", "0"],
                 "lease_ticks must be at least 2", id="lease-ticks-daemon"),
    pytest.param("daemon", ["--exec-ticks", "0"],
                 "exec_ticks must be positive", id="exec-ticks-daemon"),
]


class TestDayFlags:
    """``serve`` and ``daemon`` share their traffic-day flags."""

    @pytest.mark.parametrize("verb, flags, message", _BAD_DAY_FLAGS)
    def test_rejects_bad_day_flags_before_profiling(
        self, verb, flags, message, tmp_path, capsys
    ):
        spool = tmp_path / "spool"
        argv = [verb, "--seed", "9"] + flags
        if verb == "daemon":
            argv += ["--spool", str(spool)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {message}" in err
        assert "Profiling" not in err
        assert not spool.exists()

    @pytest.mark.parametrize("verb", ["serve", "daemon"])
    def test_only_static_and_elastic_pools(self, verb, tmp_path, capsys):
        argv = [verb]
        if verb == "daemon":
            argv += ["--spool", str(tmp_path / "spool")]
        assert build_parser().parse_args(argv).provider == "static"
        day = SERVE_FAST[1:] + ["--epochs", "1", "--provider", "ec2"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv + day)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'ec2'" in err
        assert "Profiling" not in err


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


class TestSubmitCommand:
    @pytest.mark.parametrize("flag, value", [
        ("--weight", "0"),
        ("--weight", "-5"),
        ("--weight", "nan"),
        ("--qos-target", "nan"),
        ("--qos-target", "inf"),
    ])
    def test_rejects_a_job_no_day_could_run(self, flag, value, tmp_path, capsys):
        from repro.daemon import JobSpool

        spool = tmp_path / "spool"
        argv = ["submit", "M.lmps", "--spool", str(spool),
                "--units", "2", "--duration", "3", flag, value]
        assert main(argv) == 1
        assert "error: " in capsys.readouterr().err
        assert JobSpool(spool).jobs() == []
