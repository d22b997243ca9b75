"""``repro profile`` and ``repro predict`` — model building and queries."""

from __future__ import annotations

import argparse
import math
from typing import Mapping

from repro.analysis.reporting import format_table
from repro.cli._parents import wants_network
from repro.core.builder import (
    MATRIX_PROFILERS,
    build_model,
    build_network_profiles,
)
from repro.core.profile_store import load_model, save_model
from repro.errors import ConfigurationError
from repro.obs import console
from repro.sim.runner import ClusterRunner


def _cmd_profile(args: argparse.Namespace) -> int:
    runner = ClusterRunner(
        base_seed=args.seed,
        faults=getattr(args, "fault_plan", None),
        network_ambient=getattr(args, "network_noise", 0.0),
    )
    report = build_model(
        runner,
        args.workloads,
        algorithm=args.algorithm,
        policy_samples=args.policy_samples,
        seed=args.seed,
    )
    network = wants_network(args)
    if network:
        build_network_profiles(runner, report.model, args.workloads)
    rows = [
        (
            abbrev,
            report.model.profile(abbrev).policy_name,
            report.model.profile(abbrev).bubble_score,
            report.profiling_outcomes[abbrev].cost_percent,
        )
        + (
            (report.model.profile(abbrev).network_score,)
            if network
            else ()
        )
        for abbrev in args.workloads
    ]
    headers = ["Workload", "Policy", "Bubble score", "Profiling cost (%)"]
    if network:
        headers.append("Network score")
    console.emit(format_table(headers, rows))
    if args.out:
        save_model(report.model, args.out)
        console.emit(f"\nmodel written to {args.out}")
    return 0


def _finite_non_negative(flag: str, text: object) -> float:
    """``text`` as a finite, non-negative float, or a CLI error."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigurationError(
            f"{flag} takes numbers; got {text!r}"
        ) from None
    if not math.isfinite(value) or value < 0.0:
        raise ConfigurationError(
            f"{flag} must be finite and non-negative; got {text!r}"
        )
    return value


def _cmd_predict(args: argparse.Namespace) -> int:
    _finite_non_negative("--pressure", args.pressure)
    _finite_non_negative("--count", args.count)
    vector = None
    if args.pressures is not None:
        if not args.pressures.strip():
            raise ConfigurationError("--pressures must name at least one node")
        vector = [
            _finite_non_negative("--pressures", entry)
            for entry in args.pressures.split(",")
        ]
    model = load_model(args.model)
    if vector is not None:
        predicted = model.predict(args.workload, vector, domain=args.domain)
        setting = f"heterogeneous vector {vector}"
    else:
        predicted = model.predict(
            args.workload, (args.pressure, args.count), domain=args.domain
        )
        setting = f"{args.count} node(s) at pressure {args.pressure}"
    if args.domain != "compute":
        setting += f" ({args.domain} domain)"
    console.emit(f"{args.workload} under {setting}: {predicted:.3f}x solo time")
    return 0


def register(
    subparsers: argparse._SubParsersAction,
    parents: Mapping[str, argparse.ArgumentParser],
) -> None:
    """Attach the ``profile`` and ``predict`` verbs."""
    p_profile = subparsers.add_parser(
        "profile",
        help="build an interference model",
        parents=[
            parents["trace"], parents["faults"], parents["seed"],
            parents["output"], parents["network"],
        ],
    )
    p_profile.add_argument("workloads", nargs="+")
    p_profile.add_argument(
        "--algorithm", default="binary-optimized",
        choices=sorted(MATRIX_PROFILERS),
    )
    p_profile.add_argument("--policy-samples", type=int, default=30)
    p_profile.set_defaults(fn=_cmd_profile)

    p_predict = subparsers.add_parser(
        "predict",
        help="query a saved model",
        parents=[parents["trace"], parents["faults"]],
    )
    p_predict.add_argument("--model", required=True)
    p_predict.add_argument("--workload", required=True)
    p_predict.add_argument("--pressure", type=float, default=8.0)
    p_predict.add_argument("--count", type=float, default=1.0)
    p_predict.add_argument(
        "--pressures",
        help="comma-separated per-node pressures (heterogeneous query)",
    )
    p_predict.add_argument(
        "--domain",
        choices=("compute", "network"),
        default="compute",
        help="contention domain to query (default: compute)",
    )
    p_predict.set_defaults(fn=_cmd_predict)
