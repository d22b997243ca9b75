"""``repro list`` and ``repro run`` — the catalog and experiment verbs."""

from __future__ import annotations

import argparse
from typing import Mapping

from repro.analysis.reporting import format_table
from repro.apps.catalog import table1_rows
from repro.errors import ConfigurationError
from repro.experiments.registry import REGISTRY, get_experiment
from repro.obs import console


def _cmd_list(_args: argparse.Namespace) -> int:
    console.emit("Workload catalog (Table 1):\n")
    console.emit(format_table(["Type", "Name", "Size", "Abbrev."], table1_rows()))
    console.emit("\nReproducible experiments:\n")
    rows = [
        (entry.experiment_id, entry.paper_artifact, entry.description)
        for entry in REGISTRY.values()
    ]
    console.emit(format_table(["Id", "Artifact", "Description"], rows))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.fault_plan is not None:
        # The experiments measure the clean testbed; accepting the plan
        # would print clean figures as if they had run under faults.
        raise ConfigurationError(
            "run does not inject faults; --faults applies to profile, "
            "serve and daemon"
        )
    entry = get_experiment(args.experiment)
    console.info(f"Running {entry.paper_artifact}: {entry.description}...\n")
    result = entry.run()
    console.emit(entry.render(result))
    return 0


def register(
    subparsers: argparse._SubParsersAction,
    parents: Mapping[str, argparse.ArgumentParser],
) -> None:
    """Attach the ``list`` and ``run`` verbs."""
    p_list = subparsers.add_parser(
        "list",
        help="list workloads and experiments",
        parents=[parents["trace"], parents["faults"]],
    )
    p_list.set_defaults(fn=_cmd_list)

    p_run = subparsers.add_parser(
        "run",
        help="regenerate a paper table/figure",
        parents=[parents["trace"], parents["faults"]],
    )
    p_run.add_argument("experiment", choices=sorted(REGISTRY))
    p_run.set_defaults(fn=_cmd_run)
