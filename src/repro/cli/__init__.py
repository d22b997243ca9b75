"""Command-line interface.

Provides direct access to the reproduction's main entry points::

    python -m repro list                  # catalog + experiments
    python -m repro run fig2              # regenerate a paper artifact
    python -m repro profile M.lmps M.Gems --output model.json
    python -m repro predict --model model.json --workload M.lmps \\
        --pressure 6 --count 3
    python -m repro serve --seed 2016 --epochs 12   # simulated traffic day
    python -m repro --trace day.json serve --seed 2016 --epochs 12
    python -m repro trace summarize day.json
    python -m repro daemon --spool day/ --seed 2016 --epochs 12
    python -m repro submit --spool day/ M.lmps --duration 2
    python -m repro status --spool day/ sub-000001
    python -m repro cancel --spool day/ sub-000001

Each verb lives in its own module exposing ``register(subparsers,
parents)``; the shared flags (``--seed``, ``--output``, ``--trace``)
come from the parent parsers in :mod:`repro.cli._parents`, so they
spell identically everywhere.  ``--trace PATH`` (top level or after
any verb) installs a :class:`~repro.obs.TraceRecorder` for the run and
writes the trace to ``PATH`` on the way out — deterministically, so
fixed-seed runs produce byte-identical traces.

Experiments can take seconds to minutes (they include the one-time
profiling phase); their output is the plain-text rendering of the
corresponding paper table or figure.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import __version__
from repro.cli import catalog, daemoncmd, modeling, serve, tracecmd
from repro.cli._parents import (
    FAULTS_HELP,
    TRACE_HELP,
    day_parent,
    faults_parent,
    network_parent,
    output_parent,
    provider_parent,
    seed_parent,
    trace_parent,
)
from repro.errors import ReproError
from repro.faults import FaultPlan
from repro.obs import console
from repro.obs.recorder import TraceRecorder, install
from repro.obs.sinks import write_trace


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Interference management for distributed parallel applications "
            "(ASPLOS'16 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--trace", metavar="PATH", default=None, help=TRACE_HELP)
    parser.add_argument("--faults", metavar="PATH", default=None, help=FAULTS_HELP)
    sub = parser.add_subparsers(dest="command", required=True)

    parents = {
        "trace": trace_parent(),
        "faults": faults_parent(),
        "seed": seed_parent(),
        "output": output_parent(),
        "network": network_parent(),
        "provider": provider_parent(),
        "day": day_parent(),
    }
    for module in (catalog, daemoncmd, modeling, serve, tracecmd):
        module.register(sub, parents)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path = getattr(args, "trace", None)
    faults_path = getattr(args, "faults", None)
    recorder: Optional[TraceRecorder] = None
    previous = None
    if trace_path:
        recorder = TraceRecorder()
        previous = install(recorder)
    try:
        try:
            # Every verb accepts --faults; verbs that construct a
            # measurement runner read the loaded plan from
            # args.fault_plan.  Loaded inside the handler so a bad
            # plan file reports like any other CLI error.
            args.fault_plan = (
                FaultPlan.load(faults_path) if faults_path else None
            )
            code = args.fn(args)
        except ReproError as exc:
            console.info(f"error: {exc}")
            code = 1
    finally:
        if recorder is not None:
            install(previous)
            write_trace(recorder, trace_path)
    if recorder is not None:
        # Emitted after the recorder is uninstalled so the message is
        # not itself part of the trace (keeps fixed-seed runs
        # byte-identical regardless of the output path).
        console.info(f"trace written to {trace_path}")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
