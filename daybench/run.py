#!/usr/bin/env python3
"""Reference-day benchmark: whole seeded days, end to end and per layer.

Run from the repository root::

    python3 daybench/run.py --workload durable-day --seed 2016 --seconds 55 --trace 0
    python3 daybench/run.py --workload sharded-day --trace 1   # per-layer table
    python3 daybench/run.py --workload all                      # every workload

A run replays the day of one workload at ``--seed`` back to back while
the next replay fits in ``--seconds`` (at least one day).  Every replay
does the same work and must log the same bytes.  Clock stamps at the
layers' entry points (``layers.ticking``) cut each epoch into the same
short pieces on every replay; a piece's time is its fastest replay and
an epoch's time the sum of its pieces', so a slow stretch of a shared
host counts only where no replay escaped it.  Every day's output is
checked (see ``checks.py``); a failed check makes the run exit 1.  The
last stdout line is one JSON object holding the end-to-end metrics
(``--trace 0``) or the per-layer metrics (``--trace 1``); each
invocation also writes a new record under ``daybench/out/records/``.
See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 2016
#: The second seed a performance claim must also hold on.
SECOND_SEED = 4242
#: Set-ups timed per run at the least (extra set-ups run no day).
MIN_SETUPS = 5

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "day_s": "s",
    "epoch_p50_s": "s",
    "decisions_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics beyond each layer's ``.calls`` and ``.self_s``.
LAYER_EXTRAS = {
    "core.predict_batch.rows": "count",
    "service.admission.p50_ms": "ms",
    "service.admission.p99_ms": "ms",
    "service.admission.candidates": "count",
    "service.admission.admit_ratio": "ratio",
    "service.checkpoint.bytes": "bytes",
    "scale.router.jobs": "count",
    "scale.coordinator.moves": "count",
    "daemon.execute.commits": "count",
    "daemon.execute.claims": "count",
    "service.reject_ratio": "ratio",
    "service.qos_violation_ratio": "ratio",
    "bench.attributed_fraction": "ratio",
    "bench.trace_overhead": "ratio",
}

#: Driver pairs whose event logs must be byte-identical.
PARTNER = {"flat-day": "durable-day", "durable-day": "flat-day"}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name (``--trace 1``) and its unit."""
    from layers import LAYERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(LAYER_EXTRAS)
    return units


_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def validate_metrics(entries: Dict[str, Dict[str, object]]) -> None:
    """Reject a metric whose name, unit or sample count breaks the schema."""
    for name, entry in entries.items():
        if not _NAME.match(name):
            raise ValueError(f"metric name {name!r} breaks [A-Za-z0-9_.-]")
        if not _UNIT.match(str(entry.get("unit", ""))):
            raise ValueError(f"metric {name!r} has a bad unit")
        samples = entry.get("samples")
        if not isinstance(samples, int) or samples < 1:
            raise ValueError(f"metric {name!r} needs a sample count >= 1")


@dataclass
class Replay:
    """One day replayed: wall timings, outcome, and (traced) layer stats."""

    seed: int
    setup_s: float
    day_s: float
    outcome: object
    setup_layers: Dict[str, object] = field(default_factory=dict)
    day_layers: Dict[str, object] = field(default_factory=dict)


class PieceFloor:
    """Each piece's fastest seconds over the replays folded in so far."""

    def __init__(self) -> None:
        self.epochs: Optional[List[object]] = None
        #: Set when a replay cut its epochs into other pieces.
        self.mismatched = False

    def fold(self, pieces: List[object]) -> None:
        import numpy

        if self.epochs is None:
            self.epochs = pieces
        elif [len(p) for p in pieces] != [len(f) for f in self.epochs]:
            self.mismatched = True
        else:
            self.epochs = [
                numpy.minimum(f, p) for f, p in zip(self.epochs, pieces)
            ]

    def epoch_s(self) -> List[float]:
        return [float(f.sum()) for f in self.epochs]


def epoch_pieces(
    spans: List[Tuple[float, float]], stamps: Sequence[float]
) -> List[object]:
    """Cut each epoch's ``(start, end)`` span at the stamps inside it."""
    import numpy

    stamps = numpy.asarray(stamps, dtype=float)
    pieces = []
    for start, end in spans:
        inner = stamps[(stamps > start) & (stamps < end)]
        pieces.append(numpy.diff(numpy.concatenate(([start], inner, [end]))))
    return pieces


def replay(
    workload: str, seed: int, workdir: Path, tracer=None,
    floor: Optional[PieceFloor] = None,
) -> Replay:
    """Set up and run one day, timing both.

    Under ``tracer`` the layers are timed; with ``floor`` the day's
    pieces are stamped and folded into it.
    """
    from days import make_day
    from layers import ticking, traced

    day = make_day(workload, seed, workdir)
    setup_layers: Dict[str, object] = {}
    day_layers: Dict[str, object] = {}
    try:
        with traced(tracer) if tracer is not None else nullcontext():
            start = time.perf_counter()
            day.setup()
            setup_s = time.perf_counter() - start
            if tracer is not None:
                setup_layers = tracer.take()
            # Same collector state before every replay, so collections
            # fall at the same points of the day.
            gc.collect()
            with ticking() if floor is not None else nullcontext() as stamps:
                start = time.perf_counter()
                spans = day.run()
                day_s = time.perf_counter() - start
            if tracer is not None:
                day_layers = tracer.take()
        outcome = day.outcome()
    finally:
        day.close()
    if floor is not None:
        floor.fold(epoch_pieces(spans, stamps))
    return Replay(seed, setup_s, day_s, outcome, setup_layers, day_layers)


def time_setup(workload: str, seed: int, workdir: Path) -> float:
    """Wall seconds of one set-up whose day is never run."""
    from days import make_day

    day = make_day(workload, seed, workdir)
    try:
        start = time.perf_counter()
        day.setup()
        return time.perf_counter() - start
    finally:
        day.close()


def check_replay(workload: str, rep: Replay) -> List[str]:
    from checks import lifecycle_problems, pin_problems

    return [
        f"{workload} seed {rep.seed}: {problem}"
        for problem in lifecycle_problems(rep.outcome)
        + pin_problems(workload, rep.seed, rep.outcome)
    ]


def cross_driver_problems(
    workload: str, rep: Replay, workdir: Path
) -> List[str]:
    """Flat and durable logs must match; replay the partner if unpinned."""
    from checks import pinned_digest

    partner = PARTNER.get(workload)
    if partner is None:
        return []
    if pinned_digest(workload, rep.seed) and pinned_digest(partner, rep.seed):
        return []  # both pins hold the same digest; pin checks cover it
    other = replay(partner, rep.seed, workdir)
    problems = check_replay(partner, other)
    if other.outcome.digest != rep.outcome.digest:
        problems.append(
            f"{workload} and {partner} logs differ at seed {rep.seed}"
        )
    return problems


def layer_values(rep: Replay) -> Dict[str, float]:
    """One traced day's per-layer metrics."""
    from layers import LAYERS, LayerStats, percentile

    def stats(layer: str) -> LayerStats:
        table = rep.setup_layers if layer == "core.build_model" else rep.day_layers
        return table.get(layer) or LayerStats()

    values: Dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = stats(layer).calls
        values[f"{layer}.self_s"] = stats(layer).self_s
    admission = stats("service.admission")
    outcome = rep.outcome
    values.update({
        "core.predict_batch.rows": stats("core.predict_batch").extras.get("rows", 0),
        "service.admission.p50_ms": percentile(admission.durations, 50) * 1e3,
        "service.admission.p99_ms": percentile(admission.durations, 99) * 1e3,
        "service.admission.candidates": admission.extras.get("candidates", 0),
        "service.admission.admit_ratio": (
            admission.extras.get("admitted", 0) / admission.calls
            if admission.calls else 0.0
        ),
        "service.checkpoint.bytes": stats("service.checkpoint").extras.get("bytes", 0),
        "scale.router.jobs": stats("scale.router").extras.get("jobs", 0),
        "scale.coordinator.moves": stats("scale.coordinator").extras.get("moves", 0),
        "daemon.execute.commits": outcome.stats.get("commits", 0),
        "daemon.execute.claims": outcome.stats.get("claims", 0),
        "service.reject_ratio": reject_ratio(outcome),
        "service.qos_violation_ratio": qos_violation_ratio(outcome),
        "bench.attributed_fraction": (
            sum(s.self_s for s in rep.day_layers.values()) / rep.day_s
        ),
    })
    return values


def reject_ratio(outcome) -> float:
    arrivals = outcome.count("arrival")
    return outcome.count("reject") / arrivals if arrivals else 0.0


def qos_violation_ratio(outcome) -> float:
    checks = outcome.final["qos_checks_total"]
    return outcome.final["qos_violations_total"] / checks if checks else 0.0


def layer_table(traced_reps: List[Replay]) -> List[Dict[str, object]]:
    """Median per-layer inclusive/self seconds and calls over traced days."""
    from layers import LAYERS, LayerStats

    rows = []
    for layer in LAYERS:
        key = "setup_layers" if layer == "core.build_model" else "day_layers"
        per_day = [getattr(rep, key).get(layer) or LayerStats() for rep in traced_reps]
        extras = sorted({name for s in per_day for name in s.extras})
        rows.append({
            "layer": layer,
            "phase": "setup" if key == "setup_layers" else "day",
            "calls": statistics.median(s.calls for s in per_day),
            "inclusive_s": statistics.median(s.inclusive_s for s in per_day),
            "self_s": statistics.median(s.self_s for s in per_day),
            "extras": {
                name: statistics.median(s.extras.get(name, 0) for s in per_day)
                for name in extras
            },
        })
    return rows


def render_table(workload: str, rows, day_s: float) -> str:
    lines = [
        f"per-layer wall time, {workload} (median over traced days; "
        f"self % of traced day_s {day_s:.3f} s)",
        f"  {'layer':<20} {'phase':<6} {'calls':>9} {'incl_s':>9} "
        f"{'self_s':>9} {'self%':>6}  extras",
    ]
    for row in rows:
        share = (
            f"{100 * row['self_s'] / day_s:5.1f}%" if row["phase"] == "day"
            else "     -"
        )
        extras = " ".join(
            f"{name}={value:g}" for name, value in row["extras"].items()
        )
        lines.append(
            f"  {row['layer']:<20} {row['phase']:<6} {row['calls']:>9g} "
            f"{row['inclusive_s']:>9.4f} {row['self_s']:>9.4f} {share}  {extras}"
        )
    return "\n".join(lines)


def _commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` without it)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_record(record: Dict[str, object]) -> Path:
    """Write a new record file; never overwrites an earlier one."""
    directory = OUT / "records"
    directory.mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path = directory / (
        f"{stamp}-{record['workload']}-s{record['seed']}"
        f"-t{record['trace']}-{os.getpid()}.json"
    )
    with open(path, "x", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def measure(args) -> int:
    import numpy

    from layers import Tracer
    from repro.obs import recorder

    workload, seed = args.workload, args.seed
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    problems: List[str] = []
    plain: List[Replay] = []
    traced_reps: List[Replay] = []
    overheads: List[float] = []
    floor = PieceFloor()

    deadline = time.perf_counter() + args.seconds
    lap = 0.0  # wall seconds of the last replay with its checks
    try:
        while not plain or time.perf_counter() + lap <= deadline:
            began = time.perf_counter()
            rep = replay(workload, seed, workdir, floor=floor)
            problems.extend(check_replay(workload, rep))
            if plain and rep.outcome.digest != plain[0].outcome.digest:
                problems.append(f"replays at seed {seed} logged different bytes")
            plain.append(rep)
            if args.trace:
                deep = replay(workload, seed, workdir, tracer=Tracer())
                if deep.outcome.digest != rep.outcome.digest:
                    problems.append(
                        f"traced day at seed {seed} logged different bytes"
                    )
                traced_reps.append(deep)
                overheads.append(deep.day_s / rep.day_s)
            lap = time.perf_counter() - began
            if len(plain) == 1:
                problems.extend(cross_driver_problems(workload, rep, workdir))
        setups = [rep.setup_s for rep in plain]
        while len(setups) < MIN_SETUPS:
            setups.append(time_setup(workload, seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if floor.mismatched:
        problems.append(f"replays at seed {seed} made different layer calls")
    if recorder.current() is not recorder.NULL_RECORDER:
        problems.append("the program's trace recorder was switched on")

    epochs = floor.epoch_s()
    day_s = sum(epochs)
    metrics = {
        "setup_s": (statistics.median(setups), len(setups)),
        "day_s": (day_s, len(plain)),
        "epoch_p50_s": (statistics.median(epochs), len(epochs)),
        "decisions_per_s": (plain[0].outcome.decisions / day_s, len(plain)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1
        ),
    }
    units = END_TO_END
    table = None
    if args.trace:
        per_day = [layer_values(rep) for rep in traced_reps]
        metrics = {
            name: (statistics.median(values[name] for values in per_day), len(per_day))
            for name in per_day[0]
        }
        metrics["bench.trace_overhead"] = (
            statistics.median(overheads), len(overheads)
        )
        units = per_layer_units()
        table = layer_table(traced_reps)
    entries = {
        name: {"value": metrics[name][0], "unit": unit, "samples": metrics[name][1]}
        for name, unit in units.items()
    }
    validate_metrics(entries)

    arrivals = [rep.outcome.count("arrival") for rep in plain]
    failed = sum(arrivals) if problems else 0
    print(
        f"daybench {workload} seed={seed} trace={args.trace}: "
        f"{len(plain)} day(s), {sum(arrivals)} arrivals, "
        f"reject_ratio={statistics.median(reject_ratio(r.outcome) for r in plain):.4f}, "
        f"qos_violation_ratio="
        f"{statistics.median(qos_violation_ratio(r.outcome) for r in plain):.4f}"
    )
    for name, entry in entries.items():
        print(
            f"  {name:<32} {entry['value']:>14.6g} {entry['unit']:<6} "
            f"(n={entry['samples']})"
        )
    if table is not None:
        print(render_table(
            workload, table,
            statistics.median(r.day_s for r in traced_reps),
        ))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("checks: " + ("ok" if not problems else f"{len(problems)} failed"))

    record = {
        "commit": _commit(),
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": not problems,
        "problems": problems,
        "metrics": entries,
        "days": [
            {"seed": r.seed, "digest": r.outcome.digest,
             "setup_s": r.setup_s, "day_s": r.day_s}
            for r in plain
        ],
        "layers": table,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "utc": datetime.now(timezone.utc).isoformat(),
    }
    path = write_record(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(arrivals),
        "failed": failed,
        "metrics": {
            name: {"value": entry["value"], "unit": entry["unit"]}
            for name, entry in entries.items()
        },
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Each workload in its own process (peak RSS is per process)."""
    from days import WORKLOADS

    worst = 0
    for workload in WORKLOADS:
        child = subprocess.run([
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ])
        worst = max(worst, child.returncode)
    return worst


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        help="flat-day, sharded-day, durable-day, or all",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"run seed (default {DEFAULT_SEED}; claims must also hold "
             f"at {SECOND_SEED})",
    )
    parser.add_argument(
        "--seconds", type=float, default=50.0,
        help="replay days while the next fits in this many seconds "
             "(>= 1 day)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: also replay each day under per-layer timing wrappers",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"daybench: no program source at {SRC / 'repro'}; run from a "
            f"checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    from days import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
