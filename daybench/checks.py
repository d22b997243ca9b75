"""Output checks every benchmark run applies to every day it replays.

* **Lifecycle** (any seed): every arrival ends exactly once — rejected,
  departed, still resident or still queued — and the log agrees with
  the program's own end-of-day state and final snapshot.
* **Pins** (pinned seeds): the event-log digest equals the one in
  ``pins.json``; at seed 2016 the flat and durable days also reproduce
  the service/daemon smoke expectations' counters and final snapshot.
* **Cross-driver identity** (flat and durable days): both drivers log
  the same bytes for the same seed; the caller compares digests.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from days import REFERENCE_SEED, DayOutcome, read_baseline

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: The smoke expectation each driver's seed-2016 day must reproduce.
SMOKE_BASELINES = {
    "flat-day": "service_smoke.json",
    "durable-day": "daemon_smoke.json",
}


def load_pins() -> Dict[str, Dict[str, str]]:
    """``workload -> seed -> event-log SHA-256`` from ``pins.json``."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def pinned_digest(workload: str, seed: int) -> Optional[str]:
    return load_pins().get(workload, {}).get(str(seed))


def lifecycle_problems(outcome: DayOutcome) -> List[str]:
    """Every arrival must end exactly once; log, state and snapshot agree."""
    ids: Dict[str, List[str]] = {
        "arrival": [], "admit": [], "reject": [], "depart": [],
    }
    for line in outcome.log_jsonl.splitlines():
        event = json.loads(line)
        if event["kind"] in ids:
            ids[event["kind"]].append(event["job"])
    problems = []
    arrived = set(ids["arrival"])
    for kind, jobs in ids.items():
        if len(set(jobs)) != len(jobs):
            problems.append(f"a job has more than one {kind} event")
        if not set(jobs) <= arrived:
            problems.append(f"{kind} event for a job that never arrived")
    admitted, rejected, departed = (
        set(ids["admit"]), set(ids["reject"]), set(ids["depart"])
    )
    if admitted & rejected:
        problems.append("a job was both admitted and rejected")
    if not departed <= admitted:
        problems.append("a job departed without being admitted")
    if admitted - departed != outcome.resident:
        problems.append("residents in the log differ from the program's state")
    if arrived - admitted - rejected != outcome.queued:
        problems.append("queued jobs in the log differ from the program's state")
    ends = (rejected, departed, outcome.resident, outcome.queued)
    if sum(len(end) for end in ends) != len(arrived) or set().union(
        *ends
    ) != arrived:
        problems.append("arrivals do not each end exactly once")
    if outcome.final["running_jobs"] != len(outcome.resident):
        problems.append("final snapshot's running_jobs disagrees with state")
    if outcome.final["queued_jobs"] != len(outcome.queued):
        problems.append("final snapshot's queued_jobs disagrees with state")
    return problems


def pin_problems(workload: str, seed: int, outcome: DayOutcome) -> List[str]:
    """Compare a pinned seed's day with its pin and smoke expectation."""
    problems = []
    pinned = pinned_digest(workload, seed)
    if pinned is not None and pinned != outcome.digest:
        problems.append(
            f"event-log digest {outcome.digest[:16]} != pinned {pinned[:16]}"
        )
    baseline_name = SMOKE_BASELINES.get(workload)
    if seed == REFERENCE_SEED and baseline_name:
        baseline = read_baseline(baseline_name)
        if baseline is None:
            problems.append(f"smoke expectation {baseline_name} is missing")
        elif (
            baseline["counters"] != outcome.counters
            or baseline["final"] != outcome.final
        ):
            problems.append(f"day does not reproduce {baseline_name}")
    return problems
