"""The benchmark's own tests (no day is replayed; they run in seconds).

    PYTHONPATH=src python -m pytest daybench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from days import DayOutcome  # noqa: E402
from layers import LAYERS, Target, Tracer, traced  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_nested_calls():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("outer")
    clock.now += 1.0
    tracer.enter("inner")
    clock.now += 2.0
    tracer.exit()
    clock.now += 3.0
    tracer.exit()
    outer, inner = tracer.layers["outer"], tracer.layers["inner"]
    assert (outer.calls, outer.inclusive_s, outer.self_s) == (1, 6.0, 4.0)
    assert (inner.calls, inner.inclusive_s, inner.self_s) == (1, 2.0, 2.0)


def test_reentered_layer_counts_outermost_call_once():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.enter("a")
    clock.now += 1.0
    tracer.enter("a")
    clock.now += 2.0
    tracer.exit()
    tracer.exit()
    stats = tracer.layers["a"]
    assert stats.calls == 1
    assert stats.inclusive_s == 3.0
    assert stats.self_s == 3.0
    assert stats.durations == [3.0]


def test_take_refuses_an_open_call_and_resets():
    tracer = Tracer(FakeClock())
    tracer.enter("a")
    with pytest.raises(RuntimeError):
        tracer.take()
    tracer.exit()
    assert set(tracer.take()) == {"a"}
    assert tracer.layers == {}


# ----------------------------------------------------------------------
# Wrapper install / removal
# ----------------------------------------------------------------------
CLOCK = FakeClock()


class Toy:
    def outer(self):
        CLOCK.now += 1.0
        self.inner()
        CLOCK.now += 1.0
        return "done"

    def inner(self):
        CLOCK.now += 5.0

    @classmethod
    def build(cls):
        CLOCK.now += 2.0
        return cls()


TOY_LAYERS = {
    "toy.outer": (Target(__name__, "Toy", "outer"),),
    "toy.inner": (
        Target(__name__, "Toy", "inner"),
        Target(__name__, "Toy", "build",
               extra=lambda stats, args, result: stats.add("built", 1)),
    ),
}


def test_wrappers_time_nested_calls_and_are_removed():
    originals = {name: vars(Toy)[name] for name in ("outer", "inner", "build")}
    tracer = Tracer(CLOCK)
    with traced(tracer, TOY_LAYERS):
        assert vars(Toy)["outer"] is not originals["outer"]
        assert Toy.build().outer() == "done"
    for name, original in originals.items():
        assert vars(Toy)[name] is original
    assert isinstance(vars(Toy)["build"], classmethod)
    outer, inner = tracer.layers["toy.outer"], tracer.layers["toy.inner"]
    assert (outer.inclusive_s, outer.self_s) == (7.0, 2.0)
    assert (inner.calls, inner.self_s) == (2, 7.0)
    assert inner.extras == {"built": 1}


def test_wrappers_are_removed_when_the_block_raises():
    original = vars(Toy)["outer"]
    with pytest.raises(ValueError):
        with traced(Tracer(CLOCK), TOY_LAYERS):
            raise ValueError("boom")
    assert vars(Toy)["outer"] is original


def test_every_program_entry_point_is_patched_and_restored():
    import importlib

    def current():
        found = {}
        for targets in LAYERS.values():
            for target in targets:
                namespace = importlib.import_module(target.module)
                if target.owner is not None:
                    namespace = getattr(namespace, target.owner)
                found[target] = vars(namespace)[target.name]
        return found

    before = current()
    with traced(Tracer()):
        during = current()
    assert all(during[t] is not before[t] for t in before)
    after = current()
    assert all(after[t] is before[t] for t in before)


# ----------------------------------------------------------------------
# Metric schema
# ----------------------------------------------------------------------
def _benchmark_json():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_names_and_units_match_the_runner():
    spec = _benchmark_json()
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.per_layer_units()
    names = list(end_to_end) + list(per_layer) + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(unit) for unit in list(end_to_end.values()) + list(per_layer.values()))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= setup["bound"] <= 0.25 for m in spec["end_to_end"])


def test_validate_metrics_checks_names_units_and_sample_counts():
    good = {"day_s": {"value": 1.5, "unit": "s", "samples": 3}}
    run.validate_metrics(good)
    for bad in (
        {"day s": {"value": 1.5, "unit": "s", "samples": 3}},
        {"day_s": {"value": 1.5, "unit": "sec onds", "samples": 3}},
        {"day_s": {"value": 1.5, "unit": "s", "samples": 0}},
        {"day_s": {"value": 1.5, "unit": "s"}},
    ):
        with pytest.raises(ValueError):
            run.validate_metrics(bad)


# ----------------------------------------------------------------------
# Records and checks
# ----------------------------------------------------------------------
def test_records_never_overwrite(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    record = {"workload": "flat-day", "seed": 1, "trace": 0}
    first = run.write_record(record)
    second = run.write_record(record)
    assert first != second
    assert len(list((tmp_path / "records").iterdir())) == 2


def _outcome(lines, resident=(), queued=(), running=None):
    log = "".join(
        json.dumps({"epoch": 0, "seq": i, "kind": kind, "job": job}) + "\n"
        for i, (kind, job) in enumerate(lines)
    )
    return DayOutcome(
        log_jsonl=log,
        counters={},
        final={
            "running_jobs": len(resident) if running is None else running,
            "queued_jobs": len(queued),
        },
        resident=set(resident),
        queued=set(queued),
    )


def test_lifecycle_accepts_each_arrival_ending_once():
    outcome = _outcome(
        [("arrival", "a"), ("arrival", "b"), ("arrival", "c"), ("arrival", "d"),
         ("admit", "a"), ("depart", "a"), ("reject", "b"), ("admit", "c")],
        resident={"c"}, queued={"d"},
    )
    assert checks.lifecycle_problems(outcome) == []


@pytest.mark.parametrize("lines, resident, queued", [
    ([("arrival", "a"), ("admit", "a"), ("reject", "a")], {"a"}, set()),
    ([("arrival", "a"), ("depart", "a")], set(), set()),
    ([("arrival", "a"), ("arrival", "a")], set(), {"a"}),
    ([("arrival", "a")], set(), set()),
])
def test_lifecycle_flags_broken_days(lines, resident, queued):
    assert checks.lifecycle_problems(_outcome(lines, resident, queued))


def test_epoch_pieces_cut_spans_at_inner_stamps():
    pieces = run.epoch_pieces([(0.0, 4.0), (4.0, 5.0)], [0.5, 1.5, 4.0, 6.0])
    assert [list(p) for p in pieces] == [[0.5, 1.0, 2.5], [1.0]]


def test_piece_floor_sums_each_pieces_fastest_replay():
    floor = run.PieceFloor()
    floor.fold(run.epoch_pieces([(0.0, 5.0), (5.0, 7.0)], [1.0]))
    floor.fold(run.epoch_pieces([(0.0, 5.0), (5.0, 6.5)], [3.0]))
    assert floor.epoch_s() == [3.0, 1.5]
    assert not floor.mismatched
    floor.fold(run.epoch_pieces([(0.0, 5.0), (5.0, 6.5)], []))
    assert floor.mismatched


def test_percentile_is_nearest_rank():
    assert layers.percentile([], 50) == 0.0
    assert layers.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert layers.percentile([float(i) for i in range(1, 101)], 99) == 99.0
