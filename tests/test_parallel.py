"""Tests for the process fan-out primitive."""

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.parallel import (
    MAX_WORKERS_ENV,
    default_max_workers,
    fan_out,
    resolve_workers,
)


def square(x):
    return x * x


def square_or_die(payload):
    """Kill the hosting pool worker when asked; compute otherwise.

    ``payload`` is ``(value, die, parent_pid)`` — in the parent process
    (serial recovery) the die flag is ignored, so the recovered batch
    result is identical to an undisturbed run.
    """
    value, die, parent_pid = payload
    if die and os.getpid() != parent_pid:
        os._exit(1)
    return value * value


_WORKER_STATE = {}


def remember(value):
    _WORKER_STATE["value"] = value


def read_state(_):
    return _WORKER_STATE.get("value")


def _read_state_or_die(payload):
    index, die, parent_pid = payload
    if die and os.getpid() != parent_pid:
        os._exit(1)
    return _WORKER_STATE.get("value")


class TestResolveWorkers:
    def test_none_is_serial(self):
        assert resolve_workers(None) == 1

    def test_zero_is_serial(self):
        assert resolve_workers(0) == 1

    def test_positive_passthrough(self):
        assert resolve_workers(3) == 3

    def test_negative_uses_default(self):
        assert resolve_workers(-1) == default_max_workers()

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "7")
        assert default_max_workers() == 7

    def test_env_ignored_when_invalid(self, monkeypatch):
        monkeypatch.setenv(MAX_WORKERS_ENV, "zero")
        assert default_max_workers() == max(1, os.cpu_count() or 1)


class TestFanOut:
    def test_serial_matches_map(self):
        items = list(range(10))
        assert fan_out(square, items, max_workers=1) == [x * x for x in items]

    def test_parallel_matches_serial(self):
        items = list(range(20))
        serial = fan_out(square, items, max_workers=1)
        parallel = fan_out(square, items, max_workers=2)
        assert parallel == serial

    def test_empty_batch(self):
        assert fan_out(square, [], max_workers=4) == []

    def test_single_item_runs_serially(self):
        assert fan_out(square, [5], max_workers=4) == [25]

    def test_unpicklable_items_fall_back_to_serial(self):
        items = [lambda: 1, lambda: 2]  # lambdas cannot cross processes
        results = fan_out(lambda f: f(), items, max_workers=2)
        assert results == [1, 2]

    def test_initializer_runs_on_serial_path(self):
        _WORKER_STATE.clear()
        results = fan_out(
            read_state, [0], max_workers=4, initializer=remember, initargs=(42,)
        )
        assert results == [42]

    def test_initializer_runs_in_workers(self):
        _WORKER_STATE.clear()
        results = fan_out(
            read_state,
            list(range(6)),
            max_workers=2,
            initializer=remember,
            initargs=(7,),
        )
        assert results == [7] * 6


class TestBrokenPoolRecovery:
    """A worker dying mid-batch must not lose the batch."""

    def test_killed_worker_recovers_to_serial_result(self):
        from repro.obs import recording

        parent_pid = os.getpid()
        items = [(value, value == 7, parent_pid) for value in range(16)]
        with recording() as rec:
            results = fan_out(square_or_die, items, max_workers=2)
        assert results == [value * value for value in range(16)]
        assert rec.counters.get("fault.pool_failure") == 1
        # At least the doomed item had to be recovered serially.
        assert rec.counters.get("retry.pool_serial_items", 0) >= 1

    def test_recovery_reruns_initializer_in_parent(self):
        _WORKER_STATE.clear()
        parent_pid = os.getpid()
        items = [(index, index == 0, parent_pid) for index in range(6)]

        results = fan_out(
            _read_state_or_die,
            items,
            max_workers=2,
            initializer=remember,
            initargs=(9,),
        )
        assert results == [9] * 6

    def test_pool_broken_while_queueing_recovers(self, monkeypatch):
        # A worker that dies before the whole batch is queued makes
        # submit itself raise; the unqueued items are recovered too.
        from repro.obs import recording

        submit = ProcessPoolExecutor.submit
        queued = []

        def submit_until_broken(pool, fn, *args):
            if len(queued) == 2:
                raise BrokenProcessPool("worker died")
            queued.append(args)
            return submit(pool, fn, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit_until_broken)
        with recording() as rec:
            results = fan_out(square, range(6), max_workers=2)
        assert results == [value * value for value in range(6)]
        assert rec.counters.get("fault.pool_failure") == 1
        assert rec.counters.get("retry.pool_serial_items") == 4
