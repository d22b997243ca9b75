"""Tests for the process fan-out primitive."""

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.parallel import fan_out


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
