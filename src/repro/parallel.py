"""Deterministic process fan-out for the sharded service's cells.

Cells are independent within an epoch, so running their epoch bodies
in worker processes produces the same state as running them one after
another.  ``--cell-workers`` is the one caller.

Workers are forked (where the platform allows) so they inherit the
parent's loaded modules and caches cheaply; on platforms without
``fork`` the pool falls back to ``spawn``.  Anything that cannot be
pickled silently degrades to the serial path — parallelism here is an
optimization, never a semantic switch.
"""

from __future__ import annotations

import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, TypeVar

from repro.obs import recorder as _obs

T = TypeVar("T")
R = TypeVar("R")

#: Placeholder for an item whose worker died before returning a result.
_PENDING = object()


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _picklable(*objects: object) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def fan_out(
    fn: Callable[[T], R],
    items: Iterable[T],
    *,
    max_workers: int,
) -> List[R]:
    """Order-preserving map over ``items`` across ``max_workers`` processes.

    The serial path is taken when ``max_workers`` is at most 1, the
    batch has fewer than two items, or the function/items cannot be
    pickled.

    A worker process dying mid-batch (``BrokenProcessPool``) does not
    abort the batch: results already returned are kept, and every
    unfinished item is re-run serially in the parent, so the output is
    identical to an undisturbed run for deterministic ``fn``.  The
    recovery is counted as ``fault.pool_failure`` /
    ``retry.pool_serial_items``.

    Results are returned in input order; the output is bit-identical to
    ``[fn(item) for item in items]`` for deterministic ``fn``.
    """
    work = list(items)
    workers = min(max_workers, len(work))
    if workers <= 1 or not _picklable(fn, work):
        return [fn(item) for item in work]
    results: List = [_PENDING] * len(work)
    broken = False
    with ProcessPoolExecutor(
        max_workers=workers, mp_context=_pool_context()
    ) as pool:
        futures = []
        for item in work:
            try:
                futures.append(pool.submit(fn, item))
            except BrokenProcessPool:
                # A worker died while the batch was still being queued;
                # the unqueued items join the serial recovery below.
                broken = True
                break
        for index, future in enumerate(futures):
            try:
                results[index] = future.result()
            except BrokenProcessPool:
                # This item's worker died (or the pool was already
                # broken when its turn came).  Keep collecting: futures
                # that completed before the break still hold results.
                broken = True
    if broken:
        unfinished = [i for i, value in enumerate(results) if value is _PENDING]
        _obs.RECORDER.count("fault.pool_failure")
        _obs.RECORDER.count("retry.pool_serial_items", len(unfinished))
        for index in unfinished:
            results[index] = fn(work[index])
    return results
