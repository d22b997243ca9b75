"""Deterministic process fan-out for measurements and searches.

Every measurement in this reproduction derives a stable seed from its
own setting (:func:`repro._util.stable_seed`), so a batch of
measurements is embarrassingly parallel: the results are identical
whether the batch runs in one process or many.  The same holds for
annealing restarts once each restart owns an independent random stream.
This module provides the one fan-out primitive both layers use.

Workers are forked (where the platform allows) so they inherit the
parent's loaded modules and caches cheaply; on platforms without
``fork`` the pool falls back to ``spawn``.  Anything that cannot be
pickled silently degrades to the serial path — parallelism here is an
optimization, never a semantic switch.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.obs import recorder as _obs

T = TypeVar("T")
R = TypeVar("R")

#: Placeholder for an item whose worker died before returning a result.
_PENDING = object()

#: Environment variable overriding the default worker count.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"


def default_max_workers() -> int:
    """Worker count used when a caller asks for "parallel" without a number.

    Reads :data:`MAX_WORKERS_ENV` if set, otherwise the CPU count.
    """
    override = os.environ.get(MAX_WORKERS_ENV)
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    return os.cpu_count() or 1


def resolve_workers(max_workers: Optional[int]) -> int:
    """Normalize a ``max_workers`` argument to an effective count.

    ``None``, 0 and 1 all mean "serial"; negative values mean "use the
    default" (CPU count or :data:`MAX_WORKERS_ENV`).
    """
    if max_workers is None:
        return 1
    if max_workers < 0:
        return default_max_workers()
    return max(1, max_workers)


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
    max_workers: Optional[int] = None,
    initializer: Optional[Callable] = None,
    initargs: Sequence = (),
) -> List[R]:
    """Order-preserving map over ``items``, optionally across processes.

    The serial path is taken when ``max_workers`` resolves to 1, the
    batch has fewer than two items, or the function/items cannot be
    pickled.  When the serial path is taken and an ``initializer`` was
    supplied, it runs once in-process first so ``fn`` sees the same
    worker state either way.

    A worker process dying mid-batch (``BrokenProcessPool``) does not
    abort the batch: results already returned are kept, and every
    unfinished item is re-run serially in the parent (after running the
    initializer in-process), so the output is identical to an
    undisturbed run for deterministic ``fn``.  The recovery is counted
    as ``fault.pool_failure`` / ``retry.pool_serial_items``.

    Results are returned in input order; the output is bit-identical to
    ``[fn(item) for item in items]`` for deterministic ``fn``.
    """
    work = list(items)
    workers = min(resolve_workers(max_workers), len(work))
    if workers <= 1 or not _picklable(fn, work, initargs):
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in work]
    results: List = [_PENDING] * len(work)
    broken = False
    with ProcessPoolExecutor(
        max_workers=workers,
        mp_context=_pool_context(),
        initializer=initializer,
        initargs=tuple(initargs),
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
        if initializer is not None:
            initializer(*initargs)
        for index in unfinished:
            results[index] = fn(work[index])
    return results
