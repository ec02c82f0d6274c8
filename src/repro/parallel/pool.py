"""Ordered process-pool mapping with a guaranteed serial fallback.

:func:`map_ordered` is the one primitive every parallel code path in
this library uses - replications, sweep grids, scenario units and whole
experiments: it applies a picklable function to a sequence of items and
yields the results *in input order*, as they arrive, regardless of the
order in which workers finish.  That ordering guarantee is what lets
the parallel paths promise bit-for-bit identical results to their
serial counterparts.

When a pool cannot be started at all (sandboxes without POSIX
semaphores, ``max_workers=1``, or a trivially small work list) the map
degrades to an in-process loop computing the very same values; a pool
that breaks partway through hands its unfinished items to the same
loop, so every item is still yielded exactly once.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterator, Sequence, TypeVar

from repro.core.errors import ConfigurationError

T = TypeVar("T")
R = TypeVar("R")


def resolve_workers(max_workers: int | None) -> int:
    """Validate and default the worker count (``None`` -> CPU count)."""
    if max_workers is None:
        return os.cpu_count() or 1
    if not isinstance(max_workers, int) or isinstance(max_workers, bool):
        raise ConfigurationError(
            f"max_workers must be a positive integer or None, got {max_workers!r}"
        )
    if max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be a positive integer or None, got {max_workers!r}"
        )
    return max_workers


def map_ordered(
    function: Callable[[T], R],
    items: Sequence[T],
    max_workers: int | None = None,
) -> Iterator[R]:
    """Lazily apply ``function`` to ``items``, preserving input order.

    Uses a :class:`~concurrent.futures.ProcessPoolExecutor` when more
    than one worker is requested and there is more than one item;
    otherwise (or when the platform cannot start a pool) computes
    in-process.  Either way the ``i``-th yielded value is
    ``function(items[i])``.  Arguments are validated eagerly: a pooled
    map rejects a ``function`` that cannot be pickled with a
    :class:`ConfigurationError` at call time rather than failing
    obscurely inside the pool.
    """
    items = list(items)
    workers = min(resolve_workers(max_workers), max(1, len(items)))
    if workers <= 1:
        return map(function, items)
    try:
        pickle.dumps(function)
    except Exception as exc:
        raise ConfigurationError(
            "a process pool requires a picklable function (a "
            "module-level function or a task object such as "
            f"repro.parallel.EbwTask); got {function!r}: {exc}"
        ) from exc
    return _pooled(function, items, workers)


def _pooled(
    function: Callable[[T], R], items: list[T], workers: int
) -> Iterator[R]:
    chunksize = max(1, len(items) // (workers * 4))
    executor = None
    done = 0
    broken = None
    try:
        # Pool-less platforms (CPython raises ImportError from
        # sem_open-less multiprocessing) fail at construction; spawn
        # failures can also surface at first submit, inside map().
        executor = ProcessPoolExecutor(max_workers=workers)
        results = executor.map(function, items, chunksize=chunksize)
    except (OSError, ValueError, ImportError, BrokenProcessPool) as exc:
        broken = exc
    else:
        try:
            for result in results:
                yield result
                done += 1
        except BrokenProcessPool as exc:
            # Only this pool-infrastructure error triggers the
            # fallback: exceptions raised *by the function* propagate
            # unchanged, exactly as in the serial loop.
            broken = exc
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
    if broken is not None:
        warnings.warn(
            f"process pool unavailable ({broken}); computing "
            f"{len(items) - done} remaining item(s) serially",
            RuntimeWarning,
            stacklevel=2,
        )
        yield from map(function, items[done:])
