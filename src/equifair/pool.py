"""Worker processes of the embedding file I/O, the prediction writer and
``pipeline``, used from a size floor set by each caller where more than one
CPU is usable.  They start by the platform's default method, so a job's
function is module-level.  A job whose worker dies or cannot start runs in
this process instead."""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from typing import Iterable


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _exit_with_parent() -> None:
    """Pool initializer: end the worker when the process that started it
    ends; a worker waiting for its next job would not notice."""
    import multiprocessing
    import threading

    parent = multiprocessing.parent_process()

    def watch():
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


@contextmanager
def _process_pool(size: int, floor: int, workers: int = 0):
    """A pool of ``workers`` processes (0: one per usable CPU) for work of
    ``size`` from ``floor`` on, else None; shut down on leaving."""
    executor = None
    if size >= floor and _usable_cpus() > 1:
        # imported here, as most commands start no pool
        from concurrent.futures import ProcessPoolExecutor

        try:
            executor = ProcessPoolExecutor(workers or _usable_cpus(), initializer=_exit_with_parent)
        except (OSError, NotImplementedError):
            pass
    try:
        yield executor
    finally:
        if executor is not None:
            executor.shutdown(cancel_futures=True)


def _submit(executor, fn, job: tuple):
    """A function giving ``fn(*job)``, run on ``executor`` (here if its worker
    dies), or here at once without a pool or once it broke."""
    if executor is not None:
        from concurrent.futures.process import BrokenProcessPool

        try:
            future = executor.submit(fn, *job)
        except (BrokenProcessPool, OSError):  # a worker died, or could not fork
            pass
        else:
            def result():
                try:
                    return future.result()
                except BrokenProcessPool:
                    return fn(*job)

            return result
    done = fn(*job)
    return lambda: done


def _pooled(executor, fn, jobs: Iterable[tuple]):
    """``(job, fn(*job))`` in job order, two jobs per CPU in flight on ``executor``."""
    window = 2 * _usable_cpus() if executor is not None else 0
    pending: deque = deque()
    for job in jobs:
        pending.append((job, _submit(executor, fn, job)))
        if len(pending) > window:
            job, result = pending.popleft()
            yield job, result()
    while pending:
        job, result = pending.popleft()
        yield job, result()


@contextmanager
def _beside(size: int, floor: int, fn, job: tuple):
    """A function returning ``fn(*job)``, run on one worker beside the block
    from ``floor`` on, else here before it: its error comes first either way."""
    with _process_pool(size, floor, workers=1) as executor:
        yield _submit(executor, fn, job)
