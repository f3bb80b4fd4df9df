"""Execution backends for the chunked kernels.

The serial backend runs chunks in submission order on the calling thread,
and by default makes all rows one chunk: splitting pays only when a pool
overlaps the chunks, and each chunk costs a call into the compiled loop. The
threaded backend farms chunks of `chunk_size` rows out to a pool; chunk
boundaries and the order in which results are combined stay fixed, so both
backends produce identical numbers whatever the chunk size (the pool only
helps because the compiled force loop releases the GIL while it runs).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

__all__ = ["Backend", "SerialBackend", "ThreadBackend", "default_backend"]

_ENV_THREADS = "NANOPAIR_THREADS"


class Backend:
    # rows per task of a chunked kernel; None runs all rows as one task
    chunk_size: int | None = None

    def run(self, tasks, fn):
        raise NotImplementedError


class SerialBackend(Backend):
    def run(self, tasks, fn):
        return [fn(*t) for t in tasks]


class ThreadBackend(Backend):
    chunk_size = 4096

    def __init__(self, workers: int):
        self.workers = max(1, int(workers))

    def run(self, tasks, fn):
        if self.workers == 1 or len(tasks) <= 1:
            return [fn(*t) for t in tasks]
        with ThreadPoolExecutor(max_workers=self.workers) as pool:
            futures = [pool.submit(fn, *t) for t in tasks]
            return [f.result() for f in futures]


def default_backend() -> Backend:
    """Serial unless NANOPAIR_THREADS asks for a wider data-parallel pool."""
    width = os.environ.get(_ENV_THREADS, "")
    try:
        workers = int(width)
    except ValueError:
        workers = 1
    if workers > 1:
        return ThreadBackend(workers)
    return SerialBackend()
