"""Deterministic fan-out, used for the per-class indices of the tournament
table.

Tasks are (function, args) pairs over picklable values; results come back in
task order, so callers can reduce them deterministically regardless of worker
count or scheduling.
"""

from __future__ import annotations


def run_tasks(tasks, workers: int):
    if workers <= 1 or len(tasks) <= 1:
        return [fn(*args) for fn, args in tasks]
    # Imported here because only the tournament table runs a pool; loading
    # multiprocessing would cost every other command import time and memory.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        futures = [pool.submit(fn, *args) for fn, args in tasks]
        return [f.result() for f in futures]
