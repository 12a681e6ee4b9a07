"""Layer spans recorded from outside booldim.

booldim's modules call each other through module attributes looked up at call
time (``kernels.diagonal_sweep``, ``f2core.rank``, ``run_tasks``), so swapping
those attributes for timing wrappers traces every layer boundary without
editing the program.  Spans are kept in memory as
[name, start, end, parent, run_id] and summarised when the run ends.

Only the benchmark process is traced: pool workers inherit the wrappers but
call straight through, so work done in a worker shows up as the time of the
``parallel.run_tasks`` span that waited for it.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Called once per diagonal mask or per vector pair inside a layer; wrapping
# them would multiply the traced work rather than measure it.
UNWRAPPED = {"kernels.rank_capped", "f2core.form_value"}


def cpu_now() -> float:
    """User plus system CPU seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def layer_modules():
    """(label, module) for each booldim layer the trace wraps."""
    from booldim import _backend, _parallel, cli, dims, f2core, graphs, tournaments, trees

    return [
        ("kernels", _backend.kernels),
        ("f2core", f2core),
        ("dims", dims),
        ("graphs", graphs),
        ("trees", trees),
        ("tournaments", tournaments),
        ("parallel", _parallel),
        ("cli", cli),
    ]


def _public_functions(label, module):
    for attr, value in vars(module).items():
        name = f"{label}.{attr}"
        if attr.startswith("_") or name in UNWRAPPED:
            continue
        if (inspect.isfunction(value) or inspect.isbuiltin(value)) and getattr(
            value, "__module__", None
        ) == module.__name__:
            yield name, value


class Tracer:
    def __init__(self):
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.pool: list[tuple[int, int, float]] = []  # (span, tasks, cpu_s)
        self.cache = Counter()
        self.run_id = -1
        self.wrapped: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name, fn, probe=None):
        """``fn`` recording a span; ``probe(args)`` returns a callback given the result."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.run_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            done = probe(index, args) if probe else None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if done:
                done(result)
            return result

        return traced

    # Probes -----------------------------------------------------------------

    def _pool_probe(self, index, args):
        tasks = len(args[0])
        start = cpu_now()
        return lambda result: self.pool.append((index, tasks, cpu_now() - start))

    def _write_probe(self, index, args):
        path, text = args
        fresh = not path.exists()

        def done(result):
            if fresh:
                self.cache["writes"] += 1
                self.cache["bytes"] += len(text.encode())

        return done

    def _contains_probe(self, index, args):
        def done(result):
            self.cache["hits" if result else "misses"] += 1

        return done

    def _read_probe(self, index, args):
        return lambda result: self.cache.update(["reads"])

    @contextmanager
    def installed(self):
        """Swap every booldim reference to a layer function for its wrapper."""
        from booldim import cli

        probes = {"parallel.run_tasks": self._pool_probe, "cli._write_once": self._write_probe}
        targets = [t for label, module in layer_modules() for t in _public_functions(label, module)]
        targets.append(("cli._write_once", cli._write_once))
        self.wrapped = {name for name, _ in targets}
        wrappers = {
            id(fn): (fn, self.wrap(name, fn, probes.get(name))) for name, fn in targets
        }
        patches = []
        modules = [m for key, m in sys.modules.items() if key == "booldim" or key.startswith("booldim.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit and hit[0] is value:
                    patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        index_cache = cli.FileIndexCache
        for attr, probe in (("__contains__", self._contains_probe), ("__getitem__", self._read_probe)):
            original = getattr(index_cache, attr)
            patches.append((index_cache, attr, original))
            setattr(index_cache, attr, self.wrap(f"cli.FileIndexCache.{attr}", original, probe))
        try:
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # Summary ----------------------------------------------------------------

    def outermost(self, index: int) -> bool:
        """False when an enclosing span has the same name (recursion)."""
        name, parent = self.spans[index][0], self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return False
            parent = self.spans[parent][3]
        return True

    def layers(self) -> dict[str, dict[str, float]]:
        """calls, time_s (outermost spans) and self_s per span name.

        Self time is a span's duration minus the time its direct children
        cover; children of one span run one after another, never overlapping.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        stats: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "time_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["self_s"] += end - start - covered[index]
            if self.outermost(index):
                entry["time_s"] += end - start
        return stats
