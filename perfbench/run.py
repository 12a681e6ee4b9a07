#!/usr/bin/env python3
"""booldim benchmark: one user at a terminal, running the CLI in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src``.  Set-up
writes the seeded corpus (perfbench/corpus.py) from a fresh interpreter
several times, spread over the run, and keeps the median as ``setup_s``.
The run calls ``booldim.cli.main`` on every corpus item, one call after the
other, with ``--json --workers 2`` and its own ``--cache-dir``, and checks
each reply against its golden value and certificate (perfbench/checks.py).

Calls come in passes over the corpus, and passes in pairs: a cold pass on a
fresh cache directory, then a warm pass on the directory it filled.  A run
makes at least two pairs (three on graph-dense, see MIN_PAIRS), and more while
another one fits in ``--seconds``.
With ``--trace 1`` untraced pairs (at least one) take half of ``--seconds``
and pairs traced layer by layer (perfbench/tracing.py) take the other half;
per-layer values are per traced pair, and the difference between the traced
and untraced pass times is the tracing overhead.

The last line of standard output is the result: ``correct``, ``attempted``,
``failed`` and the metrics BENCHMARK.json lists (``end_to_end`` untraced,
``per_layer`` traced).  The full record, with provenance, the corpus digest,
every pass and the whole trace summary, is printed on the line before and
written to .perfbench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import fmean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORKERS = 2
SETUP_REPEATS = 15
# Cold/warm pairs a run makes at least.  graph-dense fits three pairs in a
# 25 s run on a quiet machine and two on a busy one; a fixed three keeps its
# call count, and so the percentile latency_tail_ms reads, the same.
MIN_PAIRS = {"graph-dense": 3}
DEFAULT_MIN_PAIRS = 2
SWEEPS = ("f2core.minrank_sweep", "f2core.inner_cost_sweep")
TAIL_BEYOND = 10


sys.path.insert(0, str(HERE))
from checks import check_reply  # noqa: E402
from corpus import WORKLOADS  # noqa: E402
from tracing import Tracer, cpu_now  # noqa: E402


def latency_summary(calls: list[dict]) -> dict:
    """Median and tail of the call times.

    The tail is the mean of the calls at or above the highest percentile with
    at least TAIL_BEYOND samples above it.  That percentile alone would land
    on the boundary between two items' call times and read one item on some
    seeds and the other on the rest; the mean of the calls beyond it does not.
    Below 2 * TAIL_BEYOND + 1 samples the percentile would not be above the
    median (or would not exist), and the tail is the slowest item's mean call
    time, with no percentile.
    """
    ordered = sorted(c["seconds"] for c in calls)
    count = len(ordered)
    if count > 2 * TAIL_BEYOND:
        tail, percentile = fmean(ordered[count - TAIL_BEYOND - 1:]), 100.0 * (count - TAIL_BEYOND) / count
        kind = "mean at or above percentile"
    else:
        per_item: dict[str, list[float]] = {}
        for c in calls:
            per_item.setdefault(c["item"]["id"], []).append(c["seconds"])
        tail, percentile = max(fmean(times) for times in per_item.values()), None
        kind = "slowest item mean"
    return {
        "samples": count,
        "p50_ms": 1000 * median(ordered),
        "tail_ms": 1000 * tail,
        "tail_kind": kind,
        "tail_percentile": percentile,
    }


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class SetUp:
    """Writes the corpus from fresh interpreters, SETUP_REPEATS times a run.

    The first write makes the corpus the run uses.  The others are spread
    over the run by ``keep_pace``: the host's speed shifts over tens of
    seconds, and repeats made back to back all measure one moment of it.
    Every repeat must produce the same digest.
    """

    def __init__(self, workload: str, seed: int, work: Path):
        self.argv = [sys.executable, str(HERE / "corpus.py"), "--workload", workload, "--seed", str(seed)]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
        self.work = work
        self.times: list[float] = []
        self.digests: set[str] = set()

    def once(self) -> tuple[Path, dict]:
        out = self.work / f"corpus-{len(self.times)}"
        start = time.perf_counter()
        # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms,
        # which rounds every set-up time up to that grid.
        subprocess.run(self.argv + ["--out", str(out)], env=self.env, check=True)
        self.times.append(time.perf_counter() - start)
        manifest = json.loads((out / "manifest.json").read_text())
        self.digests.add(manifest["digest"])
        if len(self.digests) != 1:
            raise RuntimeError("set-ups of one seed wrote different corpora")
        return out, manifest

    def keep_pace(self, share: float):
        """Repeat until `share` (0 to 1) of the SETUP_REPEATS set-ups are done."""
        while len(self.times) < min(SETUP_REPEATS, math.ceil(SETUP_REPEATS * share)):
            self.once()


def import_program():
    """Import booldim from this checkout's src, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import booldim
    import booldim.cli

    if Path(booldim.__file__).resolve().parent != (SRC / "booldim").resolve():
        raise RuntimeError(f"booldim imported from {booldim.__file__}, not from {SRC}")
    return booldim


def provenance(booldim, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "booldim").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "kernel_backend": booldim.kernel_backend(),
        "booldim_version": booldim.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "workers": WORKERS,
        "seed": seed,
        "git_commit": commit,
        "source_digest": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


class Session:
    """One closed-loop client: calls the CLI and keeps every reply for checking."""

    def __init__(self, booldim, manifest: dict, corpus: Path, work: Path, tracer=None):
        self.cli = booldim.cli
        self.items = manifest["items"]
        self.corpus = corpus
        self.work = work
        self.tracer = tracer
        self.calls: list[dict] = []
        self.passes: list[dict] = []
        self._dirs = 0

    def argv(self, item: dict, cache: Path) -> list[str]:
        args = [str(self.corpus / a) if a == item["file"] else a for a in item["argv"]]
        return args + ["--json", "--workers", str(WORKERS), "--cache-dir", str(cache)]

    def call(self, item: dict, cache: Path) -> dict:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.argv(item, cache))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising call is a failed call, counted below
            code, error = None, repr(exc)
        return {
            "item": item,
            "seconds": time.perf_counter() - start,
            "code": code,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "error": error,
        }

    def run_pass(self, phase: str, cache: Path, traced: bool):
        cpu0 = cpu_now()
        calls = []
        start = time.perf_counter()
        for item in self.items:
            if self.tracer is not None:
                self.tracer.run_id = len(self.calls) + len(calls)
            calls.append(self.call(item, cache))
        wall = time.perf_counter() - start
        cpu = cpu_now() - cpu0
        for c in calls:
            c["traced"] = traced
        self.calls.extend(calls)
        self.passes.append({"phase": phase, "traced": traced, "wall_s": wall, "cpu_s": cpu})

    def run_pairs(self, budget_s: float, min_pairs: int, traced: bool = False, after_pass=None):
        """Cold/warm pass pairs: at least min_pairs, then more while one fits in budget_s.

        ``after_pass(share)`` runs after every pass with the share of budget_s spent.
        """
        start = time.perf_counter()
        pairs = 0
        while True:
            cache = self.work / f"cache-{self._dirs}"
            self._dirs += 1
            for phase in ("cold", "warm"):
                self.run_pass(phase, cache, traced)
                if after_pass is not None:
                    after_pass((time.perf_counter() - start) / budget_s)
            pairs += 1
            elapsed = time.perf_counter() - start
            if pairs >= min_pairs and elapsed + elapsed / pairs > budget_s:
                return


def check_call(call: dict, corpus: Path) -> str | None:
    if call["error"] is not None:
        return f"raised {call['error']}"
    if call["code"] != 0:
        return f"exit code {call['code']}: {call['stderr'].strip()[:200]}"
    try:
        record = json.loads(call["stdout"])
    except json.JSONDecodeError:
        return "reply is not one JSON record"
    item = call["item"]
    data = (corpus / item["file"]).read_text() if item["file"] else None
    return check_reply(item, record, data)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end(session: Session, setup_times: list[float]) -> tuple[dict, dict]:
    passes = [p for p in session.passes if not p["traced"]]
    latency = latency_summary([c for c in session.calls if not c["traced"]])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    values = {
        "setup_s": median(setup_times),
        "wall_s": median([p["wall_s"] for p in passes]),
        "cpu_s": median([p["cpu_s"] for p in passes]),
        "latency_p50_ms": latency["p50_ms"],
        "latency_tail_ms": latency["tail_ms"],
        "peak_rss_mb": max(own, kids) / 1024,
        "cold_pass_s": median([p["wall_s"] for p in passes if p["phase"] == "cold"]),
        "warm_pass_s": median([p["wall_s"] for p in passes if p["phase"] == "warm"]),
    }
    return values, latency


def per_layer(session: Session, tracer, names: list[str]) -> tuple[dict, dict]:
    """Values per traced pair (one cold and one warm pass), averaged over the pairs."""
    traced = [p for p in session.passes if p["traced"]]
    untraced = [p for p in session.passes if not p["traced"]]
    pairs = len(traced) // 2
    layers = {
        name: {stat: value / pairs for stat, value in entry.items()}
        for name, entry in tracer.layers().items()
    }
    cells: dict[str, float] = {}
    for index, (name, start, end, _, run_id) in enumerate(tracer.spans):
        if name in SWEEPS and tracer.outermost(index):
            item = session.calls[run_id]["item"]
            key = f"f2core.sweep_s.{item['family']}.n{item['n']}"
            cells[key] = cells.get(key, 0.0) + (end - start) / pairs
    pool_time = sum(tracer.spans[i][2] - tracer.spans[i][1] for i, _, _ in tracer.pool)
    overhead = median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in untraced])
    extra = {
        "parallel.run_tasks.tasks": sum(t for _, t, _ in tracer.pool) / pairs,
        "parallel.run_tasks.cpu_per_wall": sum(c for _, _, c in tracer.pool) / pool_time if pool_time else 0.0,
        "pass.cpu_per_wall": sum(p["cpu_s"] for p in traced) / sum(p["wall_s"] for p in traced),
        "trace.overhead_s": overhead,
        "trace.overhead_share": overhead / median([p["wall_s"] for p in untraced]),
    }
    extra.update({f"cli.cache.{k}": tracer.cache[k] / pairs for k in ("writes", "bytes", "hits", "misses", "reads")})
    known_cells = {
        f"f2core.sweep_s.{family}.n{n}"
        for items in WORKLOADS.values() for family, n, _ in items
    }
    values = {}
    for name in names:
        head, _, stat = name.rpartition(".")
        if name in extra:
            values[name] = extra[name]
        elif name.startswith("f2core.sweep_s."):
            if name not in known_cells:
                raise KeyError(f"no workload has the sweep cell {name}")
            values[name] = cells.get(name, 0.0)
        elif stat in ("calls", "time_s", "self_s") and head in tracer.wrapped:
            values[name] = layers.get(head, {}).get(stat, 0)
        else:
            raise KeyError(f"per-layer metric {name} is not measured")
    summary = {
        "note": "Only the benchmark process is traced; work inside pool workers "
                "appears as parallel.run_tasks time.  Values are per traced pair "
                "(one cold pass plus one warm pass), averaged over the traced pairs.",
        "traced_pairs": pairs,
        "layers": layers,
        "sweep_cells": cells,
        "spans": len(tracer.spans),
        **extra,
    }
    return values, summary


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, work: Path,
                  corpus_hook=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record).

    ``corpus_hook(manifest)`` may edit the manifest before the run; the
    self-test uses it to plant a wrong golden value.
    """
    spec = json.loads(SPEC_PATH.read_text())
    setup = SetUp(workload, seed, work)
    corpus, manifest = setup.once()
    booldim = import_program()
    if corpus_hook is not None:
        corpus_hook(manifest)
    tracer = None
    if trace:
        tracer = Tracer()
    session = Session(booldim, manifest, corpus, work, tracer)
    if trace:
        session.run_pairs(seconds / 2, min_pairs=1)
        with tracer.installed():
            session.run_pairs(seconds / 2, min_pairs=1, traced=True)
    else:
        session.run_pairs(seconds, min_pairs=MIN_PAIRS.get(workload, DEFAULT_MIN_PAIRS),
                          after_pass=setup.keep_pace)
    setup.keep_pace(1.0)
    failures = []
    for call in session.calls:
        reason = check_call(call, corpus)
        if reason is not None:
            failures.append({"item": call["item"]["id"], "reason": reason})
    attempted = len(session.calls)
    e2e, latency = end_to_end(session, setup.times)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(booldim, seed),
        "corpus": {
            "digest": manifest["digest"],
            "items": [{"id": i["id"], "family": i["family"], "n": i["n"]} for i in manifest["items"]],
        },
        "setup_s_samples": setup.times,
        "passes": session.passes,
        "calls": [[c["item"]["id"], c["traced"], round(c["seconds"], 6)] for c in session.calls],
        "latency": latency,
        "attempted": attempted,
        "failed": len(failures),
        "failed_share": len(failures) / attempted,
        "failures": failures[:20],
        "end_to_end": e2e,
    }
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        layer_values, record["trace_summary"] = per_layer(session, tracer, names)
        metrics = {m["name"]: {"value": layer_values[m["name"]], "unit": m["unit"]} for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="booldim CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    if not (SRC / "booldim" / "cli.py").is_file():
        print(f"error: no booldim sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("BOOLDIM_PURE", "BOOLDIM_CACHE_DIR"):
        os.environ.pop(var, None)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    try:
        result, record = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
