#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--workloads NAME ...]

1. A smoke run of every workload, untraced and traced, with a small seed:
   each must exit 0 and end with a result line whose keys, metric names and
   units match BENCHMARK.json, with every answer correct.
2. A run with one golden value planted wrong: ``failed_share`` must rise
   above 0 and the result must say ``correct: false``.
3. A run in a copy holding only BENCHMARK.json and perfbench/: it must fail
   without printing a result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 1


def run_cli(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(line: str, metrics: list[dict]) -> list[str]:
    problems = []
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"answers not all correct: {result.get('failed')} failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted is not a positive whole number")
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in metrics}:
        problems.append(f"metric names differ: {sorted(set(got) ^ {m['name'] for m in metrics})}")
    for m in metrics:
        entry = got.get(m["name"], {})
        value = entry.get("value")
        if entry.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: {entry}")
    return problems


def smoke(workloads) -> list[str]:
    problems = []
    for workload in workloads:
        for trace, metrics in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = run_cli(ROOT, workload, trace)
            label = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            problems += [f"{label}: {p}" for p in check_result(proc.stdout.splitlines()[-1], metrics)]
            if trace == 0 and any(m["value"] <= 0 for m in json.loads(proc.stdout.splitlines()[-1])["metrics"].values()):
                problems.append(f"{label}: an end-to-end metric is not positive")
            print(f"ok {label}", flush=True)
    return problems


def planted_wrong_answer() -> list[str]:
    sys.path.insert(0, str(HERE))
    import run

    def plant(manifest):
        manifest["items"][0]["golden"]["boolean"] += 1

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=work_root))
    try:
        result, record = run.run_benchmark("graph-dense", SEED, 1, False, work, corpus_hook=plant)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if record["failed_share"] > 0 and result["correct"] is False:
        print(f"ok planted wrong answer: failed_share = {record['failed_share']:.3f}")
        return []
    return [f"planted wrong answer went unnoticed: failed_share = {record['failed_share']}"]


def bare_copy_fails() -> list[str]:
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work_root))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_cli(bare, SPEC["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode != 0 and '"correct"' not in proc.stdout:
        print(f"ok bare copy fails with exit {proc.returncode}")
        return []
    return [f"bare copy: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]


def main():
    parser = argparse.ArgumentParser(description="benchmark self-test")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    args = parser.parse_args()
    problems = smoke(args.workloads) + planted_wrong_answer() + bare_copy_fails()
    with contextlib.suppress(OSError):
        (ROOT / ".perfbench_work").rmdir()
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
