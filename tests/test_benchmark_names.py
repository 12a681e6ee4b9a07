"""Every layer BENCHMARK.json times is a function the benchmark tracer wraps.

The traced benchmark run raises on a per-layer name that no booldim function
carries; this test makes deleting or renaming such a function fail the suite
instead.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from tracing import Tracer  # noqa: E402


def test_per_layer_heads_are_traced():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    heads = set()
    for metric in spec["per_layer"]:
        head, _, stat = metric["name"].rpartition(".")
        if stat in ("calls", "time_s", "self_s"):
            heads.add(head)
    tracer = Tracer()
    with tracer.installed():
        pass
    assert heads
    assert heads <= tracer.wrapped, sorted(heads - tracer.wrapped)
