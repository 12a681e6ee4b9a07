"""Shared generators for the test suite.  Everything is seeded."""

from __future__ import annotations

import random
import time

import pytest

from booldim import _kernels_py
from booldim.graphs import Graph
from booldim.tournaments import Tournament


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


def random_tree(rng: random.Random, n: int) -> Graph:
    """Random recursive tree (each vertex joins an earlier one), relabeled by a
    random permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[v], perm[rng.randrange(v)]) for v in range(1, n)])


def random_symmetric_rows(rng: random.Random, n: int, zero_diagonal: bool = True):
    rows = [0] * n
    for i in range(n):
        if not zero_diagonal and rng.random() < 0.5:
            rows[i] |= 1 << i
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return tuple(rows)


def random_tournament(rng: random.Random, n: int) -> Tournament:
    arcs = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                arcs[i] |= 1 << j
            else:
                arcs[j] |= 1 << i
    return Tournament(n, tuple(arcs))


def all_tournaments_labeled(n: int):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(pairs)):
        arcs = [0] * n
        for t, (i, j) in enumerate(pairs):
            if (mask >> t) & 1:
                arcs[i] |= 1 << j
            else:
                arcs[j] |= 1 << i
        yield Tournament(n, tuple(arcs))


class JumpingClock:
    """Stands in for the kernels' clock: real time for the first ``polls``
    reads, then far past any deadline."""

    def __init__(self, polls: int):
        self.polls = polls
        self.reads = 0

    def monotonic(self) -> float:
        self.reads += 1
        return time.monotonic() + (1e9 if self.reads > self.polls else 0.0)


@pytest.fixture()
def clock_jump(monkeypatch):
    """``clock_jump(polls)`` makes the kernels' deadline polls expire after
    ``polls`` reads, so a budget can run out in the middle of a search."""

    def install(polls: int) -> JumpingClock:
        clock = JumpingClock(polls)
        monkeypatch.setattr(_kernels_py, "time", clock)
        return clock

    return install
