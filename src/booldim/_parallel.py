"""Ordered map over the per-class indices of the tournament table.

Tasks are zero-argument callables run in this process, one after the other;
results come back in task order.  The map is a module of its own so that the
benchmark's layer trace (perfbench/tracing.py) times the table's per-class
work as one span.
"""

from __future__ import annotations


def run_tasks(tasks):
    return [task() for task in tasks]
