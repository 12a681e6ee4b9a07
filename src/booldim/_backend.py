"""The kernel implementation's name, for run records.

booldim._kernels_py is the only implementation; its searches are pruned
rather than compiled.  The package imports it directly; ``kernels`` is kept
here for perfbench/tracing.py, which labels its layer spans by it.
"""

from __future__ import annotations

from . import _kernels_py as kernels


def kernel_backend() -> str:
    """Name of the kernel implementation in use: always 'pure'."""
    return "pure"
