"""The GF(2) kernels under the name the rest of the package imports.

booldim._kernels_py is the only implementation; its searches are pruned
rather than compiled.
"""

from __future__ import annotations

from . import _kernels_py as kernels


def kernel_backend() -> str:
    """Name of the kernel implementation in use: always 'pure'."""
    return "pure"

