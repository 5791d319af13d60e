"""Heap thresholds for the kernels' mid-size temporaries (glibc only).

A masked batch forward or a training epoch allocates and frees many
arrays of a few MB each (``(A, B, K)`` message tensors, ``(B, N, F)``
activations). Under glibc's defaults, each of those is a fresh ``mmap``
whose pages fault in one by one, or heap memory that is trimmed back to
the OS and faults in again on the next call. glibc raises both thresholds
on its own after the process frees one large block, so the cost appeared
or vanished with unrelated allocations: on Cora, a fidelity sweep took
5.5k minor page faults and ~25% longer when nothing had happened to free
a 31 MB buffer first.

:func:`tune_heap` sets the thresholds once, explicitly: blocks under
16 MB come from the heap, and up to 32 MB of free heap is kept for reuse
(the 2:1 ratio glibc's dynamic rule keeps). A larger trim threshold
bought no further speed and raised the serving daemon's peak RSS by
~12 MB. It runs when :mod:`repro.sparse` is imported. It does nothing
when the process already chose its own values through glibc's
``MALLOC_*_`` tunables, or where there is no glibc.
"""

from __future__ import annotations

import ctypes
import os
import sys

__all__ = ["tune_heap"]

#: Blocks smaller than this come from the heap instead of a fresh mmap.
MMAP_THRESHOLD = 16 * 2**20
#: Free memory at the top of the heap kept for reuse before trimming.
TRIM_THRESHOLD = 32 * 2**20

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_USER_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_",
                  "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")


def tune_heap() -> bool:
    """Set the heap thresholds; ``True`` when they were applied."""
    if not sys.platform.startswith("linux") or any(name in os.environ for name in _USER_SETTINGS):
        return False
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and \
        bool(mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
