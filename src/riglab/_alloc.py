"""Fixed glibc malloc thresholds, so a trial's peak RSS depends on its own
graph and not on the trials run before it in the same process.

By default glibc raises its mmap threshold to the size of the largest mapped
block freed so far (up to 32 MiB) and its trim threshold to twice that.  A
trial frees arrays of random sizes close to one another (about 16 MB each at
n = 10^6, gamma = 2), so whether the next array gets its own mapping or comes
from the heap, and how much freed heap stays resident, depends on earlier
trials: six 20 s runs of perfbench's trial_giant on a 2-vCPU host peaked at
124 to 146 MiB.  Pinned at the values the sliding rule tends to, eleven runs,
six of them on the same seeds, peaked at 124.2 to 124.6 MiB, at the same
speed.  Setting a threshold by mallopt also stops glibc from moving it.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "pin_malloc_thresholds"]

MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20

# mallopt parameter numbers, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def pin_malloc_thresholds() -> None:
    """Set both thresholds on glibc; on any other C library do nothing."""
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if glibc:
        mallopt = ctypes.CDLL(None).mallopt
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)
