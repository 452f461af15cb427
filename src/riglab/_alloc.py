"""Fixed glibc malloc thresholds, so a trial reuses the heap the last one freed.

By default glibc raises its mmap threshold to the size of the largest mapped
block freed so far (up to 32 MiB) and its trim threshold to twice that; while
they are low it gives freed arrays back to the kernel, and the next trial
faults their pages in again.  Pinned at the values that rule tends to, 20
sweep trials at n = 10^5 after a warm-up took 1 minor page fault instead of
23,829, and perfbench's sweep_transition read an op_ms p50 of 155.7 to
166.7 ms against 191.4 to 197.8 ms unpinned (2-vCPU host, two alternating
20 s pairs).  Peak RSS does not depend on it: trial_giant read 83.1 to
83.2 MiB pinned and 82.8 to 82.9 MiB unpinned (three alternating 20 s
pairs).  Setting a threshold by mallopt also stops glibc from moving it.
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
