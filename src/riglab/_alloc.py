"""Fixed glibc malloc thresholds: small arrays reuse one heap, large ones map.

By default glibc raises its mmap threshold to the size of the largest mapped
block freed so far (up to 32 MiB) and its trim threshold to twice that; while
they are low it gives freed arrays back to the kernel, and the next trial
faults their pages in again.  Pinned, 20 sweep trials at n = 10^5 after a
warm-up took 1 minor page fault instead of 23,829, and perfbench's
sweep_transition read an op_ms p50 of 155.7 to 166.7 ms against 191.4 to
197.8 ms unpinned (2-vCPU host, two alternating 20 s pairs); every array of
such a trial is under 1 MiB (its page faults per sweep were the same with
the threshold at 1 MiB as at 4).  Arrays of MMAP_THRESHOLD or more get
their own mappings, given back when freed, so RSS follows a trial's live
arrays: in the heap, small long-lived allocations left inside the region a
trial freed split it, and over 200 trials at n = 10^6 the high-water mark
jumped 9 to 12 MiB above one trial's need (mallinfo2().arena after each
trial, seeds 11 to 13).  At 4 MiB the int32 arrays of about 10^6 entries
(offsets, the census's labels and root pairs) stayed in the heap, and its
high-water mark from one trial's census came on top of the next trial's
mapped members and pair keys: RSS grew 1.25 times one trial's traced peak
over three trials, against 1.08 at 2 MiB.  Mapped, the arrays of such a
trial cost a few per cent of its time in page faults.  Setting a threshold
by mallopt also stops glibc from moving it.
"""

from __future__ import annotations

import ctypes
import os

__all__ = ["MMAP_THRESHOLD", "TRIM_THRESHOLD", "pin_malloc_thresholds"]

MMAP_THRESHOLD = 2 << 20
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
