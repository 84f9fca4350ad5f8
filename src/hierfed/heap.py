"""Fixed glibc malloc thresholds, so numpy's temporaries reuse heap memory.

The kernels allocate arrays of a few MB at every step. glibc maps a request
above its mmap threshold (128 KiB at start) afresh, faulting it in page by
page, and hands free heap memory above its trim threshold back to the
kernel; it raises both only after freeing a mapped block larger than the
threshold. Left to glibc, a process steps slowly until something frees a
large block, and whether anything does depends on the run: on a 2-vCPU
host an op-personal-train operation of the benchmark took 1.41 s of CPU
and 258k page faults in a fresh process, and 1.17 s and 0.3k faults in a
process that had freed a 10 MB array first. Other C libraries are left as
they are.
"""

from __future__ import annotations

import ctypes
import functools

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's largest mmap threshold on 64-bit hosts, and twice that for the
# trim threshold, the ratio glibc keeps when it raises them itself
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


@functools.cache
def keep_temporaries_on_heap() -> bool:
    """Fix glibc's mmap and trim thresholds for this process and the workers
    it forks; False, changing nothing, with any other C library. Done once
    a process: every ctypes.CDLL leaves a reference cycle behind."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return False
    if not hasattr(libc, "gnu_get_libc_version"):  # the option numbers are glibc's
        return False
    return bool(libc.mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
                and libc.mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
