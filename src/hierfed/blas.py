"""One BLAS thread while a command computes.

hierfed runs (fold, repetition) pairs in parallel worker processes, so each
process computes on a single BLAS thread. With OpenBLAS's default of one
thread per core, a forked pool of five workers on two cores ran the
training kernels several times slower than with one thread each. A single
thread also keeps results independent of the host: OpenBLAS splits a
long product such as a weight gradient over its threads, so one thread
and two threads gave results that differ in the last bits.

numpy offers no control of BLAS threads, so this calls OpenBLAS's own
functions in the library that numpy links. With any other BLAS the thread
count is left as it is.
"""

from __future__ import annotations

import ctypes
import functools
from contextlib import contextmanager


@functools.cache
def _openblas_threads():
    """(get, set) of the OpenBLAS thread count numpy uses, or None."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            put = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


@contextmanager
def one_blas_thread():
    """Limit OpenBLAS to one thread inside the block, then restore it.

    Worker processes forked inside the block inherit the limit.
    """
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, put = threads
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)
