"""The thread count of the OpenBLAS that numpy's matmul calls, set through
ctypes. Nothing is looked up until first use.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools

# (get, set) symbol pairs: scipy-openblas wheels with 64-bit and 32-bit
# integers, then a plain OpenBLAS build of either kind
_SYMBOLS = [(f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
            for prefix in ("scipy_openblas", "openblas") for suffix in ("64_", "")]


@functools.cache
def _thread_functions():
    """(get, set) of numpy's OpenBLAS, or None when none of the symbols
    resolves.

    The symbols are looked up through numpy's own extension module, so the
    dynamic linker searches that module's dependencies only. Another OpenBLAS
    in the process (scipy bundles one of its own) is never picked.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:   # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for get_name, set_name in _SYMBOLS:
        try:
            get, set_ = getattr(lib, get_name), getattr(lib, set_name)
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return get, set_
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread and put the caller's count back
    when it ends, also when it raises. Does nothing when numpy's OpenBLAS is
    not found. The count is per process: other threads' matmuls run on one
    BLAS thread while the block runs. Training runs under it, and so does
    every Monte Carlo pass, whose decode blocks run one per CPU on threads
    of their own.
    """
    functions = _thread_functions()
    if functions is None:
        yield
        return
    get, set_ = functions
    saved = get()
    set_(1)
    try:
        yield
    finally:
        set_(saved)
