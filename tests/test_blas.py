"""The OpenBLAS thread-count helper that training and Monte Carlo passes run under."""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swiptkit._blas as blas

needs_openblas = pytest.mark.skipif(blas._thread_functions() is None,
                                    reason="numpy's OpenBLAS not found")


@needs_openblas
def test_one_blas_thread_sets_one_and_restores_after_a_raise():
    get, set_ = blas._thread_functions()
    caller = get()
    try:
        set_(2)
        with blas.one_blas_thread():
            assert get() == 1
        assert get() == 2
        with pytest.raises(KeyError), blas.one_blas_thread():
            assert get() == 1
            raise KeyError
        assert get() == 2
    finally:
        set_(caller)


@needs_openblas
def test_one_blas_thread_sets_numpys_openblas_not_scipys():
    # scipy bundles a second OpenBLAS (no 64_ symbols) in the same process
    import scipy.linalg._fblas as fblas
    try:
        scipy_get = ctypes.CDLL(fblas.__file__).scipy_openblas_get_num_threads
    except AttributeError:
        pytest.skip("scipy's OpenBLAS not found")
    scipy_get.argtypes, scipy_get.restype = [], ctypes.c_int
    get, set_ = blas._thread_functions()
    caller, scipy_caller = get(), scipy_get()
    try:
        set_(2)
        with blas.one_blas_thread():
            assert get() == 1 and scipy_get() == scipy_caller
    finally:
        set_(caller)


# run in a fresh interpreter: swiptkit imports no scipy, so numpy's OpenBLAS
# is the only one loaded when the symbols are first looked up
_BEFORE_AND_AFTER_SCIPY = """
import ctypes, sys
import swiptkit._blas as blas
assert not any(m.startswith("scipy") for m in sys.modules)
get, set_ = blas._thread_functions()
caller = get()
set_(2)
with blas.one_blas_thread():
    assert get() == 1
assert get() == 2

import scipy.linalg._fblas as fblas
address = lambda f: ctypes.cast(f, ctypes.c_void_p).value
blas._thread_functions.cache_clear()
assert address(blas._thread_functions()[0]) == address(get)   # still numpy's
assert get() == 2
try:
    scipy_get = ctypes.CDLL(fblas.__file__).scipy_openblas_get_num_threads
except AttributeError:
    scipy_get = lambda: None
else:
    scipy_get.argtypes, scipy_get.restype = [], ctypes.c_int
scipy_caller = scipy_get()
with blas.one_blas_thread():
    assert get() == 1 and scipy_get() == scipy_caller
assert get() == 2
set_(caller)
print("ok")
"""


@needs_openblas
def test_one_blas_thread_works_before_scipy_loads_and_after():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _BEFORE_AND_AFTER_SCIPY], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stdout.strip() == "ok", proc.stderr


def test_one_blas_thread_does_nothing_when_no_symbol_resolves(monkeypatch):
    functions = blas._thread_functions()
    before = None if functions is None else functions[0]()
    monkeypatch.setattr(blas, "_thread_functions", lambda: None)
    with blas.one_blas_thread():
        inside = None if functions is None else functions[0]()
    assert inside == before


def test_thread_functions_are_none_when_no_symbol_resolves(monkeypatch):
    blas._thread_functions.cache_clear()
    monkeypatch.setattr(blas, "_SYMBOLS", [("no_such_get_num_threads", "no_such_set")])
    try:
        assert blas._thread_functions() is None
    finally:
        blas._thread_functions.cache_clear()
