"""The OpenBLAS thread-count helper that training and Monte Carlo passes run under."""

import ctypes

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
