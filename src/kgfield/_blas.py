"""One OpenBLAS thread around the dense magnetic operator's BLAS and LAPACK.

kgfield.em's operators are at most 1024 x 1024.  A second thread buys
nothing at that size, can stall a cold process for most of a second after
an idle pause, and moves the last bits of eigh's eigenvectors.  The thread
API of the scipy-openblas library that numpy bundles is found with ctypes
on first use; with another BLAS, one_thread() does nothing.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from pathlib import Path


@functools.cache
def _thread_api():
    """(get, set) of the bundled OpenBLAS thread count, or None."""
    import ctypes

    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*")):
        try:
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


def threads() -> int | None:
    """The OpenBLAS thread count, or None where one_thread() cannot set it."""
    api = _thread_api()
    return api[0]() if api else None


@contextmanager
def one_thread():
    """Run the body on one OpenBLAS thread and restore the count after."""
    api = _thread_api()
    if api is None:
        yield
        return
    get, put = api
    old = get()
    put(1)
    try:
        yield
    finally:
        put(old)
