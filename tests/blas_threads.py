"""Test helpers for the BLAS pin: the thread count of every loaded OpenBLAS,
a fixture that sets them all to 2, and a skip mark where none is loaded."""

import pytest

from beyondnyq import _blas

requires_openblas = pytest.mark.skipif(not _blas.openblas_controls(), reason="no OpenBLAS loaded")


def thread_counts():
    return [get() for get, _ in _blas.openblas_controls()]


@pytest.fixture
def blas_at_two():
    """Every OpenBLAS at 2 threads, so that a pin to 1 and its undoing show."""
    controls = _blas.openblas_controls()
    previous = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(2)
    try:
        yield [2] * len(controls)
    finally:
        for (_, set_), count in zip(controls, previous):
            set_(count)
