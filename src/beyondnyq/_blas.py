"""Process-wide OpenBLAS thread control, standard library only.

numpy and scipy wheels each bundle their own OpenBLAS, so every loaded copy
is found and set.  Where none is loaded (MKL, Accelerate, or not Linux) the
helpers do nothing.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager

# (prefix, suffix) of the thread functions: the scipy-openblas wheels of
# numpy and scipy, then the older numpy wheels, then a plain OpenBLAS
_PREFIXES = (
    ("scipy_openblas_", "64_"),
    ("scipy_openblas_", ""),
    ("openblas_", "64_"),
    ("openblas_", ""),
)


def openblas_controls() -> list[tuple]:
    """``(get_num_threads, set_num_threads)`` of every loaded OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    paths = dict.fromkeys(f[5].rstrip("\n") for f in fields if len(f) == 6 and f[5].startswith("/"))
    controls = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except OSError:  # not a shared library, or not loaded
            continue
        for prefix, suffix in _PREFIXES:
            try:
                get = getattr(lib, f"{prefix}get_num_threads{suffix}")
                set_ = getattr(lib, f"{prefix}set_num_threads{suffix}")
            except AttributeError:
                continue
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            # an extension linked to OpenBLAS resolves the same symbols
            controls[ctypes.cast(get, ctypes.c_void_p).value] = (get, set_)
            break
    return list(controls.values())


# the thread counts are process-wide, so blocks that overlap in time (from
# several threads) share one pin: the first to enter sets it, the last to
# leave restores the counts the first one found
_lock = threading.Lock()
_active = 0
_restore: list[tuple] = []


@contextmanager
def single_threaded_blas():
    """Run the block with every loaded OpenBLAS on one thread, then restore
    the previous counts, also when the block raises."""
    global _active, _restore
    with _lock:
        if _active == 0:
            _restore = [(set_, get()) for get, set_ in openblas_controls()]
            for set_, _ in _restore:
                set_(1)
        _active += 1
    try:
        yield
    finally:
        with _lock:
            _active -= 1
            if _active == 0:
                for set_, count in _restore:
                    set_(count)
