"""Process-wide OpenBLAS thread control, standard library only.

numpy and scipy wheels each bundle their own OpenBLAS, so every loaded copy
is found and set.  Where none is loaded (MKL, Accelerate, or not Linux) the
pin does nothing and no fork is deemed safe.  A fork needs no call from
here: each pthreads OpenBLAS stops its idle threads in its own
``pthread_atfork`` handler and starts new ones at its next threaded call.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager

# (prefix, suffix) of the thread functions: the scipy-openblas wheels of
# numpy and scipy, then the older numpy wheels, then a plain OpenBLAS
_PREFIXES = (
    ("scipy_openblas_", "64_"),
    ("scipy_openblas_", ""),
    ("openblas_", "64_"),
    ("openblas_", ""),
)


# what each mapped path gave when it was first probed: (library, prefix,
# suffix), or None for a path that is no OpenBLAS; a mapped library stays
# mapped, and a fork keeps the parent's maps, so a path is probed once
_probed: dict[str, tuple | None] = {}


def _probe(path: str) -> tuple | None:
    try:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
    except OSError:  # not a shared library, or not loaded
        return None
    for prefix, suffix in _PREFIXES:
        if hasattr(lib, f"{prefix}get_num_threads{suffix}"):
            return lib, prefix, suffix
    return None


def _openblas_libraries() -> list[tuple]:
    """``(library, prefix, suffix)`` of every loaded OpenBLAS, once per copy;
    only the paths mapped since the last call are opened."""
    try:
        with open("/proc/self/maps") as maps:
            fields = [line.split(maxsplit=5) for line in maps]
    except OSError:
        return []
    libraries = {}
    for path in dict.fromkeys(f[5].rstrip("\n") for f in fields if len(f) == 6 and f[5].startswith("/")):
        if path not in _probed:
            _probed[path] = _probe(path)
        if _probed[path] is not None:
            lib, prefix, suffix = _probed[path]
            # an extension linked to OpenBLAS resolves the same symbols
            get = getattr(lib, f"{prefix}get_num_threads{suffix}")
            libraries.setdefault(ctypes.cast(get, ctypes.c_void_p).value, _probed[path])
    return list(libraries.values())


def _function(lib, name: str, argtypes: list, restype):
    function = getattr(lib, name)
    function.argtypes, function.restype = argtypes, restype
    return function


def openblas_controls() -> list[tuple]:
    """``(get_num_threads, set_num_threads)`` of every loaded OpenBLAS."""
    return [
        (
            _function(lib, f"{prefix}get_num_threads{suffix}", [], ctypes.c_int),
            _function(lib, f"{prefix}set_num_threads{suffix}", [ctypes.c_int], None),
        )
        for lib, prefix, suffix in _openblas_libraries()
    ]


def fork_safe() -> bool:
    """Whether a fork copies no BLAS thread: at least one OpenBLAS is loaded
    and each reports ``get_parallel`` 0 (no threads) or 1 (pthreads, whose
    fork handler stops them).  Not where one runs on OpenMP (2), whose
    runtime is not safe to fork, or lacks ``get_parallel``.  It changes
    nothing."""
    libraries = _openblas_libraries()
    try:
        parallel = {_function(lib, f"{p}get_parallel{s}", [], ctypes.c_int)() for lib, p, s in libraries}
    except AttributeError:
        return False
    return bool(libraries) and parallel <= {0, 1}


@contextmanager
def single_threaded_blas():
    """Run the block with every loaded OpenBLAS on one thread, then restore
    the counts found on entry, also when the block raises.  Pins nest in one
    thread: an inner pin restores 1s, the outer one the original counts.
    Pins that overlap from several threads are not supported: the counts
    are process-wide, and the first to leave restores them under the others.
    """
    saved = [(set_, get()) for get, set_ in openblas_controls()]
    for set_, _ in saved:
        set_(1)
    try:
        yield
    finally:
        for set_, count in saved:
            set_(count)
