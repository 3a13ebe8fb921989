"""One BLAS thread for a block of work.

Sums in a threaded OpenBLAS run in another order, so the last bits of a
solve's outputs depend on the thread count, and at the small dims of
this solver the threads cost more time than they save.
"""

from __future__ import annotations

import ctypes
from collections.abc import Iterator
from contextlib import contextmanager


def _openblas_paths() -> list[str]:
    """The paths of the OpenBLAS libraries mapped into this process (none
    where /proc/self/maps cannot be read)."""
    try:
        with open("/proc/self/maps") as fh:
            return sorted({line.split()[-1] for line in fh
                           if "openblas" in line.rsplit("/", 1)[-1].lower()})
    except OSError:
        return []


@contextmanager
def one_blas_thread() -> Iterator[list[tuple[str, int]]]:
    """Run the block on one thread of every OpenBLAS loaded in the process
    and restore each one's thread count after it.  Yields what it pinned:
    (library path, thread count before) per OpenBLAS, an empty list where
    none is loaded, in which case it does nothing."""
    pinned, setters = [], []
    for path in _openblas_paths():
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}",
                              None)
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}",
                               None)
                if get is not None and set_ is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    set_.argtypes, set_.restype = [ctypes.c_int], None
                    pinned.append((path, get()))
                    setters.append(set_)
    for set_ in setters:
        set_(1)
    try:
        yield pinned
    finally:
        for set_, (_, threads) in zip(setters, pinned):
            set_(threads)
