"""Brackets, splitting integrators, and Reeb-graph quasi-states on surfaces."""

import ctypes
import os

__version__ = "0.1.0"


def _keep_freed_memory() -> dict | None:
    """Keep freed arrays in glibc's heap for the next call; returns the thresholds set, or None off glibc.

    By default glibc maps each allocation above about 128 KB afresh, unmaps it when it is freed and
    trims the heap after frees, so every jet, bracket product, merge tree and mass deposit faults its
    pages in again.  Arrays below the mmap threshold (32 MiB, glibc's 64-bit maximum) come from the
    heap, which keeps up to the trim threshold (1 GiB) of freed memory.  A refused threshold reads None.
    """
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name on this platform
        return None
    if not libc.startswith("glibc"):
        return None
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    wanted = {"mmap_threshold": (-3, 32 << 20), "trim_threshold": (-1, 1 << 30)}  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD
    return {name: value if mallopt(param, value) == 1 else None for name, (param, value) in wanted.items()}


#: glibc's heap thresholds in bytes as set when symflow was imported; None off glibc.
HEAP_POLICY = _keep_freed_memory()
