"""Dense matrix arithmetic, seeded randomness, the core and BLAS thread
counts that parallel code sizes itself by, and the pinned per-call
thread pool it runs on.

Matrices are plain 2-D float64 numpy arrays throughout the package.
Everything here runs in 64-bit; precision is cheap at this scale and it
keeps gradient checks tight.

`matmul` accumulates in a fixed order (ascending k, one rank-1 update per
step) so its output is bit-identical to a scalar triple loop with k
innermost. The sparse kernel is checked against it bit-for-bit, which
only works because the order is pinned. Model internals do not need that
guarantee and use numpy's `@` for speed.

Randomness is PCG64 via `numpy.random.default_rng`. Identical seeds give
identical streams within one build; cross-platform bit-exactness of the
stream is not promised. One root seed covers init, data, and evaluation:
`trainer.derive_seeds` turns it into one child seed per stream.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from .errors import ShapeError

ROW = "row"
COLUMN = "column"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def usable_cpus() -> list[int]:
    """CPUs this process may run on: its affinity mask, or every CPU of
    the machine where the platform has no mask."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return list(range(os.cpu_count() or 1))


def usable_cores() -> int:
    return len(usable_cpus())


def run_pinned(calls: list[Callable[[], object]]) -> list:
    """The results of zero-argument `calls`, in order: the first runs on
    this thread, each other on a thread of a pool that lives for this
    call only and first pins itself to a CPU of the mask other than the
    one this thread runs on, in turn; the caller's mask is left as it
    was. Unpinned, or pinned to a fixed CPU, a pool thread can share a
    CPU with its caller for up to ~1.5 s while another idles (CHANGES.md).
    Without the platform's affinity calls the threads run unpinned."""
    first, *rest = calls
    if not rest:
        return [first()]
    getcpu = _sched_getcpu() if hasattr(os, "sched_setaffinity") else None
    here = getcpu() if getcpu else None
    others = [cpu for cpu in usable_cpus() if cpu != here] if getcpu else []

    def pinned(k: int, call: Callable[[], object]):
        if others:
            os.sched_setaffinity(0, {others[k % len(others)]})
        return call()

    with ThreadPoolExecutor(len(rest)) as pool:
        futures = [pool.submit(pinned, k, call) for k, call in enumerate(rest)]
        return [first()] + [f.result() for f in futures]


@functools.cache
def _sched_getcpu():
    """The C library's getter of the CPU a thread runs on, or None."""
    get = getattr(ctypes.CDLL(None), "sched_getcpu", None)
    if get is not None:
        get.argtypes = ()
        get.restype = ctypes.c_int
    return get


def blas_threads() -> int | None:
    """Threads numpy's BLAS splits one call over, where it is an OpenBLAS
    that says; None for any other BLAS."""
    get = _openblas_get_num_threads()
    return None if get is None else get()


@functools.cache
def _openblas_get_num_threads():
    """OpenBLAS's thread-count getter in the library numpy loaded, found
    through this process's memory map, or None."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:  # no /proc: not Linux
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:  # a deleted or unloadable file
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            get = getattr(handle, name, None)
            if get is not None:
                get.argtypes = ()
                get.restype = ctypes.c_int
                return get
    return None


def as_matrix(a) -> np.ndarray:
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={m.ndim}")
    return m


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (m, k) x b (k, n) -> (m, n), ascending-k accumulation."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shapes incompatible: {a.shape} x {b.shape}")
    out = np.zeros((a.shape[0], b.shape[1]))
    for k in range(a.shape[1]):
        # rank-1 update; per entry this adds a[i,k]*b[k,j] in ascending k
        out += a[:, k : k + 1] * b[k, :]
    return out
