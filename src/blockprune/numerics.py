"""Dense matrix arithmetic, seeded randomness, the finite-difference
gradient oracle, and the core and BLAS thread counts that parallel
code sizes itself by.

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
from typing import Callable

import numpy as np

from .errors import NonFiniteError, ShapeError

ROW = "row"
COLUMN = "column"


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def usable_cores() -> int:
    """Cores this process may run on: its affinity mask, or the
    machine's core count where the platform has no mask."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


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


def segment_l2_norm(m: np.ndarray, group_index: int, axis: str, lo: int, hi: int) -> float:
    """l2 norm of entries lo..hi (exclusive) of one row or one column."""
    m = as_matrix(m)
    if axis not in (ROW, COLUMN):
        raise ShapeError(f"axis must be {ROW!r} or {COLUMN!r}, got {axis!r}")
    n_groups, extent = m.shape if axis == ROW else m.shape[::-1]
    if not 0 <= group_index < n_groups:
        raise ShapeError(
            f"group index {group_index} out of range for {n_groups} {axis}s"
        )
    if not 0 <= lo < hi <= extent:
        raise ShapeError(
            f"segment [{lo}, {hi}) invalid for {axis} extent {extent}"
        )
    seg = m[group_index, lo:hi] if axis == ROW else m[lo:hi, group_index]
    return float(np.sqrt(np.sum(seg * seg)))


def finite_diff_gradient(
    f: Callable[[np.ndarray], float], w: np.ndarray, h: float
) -> np.ndarray:
    """Central differences (f(w + h*e) - f(w - h*e)) / 2h per entry.

    f must read its argument without retaining it; the same buffer is
    perturbed and restored entry by entry. Works on any array shape, so
    bias vectors check the same way as weight matrices.
    """
    if not h > 0:
        raise ShapeError(f"finite-difference step must be positive, got {h}")
    w = np.asarray(w, dtype=np.float64)
    wp = w.copy()
    grad = np.zeros_like(wp)
    for idx in np.ndindex(wp.shape):
        orig = wp[idx]
        wp[idx] = orig + h
        f_plus = float(f(wp))
        wp[idx] = orig - h
        f_minus = float(f(wp))
        wp[idx] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteError(
                f"function evaluation not finite while perturbing entry {idx}"
            )
        grad[idx] = (f_plus - f_minus) / (2.0 * h)
    return grad
