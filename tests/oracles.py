"""Reference code that only the tests call: a segment norm computed
directly, the finite-difference gradient that analytic gradients are
checked against, a COO matrix written back out dense, and a mask built
from its zeroed (group, block) pairs."""

from typing import Callable

import numpy as np

from blockprune.errors import NonFiniteError, ShapeError
from blockprune.numerics import COLUMN, ROW, as_matrix
from blockprune.pruner import PruneMask, _zero_pair
from blockprune.regularizer import BlockPartition
from blockprune.sparse import CooMatrix


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


def densify_coo(m: CooMatrix) -> np.ndarray:
    out = np.zeros((m.rows, m.cols))
    out[m.row_idx, m.col_idx] = m.values
    return out


def mask_from_zeroed(
    part: BlockPartition, pairs: list[tuple[int, int]], layer_name: str = ""
) -> PruneMask:
    """The mask that zeroes `pairs`, checked as a mask file's lines are."""
    keep = np.ones((part.extent_groups, part.blocks_per_group), dtype=bool)
    for g, b in pairs:
        _zero_pair(keep, g, b)
    return PruneMask(keep, part, layer_name)
