"""Block geometry and the reweighted group-Lasso penalty.

A partition slices a matrix into fixed-width segments: with row axis,
every row splits into `blocks_per_group` runs of `block_width` columns;
with column axis the same thing happens down each column. The segment is
the atomic unit everywhere else (penalty groups, prune decisions, sparse
storage), so both axes share one code path: `segments` views any matrix
as (extent_groups, blocks_per_group, block_width), through a transpose
on the column axis, and everything downstream indexes segment (g, b).

Gamma coefficients are recomputed from current weights only at training
milestones and are treated as constants in between; the penalty gradient
never differentiates through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PartitionError, ShapeError
from .numerics import COLUMN, ROW, as_matrix

EPSILON_GAMMA = 1e-6  # keeps gamma finite on zeroed segments
EPSILON_GRAD = 1e-12  # avoids 0/0 in the gradient only


@dataclass(frozen=True)
class BlockPartition:
    axis: str
    extent_groups: int
    blocks_per_group: int
    block_width: int
    layer_name: str = ""

    @property
    def matrix_shape(self) -> tuple[int, int]:
        span = self.blocks_per_group * self.block_width
        if self.axis == ROW:
            return (self.extent_groups, span)
        return (span, self.extent_groups)

    @property
    def num_segments(self) -> int:
        return self.extent_groups * self.blocks_per_group


@dataclass(frozen=True)
class GammaWeights:
    values: np.ndarray  # (groups, blocks), strictly positive
    update_count: int = 1


def make_partition(
    rows: int, cols: int, axis: str, num_blocks: int, layer_name: str = ""
) -> BlockPartition:
    if axis not in (ROW, COLUMN):
        raise PartitionError(f"axis must be {ROW!r} or {COLUMN!r}, got {axis!r}")
    if rows < 1 or cols < 1:
        raise PartitionError(f"matrix dims must be positive, got {rows}x{cols}")
    if num_blocks < 1:
        raise PartitionError(f"num_blocks must be >= 1, got {num_blocks}")
    extent = cols if axis == ROW else rows
    groups = rows if axis == ROW else cols
    if extent % num_blocks != 0:
        raise PartitionError(
            f"num_blocks {num_blocks} does not divide the {axis} extent {extent}"
        )
    return BlockPartition(
        axis=axis,
        extent_groups=groups,
        blocks_per_group=num_blocks,
        block_width=extent // num_blocks,
        layer_name=layer_name,
    )


def segments(w: np.ndarray, part: BlockPartition) -> np.ndarray:
    """View of w as (extent_groups, blocks_per_group, block_width) on
    either axis, without a copy: [g, b] is segment (g, b), and writes
    through the view land in w."""
    w = as_matrix(w)
    if w.shape != part.matrix_shape:
        raise ShapeError(
            f"matrix shape {w.shape} does not match partition "
            f"{part.matrix_shape} for layer {part.layer_name!r}"
        )
    v = w if part.axis == ROW else w.T
    return v.reshape(part.extent_groups, part.blocks_per_group, part.block_width)


def group_norms(w: np.ndarray, part: BlockPartition) -> np.ndarray:
    """Per-segment l2 norms, shape (extent_groups, blocks_per_group)."""
    segs = segments(w, part)
    return np.sqrt((segs * segs).sum(axis=2))


def gamma_update(w: np.ndarray, part: BlockPartition,
                 prev: GammaWeights | None = None) -> GammaWeights:
    """gamma = 1 / (segment norm + EPSILON_GAMMA), computed from current w."""
    values = 1.0 / (group_norms(w, part) + EPSILON_GAMMA)
    count = 1 if prev is None else prev.update_count + 1
    return GammaWeights(values=values, update_count=count)


def _check_gamma(part: BlockPartition, gamma: GammaWeights, lam: float) -> None:
    if lam < 0:
        raise ShapeError(f"lambda must be >= 0, got {lam}")
    expected = (part.extent_groups, part.blocks_per_group)
    if gamma.values.shape != expected:
        raise ShapeError(
            f"gamma shape {gamma.values.shape} does not match partition {expected}"
        )


def penalty(
    w: np.ndarray, part: BlockPartition, gamma: GammaWeights, lam: float
) -> float:
    """lam * sum over segments of gamma * segment norm."""
    _check_gamma(part, gamma, lam)
    return float(lam * np.sum(gamma.values * group_norms(w, part)))


def penalty_grad(
    w: np.ndarray, part: BlockPartition, gamma: GammaWeights, lam: float
) -> np.ndarray:
    """d penalty / d w with gamma held constant.

    Entry (i, j) is lam * gamma[seg] * w[i, j] / (norm[seg] + EPSILON_GRAD);
    all-zero segments get an exactly zero gradient.
    """
    _check_gamma(part, gamma, lam)
    coef = lam * gamma.values / (group_norms(w, part) + EPSILON_GRAD)
    out = np.empty(part.matrix_shape)
    np.multiply(segments(w, part), coef[:, :, None], out=segments(out, part))
    return out
