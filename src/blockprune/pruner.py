"""Hard pruning of block segments, masks, and compression accounting.

Two modes. Threshold mode zeroes every segment whose l2 norm is <= t_b.
Percentile mode zeroes exactly floor(target * num_segments) segments,
smallest norms first, with ties broken by (group, block) index so masks
are reproducible.

A mask is its keep grid: one boolean per segment, in the
(group, block) layout of `regularizer.segments`. A mask therefore cannot
zero part of a segment, so every mask is block-structured by
construction; the per-entry 0/1 matrix is derived from the grid on
demand.

Biases are never pruned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (CheckpointError, MaskError, PartitionError, ShapeError,
                     read_lines)
from .numerics import COLUMN, ROW
from .regularizer import BlockPartition, group_norms, make_partition, segments


@dataclass(frozen=True)
class PruneMask:
    keep: np.ndarray  # (extent_groups, blocks_per_group) bool per segment
    partition: BlockPartition
    layer_name: str = ""

    def __post_init__(self):
        grid = (self.partition.extent_groups, self.partition.blocks_per_group)
        if self.keep.dtype != bool or self.keep.shape != grid:
            raise MaskError(
                f"keep grid must be bool {grid}, got {self.keep.dtype} "
                f"{self.keep.shape}"
            )

    @property
    def bits(self) -> np.ndarray:
        """0.0 / 1.0 per entry, same shape as the matrix it masks."""
        bits = np.empty(self.partition.matrix_shape)
        segments(bits, self.partition)[...] = self.keep[:, :, None]
        return bits


@dataclass(frozen=True)
class PruneEntry:
    layer_name: str
    axis: str
    num_blocks: int
    mode: str  # "threshold" or "percentile"
    value: float  # t_b or target sparsity

    def __post_init__(self):
        if self.mode not in ("threshold", "percentile"):
            raise ShapeError(f"unknown prune mode {self.mode!r}")
        if self.mode == "threshold" and self.value < 0:
            raise ShapeError(f"threshold must be >= 0, got {self.value}")
        if self.mode == "percentile" and not 0 <= self.value < 1:
            raise ShapeError(
                f"target sparsity must be in [0, 1), got {self.value}"
            )


@dataclass(frozen=True)
class PruneSpec:
    entries: tuple[PruneEntry, ...]


def sparsity(mask: PruneMask) -> float:
    # every segment holds block_width entries, so the segment ratio is
    # the entry ratio, rounded the same way
    return float(1.0 - mask.keep.sum() / mask.keep.size)


def zeroed_pairs(mask: PruneMask) -> list[tuple[int, int]]:
    """Sorted (group, block) pairs whose segments are zeroed."""
    gs, bs = np.nonzero(~mask.keep)
    return list(zip(gs.tolist(), bs.tolist()))


def _zero_pair(keep: np.ndarray, g: int, b: int) -> None:
    groups, blocks = keep.shape
    if not (0 <= g < groups and 0 <= b < blocks):
        raise MaskError(f"zeroed pair ({g}, {b}) out of range for "
                        f"{groups} groups x {blocks} blocks")
    if not keep[g, b]:
        raise MaskError(f"zeroed pair ({g}, {b}) listed twice")
    keep[g, b] = False


def _apply(w: np.ndarray, mask: PruneMask) -> np.ndarray:
    # assignment rather than multiply: retained entries stay bitwise
    # untouched and zeroed entries become +0.0, never -0.0
    return np.where(mask.bits != 0.0, w, 0.0)


def prune_threshold(
    w: np.ndarray, part: BlockPartition, t_b: float
) -> tuple[np.ndarray, PruneMask]:
    if t_b < 0:
        raise ShapeError(f"threshold must be >= 0, got {t_b}")
    norms = group_norms(w, part)
    keep = norms > t_b  # inclusive prune: norm == t_b goes
    mask = PruneMask(keep, part, part.layer_name)
    return _apply(w, mask), mask


def prune_percentile(
    w: np.ndarray, part: BlockPartition, target_sparsity: float
) -> tuple[np.ndarray, PruneMask]:
    if not 0 <= target_sparsity < 1:
        raise ShapeError(
            f"target sparsity must be in [0, 1), got {target_sparsity}"
        )
    norms = group_norms(w, part)
    n_zero = int(np.floor(target_sparsity * norms.size))
    # stable sort on the flat array: equal norms resolve by flat index,
    # which is exactly (group, block) lexicographic order
    order = np.argsort(norms.ravel(), kind="stable")
    keep = np.ones(norms.size, dtype=bool)
    keep[order[:n_zero]] = False
    mask = PruneMask(keep.reshape(norms.shape), part, part.layer_name)
    return _apply(w, mask), mask


def compression_rate(mask: PruneMask) -> float:
    """Total entries / retained entries, computed from integer counts
    (segments hold equal entry counts, so segment counts give the same
    ratio)."""
    total = mask.keep.size
    retained = int(mask.keep.sum())
    if retained == 0:
        raise MaskError(
            f"mask for {mask.layer_name!r} retains nothing; "
            f"compression rate undefined"
        )
    return total / retained


def prune_model(params, spec: PruneSpec) -> dict[str, PruneMask]:
    """Apply spec per layer; mutates params to the pruned values.

    Masks come back keyed by layer name, in params order. Naming a
    missing or non-prunable layer is an error.
    """
    by_name = {e.layer_name: e for e in spec.entries}
    if len(by_name) != len(spec.entries):
        raise ShapeError("prune spec names a layer more than once")
    for name in by_name:
        if name not in params.names():
            raise ShapeError(f"prune spec names unknown layer {name!r}")
        if not params.tensor(name).prunable:
            raise MaskError(f"prune spec names layer {name!r}, "
                            f"which is not prunable")
    masks: dict[str, PruneMask] = {}
    for name in params.names():
        if name not in by_name:
            continue
        entry = by_name[name]
        tensor = params.tensor(name)
        rows, cols = tensor.matrix.shape
        part = make_partition(rows, cols, entry.axis, entry.num_blocks, name)
        if entry.mode == "threshold":
            pruned, mask = prune_threshold(tensor.matrix, part, entry.value)
        else:
            pruned, mask = prune_percentile(tensor.matrix, part, entry.value)
        tensor.matrix[...] = pruned
        masks[name] = mask
    return masks


def model_compression_rates(params,
                            masks: dict[str, PruneMask]) -> tuple[float, float]:
    """Compression over prunable weight matrices only, and over every
    tensor and bias, masked or not: (prunable, all)."""
    total = retained = total_all = retained_all = 0
    for name, t in params.items():
        kept = t.matrix.size
        if name in masks:
            mask = masks[name]
            kept = int(mask.keep.sum()) * mask.partition.block_width
        if t.prunable:
            total += t.matrix.size
            retained += kept
        bias = 0 if t.bias is None else t.bias.size
        total_all += t.matrix.size + bias
        retained_all += kept + bias
    if retained == 0:
        raise MaskError("no prunable parameters retained")
    return total / retained, total_all / retained_all


# ---------------------------------------------------------------------------
# mask file format: one text section per layer, reconstructible exactly

def save_masks(
    masks: dict[str, PruneMask], path, meta: dict | None = None
) -> None:
    lines = ["# blockprune mask v1"]
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={value}")
    for name, mask in masks.items():
        part = mask.partition
        rows, cols = part.matrix_shape
        lines.append(f"[layer {name}]")
        lines.append(f"rows = {rows}")
        lines.append(f"cols = {cols}")
        lines.append(f"axis = {part.axis}")
        lines.append(f"num_blocks = {part.blocks_per_group}")
        pairs = zeroed_pairs(mask)
        lines.append(f"zeroed = {len(pairs)}")
        for g, b in pairs:
            lines.append(f"zero {g} {b}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_masks(path) -> dict[str, PruneMask]:
    """Read a mask file, rejecting any malformed line with path:line."""
    masks: dict[str, PruneMask] = {}
    try:
        raw = read_lines(path, "ascii", CheckpointError)
    except OSError as exc:
        raise CheckpointError(f"cannot read mask file {path}: {exc}") from exc
    i = 0
    n = len(raw)

    def fail(lineno, msg):
        raise CheckpointError(f"{path}:{lineno + 1}: {msg}")

    while i < n:
        line = raw[i].strip()
        if not line or line.startswith("#"):
            i += 1
            continue
        if not (line.startswith("[layer ") and line.endswith("]")):
            fail(i, f"expected a [layer ...] header, got {line!r}")
        name = line[len("[layer ") : -1]
        if name in masks:
            fail(i, f"layer {name!r} has a second section")
        fields = {}
        for key in ("rows", "cols", "axis", "num_blocks", "zeroed"):
            i += 1
            if i >= n:
                fail(i - 1, f"truncated section for layer {name!r}")
            k, _, v = raw[i].partition("=")
            if k.strip() != key:
                fail(i, f"expected {key!r}, got {raw[i]!r}")
            v = v.strip()
            if key == "axis" and v not in (ROW, COLUMN):
                fail(i, f"bad axis {v!r}")
            if key != "axis":
                try:
                    v = int(v)
                except ValueError:
                    fail(i, f"non-integer {key} {v!r} for layer {name!r}")
            fields[key] = v
            if key == "num_blocks":
                try:
                    part = make_partition(**fields, layer_name=name)
                except PartitionError as exc:
                    fail(i, str(exc))
        n_zeroed = fields["zeroed"]
        if n_zeroed < 0:
            fail(i, f"negative zeroed count {n_zeroed}")
        keep = np.ones((part.extent_groups, part.blocks_per_group), dtype=bool)
        for _ in range(n_zeroed):
            i += 1
            if i >= n:
                fail(i - 1, f"truncated zero list for layer {name!r}")
            parts_ = raw[i].split()
            if len(parts_) != 3 or parts_[0] != "zero":
                fail(i, f"expected 'zero <group> <block>', got {raw[i]!r}")
            try:
                _zero_pair(keep, int(parts_[1]), int(parts_[2]))
            except ValueError:
                fail(i, f"non-integer zero pair {raw[i]!r}")
            except MaskError as exc:
                fail(i, str(exc))
        masks[name] = PruneMask(keep, part, name)
        i += 1
    return masks
