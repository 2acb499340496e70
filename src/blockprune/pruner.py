"""Hard pruning of block segments, masks, and compression accounting.

Two modes. Threshold mode zeroes every segment whose l2 norm is <= t_b.
Percentile mode zeroes exactly floor(target * num_segments) segments,
smallest norms first, with ties broken by (group, block) index so masks
are reproducible. Only whole segments are ever zeroed, so every mask is
block-structured by construction.

Biases are never pruned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CheckpointError, MaskError, ShapeError
from .numerics import COLUMN, ROW
from .regularizer import BlockPartition, group_norms, make_partition, oriented


@dataclass(frozen=True)
class PruneMask:
    bits: np.ndarray  # 0.0 / 1.0, same shape as the matrix it masks
    partition: BlockPartition
    layer_name: str = ""

    @property
    def rows(self) -> int:
        return self.bits.shape[0]

    @property
    def cols(self) -> int:
        return self.bits.shape[1]


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
    return float(1.0 - mask.bits.sum() / mask.bits.size)


def zeroed_pairs(mask: PruneMask) -> list[tuple[int, int]]:
    """Sorted (group, block) pairs whose segments are zeroed."""
    part = mask.partition
    v = oriented(mask.bits, part)
    seg = v.reshape(part.extent_groups, part.blocks_per_group, part.block_width)
    zero = seg.sum(axis=2) == 0
    gs, bs = np.nonzero(zero)
    return list(zip(gs.tolist(), bs.tolist()))


def _mask_from_keep(keep: np.ndarray, part: BlockPartition, name: str) -> PruneMask:
    """keep (groups, blocks) booleans -> full-resolution bit mask."""
    expanded = np.repeat(keep.astype(np.float64), part.block_width, axis=1)
    bits = expanded if part.axis == ROW else expanded.T
    return PruneMask(bits=bits, partition=part, layer_name=name)


def mask_from_zeroed(
    part: BlockPartition, pairs: list[tuple[int, int]], layer_name: str = ""
) -> PruneMask:
    keep = np.ones((part.extent_groups, part.blocks_per_group), dtype=bool)
    for g, b in pairs:
        if not (0 <= g < part.extent_groups and 0 <= b < part.blocks_per_group):
            raise MaskError(f"zeroed pair ({g}, {b}) out of range for partition")
        if not keep[g, b]:
            raise MaskError(f"zeroed pair ({g}, {b}) listed twice")
        keep[g, b] = False
    return _mask_from_keep(keep, part, layer_name)


def validate_block_structure(mask: PruneMask) -> None:
    part = mask.partition
    v = oriented(mask.bits, part)
    seg = v.reshape(part.extent_groups, part.blocks_per_group, part.block_width)
    per_seg = seg.sum(axis=2)
    ok = (per_seg == 0) | (per_seg == part.block_width)
    if not bool(ok.all()):
        raise MaskError(
            f"mask for {mask.layer_name!r} is not block-structured "
            f"(some segment is partially zeroed)"
        )


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
    mask = _mask_from_keep(keep, part, part.layer_name)
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
    mask = _mask_from_keep(keep.reshape(norms.shape), part, part.layer_name)
    return _apply(w, mask), mask


def compression_rate(mask: PruneMask) -> float:
    """Total entries / retained entries, computed from integer counts."""
    total = mask.bits.size
    retained = int(round(float(mask.bits.sum())))
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
    params.bump()
    return masks


def model_compression_rates(params,
                            masks: dict[str, PruneMask]) -> tuple[float, float]:
    """Compression over prunable weight matrices only, and over every
    tensor and bias, masked or not: (prunable, all)."""
    total = retained = total_all = retained_all = 0
    for name, t in params.items():
        kept = t.matrix.size
        if name in masks:
            kept = int(round(float(masks[name].bits.sum())))
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
        lines.append(f"[layer {name}]")
        lines.append(f"rows = {mask.rows}")
        lines.append(f"cols = {mask.cols}")
        lines.append(f"axis = {part.axis}")
        lines.append(f"num_blocks = {part.blocks_per_group}")
        pairs = zeroed_pairs(mask)
        lines.append(f"zeroed = {len(pairs)}")
        for g, b in pairs:
            lines.append(f"zero {g} {b}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def load_masks(path) -> dict[str, PruneMask]:
    masks: dict[str, PruneMask] = {}
    try:
        with open(path, encoding="ascii") as fh:
            raw = fh.read().splitlines()
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
        fields = {}
        for key in ("rows", "cols", "axis", "num_blocks", "zeroed"):
            i += 1
            if i >= n:
                fail(i - 1, f"truncated section for layer {name!r}")
            k, _, v = raw[i].partition("=")
            if k.strip() != key:
                fail(i, f"expected {key!r}, got {raw[i]!r}")
            fields[key] = v.strip()
        try:
            rows, cols = int(fields["rows"]), int(fields["cols"])
            num_blocks = int(fields["num_blocks"])
            n_zeroed = int(fields["zeroed"])
        except ValueError:
            fail(i, f"non-integer field in section for layer {name!r}")
        axis = fields["axis"]
        if axis not in (ROW, COLUMN):
            fail(i, f"bad axis {axis!r}")
        pairs = []
        for _ in range(n_zeroed):
            i += 1
            if i >= n:
                fail(i - 1, f"truncated zero list for layer {name!r}")
            parts_ = raw[i].split()
            if len(parts_) != 3 or parts_[0] != "zero":
                fail(i, f"expected 'zero <group> <block>', got {raw[i]!r}")
            try:
                pairs.append((int(parts_[1]), int(parts_[2])))
            except ValueError:
                fail(i, f"non-integer zero pair {raw[i]!r}")
        part = make_partition(rows, cols, axis, num_blocks, name)
        masks[name] = mask_from_zeroed(part, pairs, name)
        i += 1
    return masks
