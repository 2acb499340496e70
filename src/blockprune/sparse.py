"""Sparse storage formats, storage-cost accounting, and the block-sparse
matmul kernel.

Costs are counted in scalar slots, the unit that makes a 50%-sparse COO
matrix cost 1.5 slots per original cell: each COO nonzero is one value
slot plus two index slots. A retained block segment costs block_width
value slots plus two index slots (its group and block index). Byte-level
packing is deliberately out of scope.

The block-structured kernel runs one loop over block indices for both
axes. A block's retained segments touch a set of output rows: their
groups on the row axis, the block's row span on the column axis. The
kernel splits those rows into tiles of at most TILE_ELEMENTS output
entries, so that a tile and the scratch holding one rank-1 product fit
a 2 MiB per-core L2 together, and adds one product per contraction
index into each tile, in ascending order, skipping zeroed segments. On
both axes a tile's rows are copied out of the output into a contiguous
accumulator and written back after its products. A large call first
cuts the operand's columns into one slice per usable core and runs this
loop on each slice, into the same columns of the output, side by side
(numpy's loops release the GIL). The kernel calls no BLAS, so every
usable core is free for it.
Tiles and slices only split output entries, which do not depend on each
other, and a product of two doubles is correctly rounded however it is
formed, so every output entry adds the same rounded products in the same
order as `numerics.matmul` of the densified matrix, and the two outputs
are bit-identical. (The one exception is the sign of an exactly-zero
output entry, which cannot occur with continuous random data.)
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from .errors import (CheckpointError, MaskError, PartitionError, ShapeError,
                     read_bytes, write_file)
from .numerics import (ROW, as_matrix, matmul, run_pinned, usable_cores,
                       usable_cpus)
from .pruner import PruneMask, prune_percentile, sparsity
from .regularizer import BlockPartition, make_partition, segments

# output entries in one spmm tile, and in the scratch that holds one
# rank-1 product over it: 64 Ki float64 = 512 KiB each
TILE_ELEMENTS = 1 << 16
# spmm splits a call over the cores from this many multiply-adds on; below
# it a slice's rank-1 products are too short to gain on the GIL that the
# threads hand each other between products (table in CHANGES.md)
SPLIT_MIN_MACS = 2 * 10**8


@dataclass(frozen=True)
class CooMatrix:
    rows: int
    cols: int
    row_idx: np.ndarray  # (nnz,) int64, row-major order
    col_idx: np.ndarray
    values: np.ndarray  # (nnz,) float64, all nonzero

    @property
    def nnz(self) -> int:
        return int(self.values.size)


@dataclass(frozen=True)
class BlockStructuredMatrix:
    rows: int  # true matrix dims
    cols: int
    partition: BlockPartition
    retained: np.ndarray  # (n_ret, 2) int64 (group, block), sorted lex
    values: np.ndarray  # (n_ret, block_width) float64, retained order

    @property
    def retained_count(self) -> int:
        return int(self.retained.shape[0])


@dataclass(frozen=True)
class StorageReport:
    format_name: str
    value_units: int
    index_units: int

    @property
    def total_units(self) -> int:
        return self.value_units + self.index_units


def to_coo(w: np.ndarray) -> CooMatrix:
    w = as_matrix(w)
    r, c = np.nonzero(w)  # row-major for C-ordered arrays
    return CooMatrix(
        rows=w.shape[0], cols=w.shape[1],
        row_idx=r.astype(np.int64), col_idx=c.astype(np.int64),
        values=w[r, c].astype(np.float64),
    )


def to_block_structured(w: np.ndarray, mask: PruneMask) -> BlockStructuredMatrix:
    w = as_matrix(w)
    segs = segments(w, mask.partition)  # ShapeError on a shape mismatch
    if np.any(segs[~mask.keep] != 0.0):
        raise MaskError("matrix has nonzero entries outside the mask")
    gs, bs = np.nonzero(mask.keep)  # row-major: (group, block) lexicographic
    return BlockStructuredMatrix(
        rows=w.shape[0], cols=w.shape[1], partition=mask.partition,
        retained=np.stack([gs, bs], axis=1).astype(np.int64),
        values=segs[gs, bs],
    )


def _check_block_matrix(m: BlockStructuredMatrix) -> None:
    """Reject a matrix whose fields disagree with its partition, naming
    the bad field: O(retained), for hand-built matrices."""
    part = m.partition
    if (m.rows, m.cols) != part.matrix_shape:
        raise ShapeError(f"rows x cols {m.rows}x{m.cols} differ from the "
                         f"partition's {part.matrix_shape}")
    ret = np.asarray(m.retained)
    if ret.ndim != 2 or ret.shape[1] != 2 \
            or not np.issubdtype(ret.dtype, np.integer):
        raise ShapeError(f"retained must be an (n, 2) integer array, got "
                         f"shape {ret.shape} of {ret.dtype}")
    expect = (ret.shape[0], part.block_width)
    if np.shape(m.values) != expect:
        raise ShapeError(f"values has shape {np.shape(m.values)}, expected "
                         f"{expect}: one block_width row per retained pair")
    g, b = ret.T
    for name, idx, limit in (("group", g, part.extent_groups),
                             ("block", b, part.blocks_per_group)):
        bad = np.flatnonzero((idx < 0) | (idx >= limit))
        if bad.size:
            raise ShapeError(f"retained {name} index {idx[bad[0]]} out of "
                             f"range for {limit} {name}s")
    # in range, lexicographic (group, block) order is ascending flat index;
    # the column axis takes its contraction order from it
    if np.any(np.diff(g * part.blocks_per_group + b) <= 0):
        raise ShapeError("retained pairs must be unique and in "
                         "lexicographic (group, block) order")


def densify(m: BlockStructuredMatrix) -> np.ndarray:
    _check_block_matrix(m)
    out = np.zeros(m.partition.matrix_shape)
    segments(out, m.partition)[m.retained[:, 0], m.retained[:, 1]] = m.values
    return out


def storage_cost(obj) -> StorageReport:
    """Scalar-slot cost of one stored matrix in the given format."""
    if isinstance(obj, CooMatrix):
        return StorageReport("coo", value_units=obj.nnz, index_units=2 * obj.nnz)
    if isinstance(obj, BlockStructuredMatrix):
        n = obj.retained_count
        return StorageReport(
            "block_structured",
            value_units=n * obj.partition.block_width,
            index_units=2 * n,
        )
    if isinstance(obj, np.ndarray):
        m = as_matrix(obj)
        return StorageReport("dense", value_units=m.size, index_units=0)
    raise ShapeError(f"no storage model for {type(obj).__name__}")


def whole_block_cost(mask: PruneMask) -> StorageReport | None:
    """Cost of hypothetical whole-tile pruning of the same matrix at the
    same sparsity, square tiles of the mask's block width; None when the
    tile does not divide the matrix. Comparator only: no tile is
    zeroed, and there is no kernel for this format."""
    width = mask.partition.block_width
    rows, cols = mask.partition.matrix_shape
    if rows % width or cols % width:
        return None
    tiles = (rows // width) * (cols // width)
    kept = tiles - int(sparsity(mask) * tiles)  # floor of the zeroed tiles
    return StorageReport(
        "whole_block", value_units=kept * width * width, index_units=2 * kept
    )


def spmm(a: BlockStructuredMatrix, b: np.ndarray) -> np.ndarray:
    """a (rows, cols) block-sparse x b (cols, n) dense -> (rows, n); from
    SPLIT_MIN_MACS multiply-adds (retained values times n) on, b's
    columns are cut into one slice per usable core, at most n."""
    _check_block_matrix(a)
    b = as_matrix(b)
    if a.cols != b.shape[0]:
        raise ShapeError(
            f"spmm shapes incompatible: {a.rows}x{a.cols} x {b.shape}"
        )
    n = b.shape[1]
    out = np.zeros((a.rows, n))
    parts = 1
    if a.values.size * n >= SPLIT_MIN_MACS:
        parts = max(1, min(usable_cores(), n))
    run_pinned([functools.partial(_spmm_into, a, b[:, lo:hi], out[:, lo:hi])
                for lo, hi in ((n * k // parts, n * (k + 1) // parts)
                               for k in range(parts))])
    return out


def _spmm_into(a: BlockStructuredMatrix, b: np.ndarray,
               out: np.ndarray) -> None:
    """Add a x b into out, a zero (a.rows, b.shape[1]) array or view."""
    part = a.partition
    width = part.block_width
    n = b.shape[1]
    tile = max(1, TILE_ELEMENTS // max(n, 1))
    scratch = np.empty(tile * n)
    for block in range(part.blocks_per_group):
        sel = a.retained[:, 1] == block
        if not sel.any():
            continue
        groups, vals = a.retained[sel, 0], a.values[sel]
        base = block * width
        if part.axis == ROW:
            # segment (g, block) is row g over contraction indices
            # base..base+width: coef[j] scales b[base + j] into rows groups
            coef, ks = vals.T, range(base, base + width)
        else:
            # segment (c, block) is column c over rows base..base+width:
            # coef[j] scales b[groups[j]] into those rows; groups ascend
            # because retained pairs are sorted
            coef, ks = vals, groups.tolist()
        for lo in range(0, coef.shape[1], tile):
            c = coef[:, lo : lo + tile]
            if part.axis == ROW:
                rows = groups[lo : lo + tile]
            else:
                rows = slice(base + lo, base + lo + c.shape[1])
            # contiguous, so copied from a column slice of `out`: adding
            # in place into its rows, strided by out's full width, ran
            # slower on two cores than the unsplit kernel on one
            acc = np.ascontiguousarray(out[rows])
            prod = scratch[: acc.size].reshape(acc.shape)
            # ascending contraction order within the block and across
            # blocks, the fixed order of numerics.matmul for every entry;
            # einsum forms the outer product about twice as fast as a
            # broadcast multiply
            for j, k in enumerate(ks):
                np.einsum("i,j->ij", c[j], b[k], out=prod)
                acc += prod
            out[rows] = acc


def coo_spmm(a: CooMatrix, b: np.ndarray) -> np.ndarray:
    """Reference COO x dense multiply for the benchmark table."""
    b = as_matrix(b)
    if a.cols != b.shape[0]:
        raise ShapeError(f"spmm shapes incompatible: {a.rows}x{a.cols} x {b.shape}")
    out = np.zeros((a.rows, b.shape[1]))
    # entries are row-major, so each row's nonzeros are contiguous
    boundaries = np.flatnonzero(np.diff(a.row_idx)) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [a.nnz]])
    for s, e in zip(starts, ends):
        if e > s:
            row = int(a.row_idx[s])
            out[row] = a.values[s:e] @ b[a.col_idx[s:e]]
    return out


# ---------------------------------------------------------------------------
# benchmark

def bench_spmm(
    sizes: list[int], sparsities: list[float], repetitions: int,
    num_blocks: int = 8, seed: int = 0,
) -> list[dict]:
    """Median wall-clock per (size, sparsity, format).

    Formats: dense (the fixed-order dense kernel), blas (numpy's `@` on
    the pruned dense matrix), coo, block_structured.
    Inputs are generated deterministically from the seed; timing values
    are machine-dependent, everything else is reproducible.
    """
    if repetitions < 3:
        raise ShapeError(f"repetitions must be >= 3, got {repetitions}")
    rows = []
    for n in sizes:
        for s in sparsities:
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, n, int(round(s * 1000))])
            )
            w = rng.normal(size=(n, n))
            part = make_partition(n, n, ROW, num_blocks)
            pruned, mask = prune_percentile(w, part, s)
            b = rng.normal(size=(n, n))
            block = to_block_structured(pruned, mask)
            coo = to_coo(pruned)
            for fmt, fn, a in (("dense", matmul, pruned),
                               ("blas", np.matmul, pruned),
                               ("coo", coo_spmm, coo),
                               ("block_structured", spmm, block)):
                times = []
                for _ in range(repetitions):
                    t0 = time.perf_counter()
                    fn(a, b)
                    times.append(time.perf_counter() - t0)
                rows.append({"size": n, "sparsity": s, "format": fmt,
                             "median_seconds": median(times)})
    return rows


def bench_environment() -> dict:
    """What bench timings depend on beyond the inputs: numpy and BLAS,
    the usable cores, and the CPUs spmm splits a large call over."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 only prints its config
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "nproc": usable_cores(),
            "spmm_cpus": ",".join(map(str, usable_cpus())),
            "spmm_split_macs": SPLIT_MIN_MACS}


# ---------------------------------------------------------------------------
# block-structured file format: one text header, retained pairs as text,
# then a little-endian float64 blob of the packed values

MAGIC = "blockstructured v1"


def save_block_structured(m: BlockStructuredMatrix, path: str) -> None:
    part = m.partition
    text = (
        f"{MAGIC} {m.rows} {m.cols} {part.axis} "
        f"{part.blocks_per_group} {m.retained_count}\n"
        + "".join(f"{g} {b}\n" for g, b in m.retained.tolist())
    )
    write_file(path, text.encode("ascii")
               + np.ascontiguousarray(m.values, dtype="<f8").tobytes())


def load_block_structured(path: str) -> BlockStructuredMatrix:
    """Read a block file, rejecting any malformed line with path:line."""
    raw = read_bytes(path, CheckpointError)
    lineno = 1

    def fail(msg):
        raise CheckpointError(f"{path}:{lineno}: {msg}")

    header, newline, rest = raw.partition(b"\n")
    if not newline:
        fail("truncated text section")
    # undecodable bytes become U+FFFD and fail the checks below
    parts = header.decode("ascii", "replace").split()
    if len(parts) != 7 or " ".join(parts[:2]) != MAGIC:
        fail(f"bad header {header!r}")
    try:
        rows, cols = int(parts[2]), int(parts[3])
        axis = parts[4]
        num_blocks, n_ret = int(parts[5]), int(parts[6])
    except ValueError:
        fail("malformed header numbers")
    try:
        part = make_partition(rows, cols, axis, num_blocks)
    except PartitionError as exc:
        fail(str(exc))
    if not 0 <= n_ret <= part.num_segments:
        fail(f"{n_ret} retained segments, expected 0..{part.num_segments}")
    *lines, blob = rest.split(b"\n", n_ret)
    if len(lines) < n_ret:
        lineno = len(lines) + 2
        fail("truncated text section")
    pairs = []
    for lineno, line in enumerate(lines, start=2):
        try:
            g, b = map(int, line.split())
        except ValueError:
            fail(f"expected '<group> <block>', got {line!r}")
        pairs.append((g, b))
    # range and order are checked over the whole array at once: a check
    # per line costs more than the parse on a file of thousands of pairs
    try:
        pairs = np.array(pairs, dtype=np.int64).reshape(n_ret, 2)
    except OverflowError:
        # some value needs more than 64 bits, so the range check fails
        pairs = np.array(pairs, dtype=object).reshape(n_ret, 2)
    g, b = pairs.T
    groups, blocks = part.extent_groups, part.blocks_per_group
    bad = np.flatnonzero((g < 0) | (g >= groups) | (b < 0) | (b >= blocks))
    if bad.size:
        lineno = int(bad[0]) + 2
        fail(f"pair {tuple(pairs[bad[0]].tolist())} out of range for "
             f"{groups} groups x {blocks} blocks")
    # in range, lexicographic (group, block) order is ascending flat index
    bad = np.flatnonzero(np.diff(g * blocks + b) <= 0) + 1
    if bad.size:
        i = int(bad[0])
        lineno = i + 2
        pair, prev = tuple(pairs[i].tolist()), tuple(pairs[i - 1].tolist())
        if pair == prev:
            fail(f"pair {pair} listed twice")
        fail(f"pair {pair} after {prev}: pairs must be in lexicographic "
             f"order")
    expect = n_ret * part.block_width * 8
    if len(blob) != expect:
        raise CheckpointError(
            f"{path}: value blob has {len(blob)} bytes, expected {expect}"
        )
    values = (
        np.frombuffer(blob, dtype="<f8")
        .astype(np.float64)
        .reshape(n_ret, part.block_width)
    )
    return BlockStructuredMatrix(
        rows=rows, cols=cols, partition=part, retained=pairs, values=values
    )
