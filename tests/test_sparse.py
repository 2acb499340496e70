import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockprune.errors import CheckpointError, MaskError, ShapeError
from blockprune.numerics import COLUMN, ROW, matmul
from blockprune.pruner import prune_percentile
from blockprune.regularizer import make_partition
from blockprune import sparse
from blockprune.sparse import (
    TILE_ELEMENTS,
    bench_spmm,
    coo_spmm,
    densify,
    load_block_structured,
    save_block_structured,
    spmm,
    storage_cost,
    to_block_structured,
    to_coo,
    whole_block_cost,
)
from oracles import densify_coo, mask_from_zeroed


def masked_matrix(rng, rows, cols, axis, k, s):
    w = rng.normal(size=(rows, cols))
    p = make_partition(rows, cols, axis, k, "w")
    _, mask = prune_percentile(w, p, s)
    return w * mask.bits, mask


class TestCoo:
    def test_roundtrip(self):
        rng = np.random.default_rng(70)
        w = rng.normal(size=(5, 7))
        w[w < 0.3] = 0.0
        assert np.array_equal(densify_coo(to_coo(w)), w)

    def test_entries_in_row_major_order(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0], [0.0, 3.0]])
        m = to_coo(w)
        assert m.nnz == 3
        assert m.row_idx.tolist() == [0, 1, 2]
        assert m.col_idx.tolist() == [1, 0, 1]
        assert m.values.tolist() == [1.0, 2.0, 3.0]


class TestBlockStructured:
    def test_roundtrip_both_axes(self):
        rng = np.random.default_rng(71)
        for axis, shape, k in [(ROW, (8, 12), 4), (COLUMN, (12, 8), 4)]:
            w, mask = masked_matrix(rng, *shape, axis, k, 0.5)
            m = to_block_structured(w, mask)
            assert np.array_equal(densify(m), w)

    def test_retained_pairs_sorted(self):
        rng = np.random.default_rng(72)
        w, mask = masked_matrix(rng, 8, 8, ROW, 4, 0.6)
        m = to_block_structured(w, mask)
        pairs = [tuple(p) for p in m.retained]
        assert pairs == sorted(pairs)

    def test_nonzero_outside_mask_rejected(self):
        rng = np.random.default_rng(73)
        w, mask = masked_matrix(rng, 4, 8, ROW, 4, 0.5)
        w = w.copy()
        zi, zj = np.argwhere(mask.bits == 0)[0]
        w[zi, zj] = 1.0
        with pytest.raises(MaskError, match="outside"):
            to_block_structured(w, mask)

    def test_zero_inside_mask_is_fine(self):
        # a retained segment may legally contain zero values
        p = make_partition(2, 4, ROW, 2, "w")
        mask = mask_from_zeroed(p, [(0, 0)])
        w = np.zeros((2, 4))
        m = to_block_structured(w, mask)
        assert np.array_equal(densify(m), w)


class TestStorageCost:
    def test_fixture_arithmetic(self):
        """8x8 at 50% with width-4 row segments: COO 96, block 48."""
        rng = np.random.default_rng(74)
        w, mask = masked_matrix(rng, 8, 8, ROW, 2, 0.5)
        dense = storage_cost(w)
        coo = storage_cost(to_coo(w))
        block = storage_cost(to_block_structured(w, mask))
        assert dense.total_units == 64
        assert (coo.value_units, coo.index_units, coo.total_units) == (32, 64, 96)
        assert (block.value_units, block.index_units, block.total_units) \
            == (32, 16, 48)

    def test_unpruned_block_matrix_still_pays_index_overhead(self):
        p = make_partition(4, 8, ROW, 4, "w")
        mask = mask_from_zeroed(p, [])
        w = np.random.default_rng(75).normal(size=(4, 8))
        rep = storage_cost(to_block_structured(w, mask))
        assert rep.value_units == 32
        assert rep.index_units == 2 * 16

    def test_whole_block_cost(self):
        w = np.random.default_rng(76).normal(size=(8, 8))
        _, mask = prune_percentile(w, make_partition(8, 8, ROW, 2, "w"), 0.5)
        rep = whole_block_cost(mask)
        assert rep.format_name == "whole_block"
        assert rep.value_units == 2 * 16
        assert rep.index_units == 2 * 2
        assert rep.total_units == 36
        # 3-wide row segments cannot tile 8 rows
        _, mask = prune_percentile(
            np.ones((8, 12)), make_partition(8, 12, ROW, 4, "w"), 0.5
        )
        assert whole_block_cost(mask) is None

    def test_unknown_type_rejected(self):
        with pytest.raises(ShapeError):
            storage_cost("not a matrix")


class TestSpmm:
    def test_bit_identical_to_dense_kernel(self):
        """Skipping zero segments and splitting the output into tiles
        must not change the summation order, so the product matches the
        dense kernel exactly, whatever b's memory layout."""
        rng = np.random.default_rng(77)
        for axis in (ROW, COLUMN):
            for shape in ((16, 16), (16, 32), (32, 16)):
                for s in (0.0, 0.3, 0.5, 0.8):
                    w, mask = masked_matrix(rng, *shape, axis, 4, s)
                    b = rng.normal(size=(shape[1], 8))
                    got = spmm(to_block_structured(w, mask), b)
                    assert got.tobytes() == matmul(w, b).tobytes()
            # block 1 pruned in every group: the kernel skips it whole
            p = make_partition(16, 32, axis, 4, "w")
            mask = mask_from_zeroed(p, [(g, 1) for g in range(p.extent_groups)])
            w = rng.normal(size=(16, 32)) * mask.bits
            b = rng.normal(size=(32, 8))
            got = spmm(to_block_structured(w, mask), b)
            assert got.tobytes() == matmul(w, b).tobytes()
        # b wide enough for 8-row tiles: a block's 44 groups (row axis) or
        # its 22-row span (column axis) crosses tiles, the last partial
        n = TILE_ELEMENTS // 8
        for axis in (ROW, COLUMN):
            cases = [masked_matrix(rng, 44, 44, axis, 2, s) for s in (0.0, 0.5)]
            # block 0 pruned in every group: no segment to tile
            p = make_partition(44, 44, axis, 2, "w")
            mask = mask_from_zeroed(p, [(g, 0) for g in range(p.extent_groups)])
            cases.append((rng.normal(size=(44, 44)) * mask.bits, mask))
            for w, mask in cases:
                b = rng.normal(size=(44, n))
                want = matmul(w, b).tobytes()
                m = to_block_structured(w, mask)
                # b's values in C order, Fortran order, and as a transposed
                # view with strides in both dimensions
                strided = np.zeros((n, 88))
                strided[:, ::2] = b.T
                for layout in (b, np.asfortranarray(b), strided[:, ::2].T):
                    assert spmm(m, layout).tobytes() == want

    @settings(max_examples=60, deadline=None)
    @given(
        axis=st.sampled_from([ROW, COLUMN]),
        groups=st.integers(1, 6),
        num_blocks=st.integers(1, 4),
        width=st.integers(1, 5),
        n=st.integers(0, 9),
        s=st.floats(0.0, 0.95),
        tile_elements=st.integers(1, 40),
        cores=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_property_bit_identical(self, axis, groups, num_blocks, width,
                                    n, s, tile_elements, cores, seed):
        """Over random small partitions, tiles small enough to split
        them, and column slices over up to 4 cores (more than n for the
        narrowest b), spmm gives the bytes of the fixed-order dense
        kernel."""
        rng = np.random.default_rng(seed)
        extent = num_blocks * width
        shape = (groups, extent) if axis == ROW else (extent, groups)
        w, mask = masked_matrix(rng, *shape, axis, num_blocks, s)
        m = to_block_structured(w, mask)
        b = rng.normal(size=(shape[1], n))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sparse, "TILE_ELEMENTS", tile_elements)
            mp.setattr(sparse, "SPLIT_MIN_MACS", 0)
            mp.setattr(sparse, "usable_cores", lambda: cores)
            got = spmm(m, b)
        assert got.tobytes() == matmul(densify(m), b).tobytes()

    @pytest.mark.parametrize("axis", [ROW, COLUMN])
    def test_split_over_cores_bit_identical(self, axis, monkeypatch):
        """A call of SPLIT_MIN_MACS or more is cut into one column slice
        per core, at most n of them, and still gives the bytes of the
        fixed-order dense kernel; a cheaper call stays whole."""
        parts = []

        def logged(calls, original=sparse.run_pinned):
            parts.append(len(calls))
            return original(calls)

        monkeypatch.setattr(sparse, "run_pinned", logged)
        rng = np.random.default_rng(88)
        w, mask = masked_matrix(rng, 32, 32, axis, 4, 0.5)
        m = to_block_structured(w, mask)
        b = rng.normal(size=(32, 64))
        spmm(m, b)
        assert parts == [1]
        monkeypatch.setattr(sparse, "SPLIT_MIN_MACS", 0)
        for cores in (2, 3, 8):
            monkeypatch.setattr(sparse, "usable_cores", lambda: cores)
            for n in (1, 2, 5, 16, 64):
                b = rng.normal(size=(32, n))
                parts.clear()
                got = spmm(m, b)
                assert got.tobytes() == matmul(densify(m), b).tobytes()
                assert parts == [min(cores, n)]

    def test_split_leaves_no_thread_and_the_callers_mask(self, monkeypatch):
        monkeypatch.setattr(sparse, "SPLIT_MIN_MACS", 0)
        monkeypatch.setattr(sparse, "usable_cores", lambda: 4)
        rng = np.random.default_rng(89)
        w, mask = masked_matrix(rng, 32, 32, COLUMN, 4, 0.5)
        m = to_block_structured(w, mask)
        pinned = hasattr(os, "sched_getaffinity")
        cpus = os.sched_getaffinity(0) if pinned else None
        before = threading.active_count()
        spmm(m, rng.normal(size=(32, 16)))
        assert threading.active_count() == before
        if pinned:
            assert os.sched_getaffinity(0) == cpus

    def test_unsorted_pairs_rejected(self):
        rng = np.random.default_rng(84)
        w, mask = masked_matrix(rng, 16, 16, COLUMN, 4, 0.5)
        m = to_block_structured(w, mask)
        backwards = replace(m, retained=m.retained[::-1], values=m.values[::-1])
        with pytest.raises(ShapeError, match="order"):
            spmm(backwards, rng.normal(size=(16, 8)))

    @pytest.mark.parametrize("kernel", [spmm, densify], ids=["spmm", "densify"])
    @pytest.mark.parametrize("axis", [ROW, COLUMN])
    @pytest.mark.parametrize("field, edit", [
        ("values", lambda m, p: replace(m, values=m.values[:, :-1])),
        ("values", lambda m, p: replace(m, values=m.values[:-1])),
        ("group index", lambda m, p: replace(
            m, retained=np.vstack([m.retained[:-1],
                                   [[p.extent_groups, 0]]]))),
        ("block index", lambda m, p: replace(
            m, retained=np.vstack([m.retained[:-1],
                                   [[m.retained[-1, 0], p.blocks_per_group]]]))),
        ("group index", lambda m, p: replace(
            m, retained=np.vstack([[[-1, 0]], m.retained[1:]]))),
        ("rows x cols", lambda m, p: replace(m, rows=m.rows + 1)),
    ], ids=["narrow_values", "few_values", "group_too_big", "block_too_big",
            "negative_group", "rows"])
    def test_malformed_matrix_rejected(self, kernel, axis, field, edit):
        """A hand-built matrix that disagrees with its partition is a
        ShapeError naming the field, on both axes, before any work."""
        rng = np.random.default_rng(86)
        w, mask = masked_matrix(rng, 16, 16, axis, 4, 0.5)
        m = edit(to_block_structured(w, mask), mask.partition)
        args = (m, rng.normal(size=(16, 8))) if kernel is spmm else (m,)
        with pytest.raises(ShapeError, match=field):
            kernel(*args)

    def test_coo_close_to_dense(self):
        rng = np.random.default_rng(78)
        w, _ = masked_matrix(rng, 32, 16, ROW, 4, 0.5)
        b = rng.normal(size=(16, 8))
        got = coo_spmm(to_coo(w), b)
        np.testing.assert_allclose(got, w @ b, rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        rng = np.random.default_rng(79)
        w, mask = masked_matrix(rng, 8, 8, ROW, 4, 0.5)
        with pytest.raises(ShapeError):
            spmm(to_block_structured(w, mask), np.zeros((7, 3)))


class TestBench:
    def test_row_structure(self):
        rows = bench_spmm([32], [0.5], repetitions=3, num_blocks=4, seed=1)
        formats = [r["format"] for r in rows]
        assert formats == ["dense", "blas", "coo", "block_structured"]
        for r in rows:
            assert r["size"] == 32
            assert r["sparsity"] == 0.5
            assert r["median_seconds"] > 0

    def test_too_few_repetitions(self):
        with pytest.raises(ShapeError, match="repetitions"):
            bench_spmm([32], [0.5], repetitions=2)

    def test_deterministic_inputs_per_seed(self):
        a = bench_spmm([16], [0.3], repetitions=3, seed=9)
        b = bench_spmm([16], [0.3], repetitions=3, seed=9)
        # timings differ between runs but the cells line up
        assert [(r["size"], r["sparsity"], r["format"]) for r in a] \
            == [(r["size"], r["sparsity"], r["format"]) for r in b]


class TestFileRoundtrip:
    def test_save_load_bit_exact(self, tmp_path):
        rng = np.random.default_rng(80)
        for axis, shape, k in [(ROW, (8, 12), 3), (COLUMN, (12, 8), 3)]:
            w, mask = masked_matrix(rng, *shape, axis, k, 0.5)
            m = to_block_structured(w, mask)
            path = tmp_path / f"{axis}.blk"
            save_block_structured(m, path)
            loaded = load_block_structured(path)
            assert np.array_equal(densify(loaded), w)
            # the file stores geometry only; layer names live in checkpoints
            assert loaded.partition == replace(m.partition, layer_name="")
            assert np.array_equal(loaded.retained, m.retained)

    def test_rewrite_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(81)
        w, mask = masked_matrix(rng, 8, 8, ROW, 4, 0.25)
        first = tmp_path / "a.blk"
        second = tmp_path / "b.blk"
        save_block_structured(to_block_structured(w, mask), first)
        save_block_structured(load_block_structured(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_truncated_payload_rejected(self, tmp_path):
        rng = np.random.default_rng(82)
        w, mask = masked_matrix(rng, 8, 8, ROW, 4, 0.5)
        path = tmp_path / "m.blk"
        save_block_structured(to_block_structured(w, mask), path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CheckpointError):
            load_block_structured(path)


class TestBlockFileValidation:
    """Every malformed line is a CheckpointError naming path:line."""

    def edited(self, tmp_path, edit):
        """A valid 8x8 file with 8 retained pairs; its header and pair
        lines pass through `edit`, the value blob is kept."""
        rng = np.random.default_rng(83)
        w, mask = masked_matrix(rng, 8, 8, ROW, 2, 0.5)
        path = tmp_path / "m.blk"
        save_block_structured(to_block_structured(w, mask), path)
        *text, blob = path.read_bytes().split(b"\n", 9)
        lines = edit([line.decode() for line in text])
        path.write_bytes("".join(f"{line}\n" for line in lines).encode() + blob)
        return path

    @pytest.mark.parametrize("pair", ["99 0", "0 -1", str(10**20) + " 0"])
    def test_out_of_range_pair(self, tmp_path, pair):
        path = self.edited(tmp_path, lambda ls: [ls[0], pair, *ls[2:]])
        with pytest.raises(CheckpointError, match=r"m\.blk:2: .*out of range"):
            load_block_structured(path)

    def test_wrong_field_count(self, tmp_path):
        path = self.edited(tmp_path, lambda ls: [*ls[:3], "1 0 5", *ls[4:]])
        with pytest.raises(CheckpointError, match=r"m\.blk:4: expected"):
            load_block_structured(path)

    def test_duplicate_pair(self, tmp_path):
        path = self.edited(tmp_path, lambda ls: [*ls[:8], ls[7]])
        with pytest.raises(CheckpointError, match=r"m\.blk:9: .*listed twice"):
            load_block_structured(path)

    def test_pairs_out_of_order(self, tmp_path):
        path = self.edited(tmp_path, lambda ls: [ls[0], *ls[:0:-1]])
        with pytest.raises(CheckpointError, match=r"m\.blk:3: .*lexicographic"):
            load_block_structured(path)

    def test_blocks_not_dividing_the_extent(self, tmp_path):
        path = self.edited(
            tmp_path, lambda ls: ["blockstructured v1 8 8 row 3 8", *ls[1:]]
        )
        with pytest.raises(CheckpointError, match=r"m\.blk:1: .*divide"):
            load_block_structured(path)
