import numpy as np
import pytest

from blockprune.errors import CheckpointError, MaskError, ShapeError
from blockprune.model import ArchConfig, build_model
from blockprune.numerics import COLUMN, ROW
from blockprune.pruner import (
    PruneEntry,
    PruneMask,
    PruneSpec,
    compression_rate,
    load_masks,
    model_compression_rates,
    prune_model,
    prune_percentile,
    prune_threshold,
    save_masks,
    sparsity,
    zeroed_pairs,
)
from blockprune.regularizer import make_partition
from oracles import mask_from_zeroed


def segment_matrix(norms_by_segment, width=2):
    """Matrix whose row segments have exactly the given norms.

    norms_by_segment is a (groups, blocks) array; each segment gets the
    value norm/sqrt(width) in every slot.
    """
    norms = np.asarray(norms_by_segment, dtype=float)
    return np.repeat(norms / np.sqrt(width), width, axis=1)


class TestThreshold:
    def test_boundary_is_inclusive(self):
        w = segment_matrix([[1.0, 2.0], [3.0, 4.0]])
        p = make_partition(2, 4, ROW, 2, "w")
        _, mask = prune_threshold(w, p, 2.0)
        assert zeroed_pairs(mask) == [(0, 0), (0, 1)]

    def test_zero_threshold_keeps_positive_norms(self):
        w = segment_matrix([[0.0, 0.5], [1.0, 0.0]])
        p = make_partition(2, 4, ROW, 2, "w")
        _, mask = prune_threshold(w, p, 0.0)
        assert zeroed_pairs(mask) == [(0, 0), (1, 1)]

    def test_column_axis(self):
        w = segment_matrix([[1.0, 5.0], [2.0, 0.1]]).T
        p = make_partition(4, 2, COLUMN, 2, "w")
        _, mask = prune_threshold(w, p, 1.5)
        assert zeroed_pairs(mask) == [(0, 0), (1, 1)]


class TestPercentile:
    def test_exact_count(self):
        rng = np.random.default_rng(61)
        w = rng.normal(size=(8, 16))
        p = make_partition(8, 16, ROW, 4, "w")
        for s in (0.0, 0.1, 0.3, 0.5, 0.77, 0.99):
            _, mask = prune_percentile(w, p, s)
            assert len(zeroed_pairs(mask)) == int(s * p.num_segments)

    def test_zeroes_the_smallest_norms(self):
        w = segment_matrix([[4.0, 1.0], [3.0, 2.0]])
        p = make_partition(2, 4, ROW, 2, "w")
        _, mask = prune_percentile(w, p, 0.5)
        assert zeroed_pairs(mask) == [(0, 1), (1, 1)]

    def test_ties_resolved_by_group_then_block(self):
        w = segment_matrix([[1.0, 1.0], [1.0, 1.0]])
        p = make_partition(2, 4, ROW, 2, "w")
        _, mask = prune_percentile(w, p, 0.5)
        assert zeroed_pairs(mask) == [(0, 0), (0, 1)]

    def test_sparsity_out_of_range(self):
        p = make_partition(2, 4, ROW, 2, "w")
        for bad in (1.0, 1.5, -0.1):
            with pytest.raises(ShapeError):
                prune_percentile(np.ones((2, 4)), p, bad)


class TestMaskStructure:
    def test_roundtrip_zeroed_pairs(self):
        p = make_partition(4, 8, ROW, 4, "w")
        zeroed = [(0, 3), (2, 0), (3, 1)]
        mask = mask_from_zeroed(p, zeroed)
        assert zeroed_pairs(mask) == sorted(zeroed)
        assert sparsity(mask) == 3 / 16

    def test_column_axis_mask(self):
        p = make_partition(4, 3, COLUMN, 2, "w")  # 3 columns of 2 runs
        mask = mask_from_zeroed(p, [(2, 0), (0, 1)])
        assert mask.keep.tolist() == [[True, False], [True, True],
                                      [False, True]]
        assert mask.bits.tolist() == [
            [1.0, 1.0, 0.0],
            [1.0, 1.0, 0.0],
            [0.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ]
        assert zeroed_pairs(mask) == [(0, 1), (2, 0)]
        assert sparsity(mask) == 1.0 - 8 / 12  # retained over total

    def test_keep_grid_must_match_partition(self):
        p = make_partition(2, 4, ROW, 2, "w")
        with pytest.raises(MaskError, match="keep grid"):
            PruneMask(np.ones((2, 4), dtype=bool), p)
        with pytest.raises(MaskError, match="keep grid"):
            PruneMask(np.ones((2, 2)), p)  # 0/1 floats, not a bool grid

    def test_duplicate_zeroed_pair_rejected(self):
        p = make_partition(2, 4, ROW, 2, "w")
        with pytest.raises(MaskError):
            mask_from_zeroed(p, [(0, 0), (0, 0)])


class TestCompression:
    def test_half_sparsity_doubles(self):
        p = make_partition(4, 8, ROW, 4, "w")
        _, mask = prune_percentile(
            np.random.default_rng(0).normal(size=(4, 8)), p, 0.5
        )
        assert compression_rate(mask) == 2.0

    def test_exact_rational_values(self):
        p = make_partition(5, 8, ROW, 2, "w")  # 10 segments
        w = np.random.default_rng(1).normal(size=(5, 8))
        assert compression_rate(prune_percentile(w, p, 0.8)[1]) == 5.0
        rate = compression_rate(prune_percentile(w, p, 0.3)[1])
        assert abs(rate - 10 / 7) < 1e-12

    def test_all_zero_mask_rejected(self):
        p = make_partition(2, 4, ROW, 2, "w")
        mask = mask_from_zeroed(p, [(0, 0), (0, 1), (1, 0), (1, 1)])
        with pytest.raises(MaskError, match="retains nothing"):
            compression_rate(mask)


class TestPruneModel:
    def make_params(self):
        return build_model(ArchConfig(), np.random.default_rng(77))

    def test_masked_entries_become_zero(self):
        params = self.make_params()
        spec = PruneSpec(entries=(
            PruneEntry("Wq", ROW, 8, "percentile", 0.5),
            PruneEntry("ffn_in", ROW, 4, "percentile", 0.25),
        ))
        masks = prune_model(params, spec)
        assert list(masks) == ["Wq", "ffn_in"]
        for name, mask in masks.items():
            w = params.tensor(name).matrix
            assert np.count_nonzero(w * (1 - mask.bits)) == 0

    def test_result_order_follows_the_registry(self):
        params = self.make_params()
        spec = PruneSpec(entries=(
            PruneEntry("ffn_out", ROW, 4, "percentile", 0.5),
            PruneEntry("Wk", ROW, 8, "percentile", 0.5),
        ))
        assert list(prune_model(params, spec)) == ["Wk", "ffn_out"]

    def test_non_prunable_layer_rejected(self):
        params = self.make_params()
        spec = PruneSpec(entries=(
            PruneEntry("embedding", ROW, 4, "percentile", 0.5),
        ))
        with pytest.raises(MaskError, match="not prunable"):
            prune_model(params, spec)

    def test_unknown_layer_rejected(self):
        params = self.make_params()
        spec = PruneSpec(entries=(
            PruneEntry("nope", ROW, 4, "percentile", 0.5),
        ))
        with pytest.raises(ShapeError):
            prune_model(params, spec)

    def test_model_compression_counts_prunable_elements(self):
        params = self.make_params()
        spec = PruneSpec(entries=(
            PruneEntry("Wq", ROW, 8, "percentile", 0.5),
        ))
        masks = prune_model(params, spec)
        # Wq is 16x16 at half sparsity; other prunable tensors are dense.
        total = sum(
            t.matrix.size for _, t in params.items() if t.prunable
        )
        everything = sum(
            t.matrix.size + (0 if t.bias is None else t.bias.size)
            for _, t in params.items()
        )
        prunable, all_rate = model_compression_rates(params, masks)
        assert prunable == total / (total - 128)
        assert all_rate == everything / (everything - 128)


class TestPruneEntryValidation:
    def test_bad_mode(self):
        with pytest.raises(ShapeError, match="mode"):
            PruneEntry("Wq", ROW, 8, "quantile", 0.5)

    def test_threshold_must_be_nonnegative(self):
        with pytest.raises(ShapeError):
            PruneEntry("Wq", ROW, 8, "threshold", -1.0)


class TestMaskIO:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(91)
        masks = {}
        for name, shape, k in [("a", (8, 8), 4), ("b", (6, 12), 3)]:
            p = make_partition(*shape, ROW, k, name)
            masks[name] = prune_percentile(rng.normal(size=shape), p, 0.5)[1]
        path = tmp_path / "masks.txt"
        save_masks(masks, path)
        loaded = load_masks(path)
        assert list(loaded) == list(masks)
        for name in masks:
            assert np.array_equal(loaded[name].bits, masks[name].bits)
            assert loaded[name].partition == masks[name].partition

    def test_save_load_save_is_byte_identical(self, tmp_path):
        p = make_partition(4, 8, ROW, 4, "w")
        masks = {"w": mask_from_zeroed(p, [(1, 2), (3, 0)])}
        first = tmp_path / "m1.txt"
        second = tmp_path / "m2.txt"
        save_masks(masks, first)
        save_masks(load_masks(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_corrupt_count_reports_line_number(self, tmp_path):
        p = make_partition(2, 4, ROW, 2, "w")
        path = tmp_path / "m.txt"
        save_masks({"w": mask_from_zeroed(p, [(0, 1)])}, path)
        text = path.read_text().replace("zeroed = 1", "zeroed = 2")
        path.write_text(text)
        with pytest.raises(CheckpointError, match=r"m\.txt:\d+"):
            load_masks(path)

    def test_non_integer_pair_reports_line_number(self, tmp_path):
        p = make_partition(2, 4, ROW, 2, "w")
        path = tmp_path / "m.txt"
        save_masks({"w": mask_from_zeroed(p, [(0, 1)])}, path)
        path.write_text(path.read_text().replace("zero 0 1", "zero x 0"))
        lineno = path.read_text().splitlines().index("zero x 0") + 1
        with pytest.raises(CheckpointError, match=rf"m\.txt:{lineno}:"):
            load_masks(path)

    def edited(self, tmp_path, old, new):
        """An 8x8 row-axis mask file for layer Wq with pair (1, 0) zeroed,
        `old` replaced by `new`; lines 6, 7 and 8 are num_blocks, zeroed
        and the one pair."""
        p = make_partition(8, 8, ROW, 2, "Wq")
        path = tmp_path / "m.txt"
        save_masks({"Wq": mask_from_zeroed(p, [(1, 0)], "Wq")}, path)
        text = path.read_text()
        assert text.splitlines()[5:8] == ["num_blocks = 2", "zeroed = 1",
                                          "zero 1 0"]
        path.write_text(text.replace(old, new))
        return path

    def test_pair_out_of_range_reports_line_number(self, tmp_path):
        path = self.edited(tmp_path, "zero 1 0", "zero 99 0")
        with pytest.raises(CheckpointError, match=r"m\.txt:8: .*out of range"):
            load_masks(path)

    def test_repeated_pair_reports_line_number(self, tmp_path):
        path = self.edited(tmp_path, "zeroed = 1\nzero 1 0",
                           "zeroed = 2\nzero 1 0\nzero 1 0")
        with pytest.raises(CheckpointError, match=r"m\.txt:9: .*twice"):
            load_masks(path)

    def test_blocks_not_dividing_the_extent(self, tmp_path):
        path = self.edited(tmp_path, "num_blocks = 2", "num_blocks = 3")
        with pytest.raises(CheckpointError, match=r"m\.txt:6: .*divide"):
            load_masks(path)

    def test_bad_field_reports_its_own_line(self, tmp_path):
        path = self.edited(tmp_path, "rows = 8", "rows = x")
        with pytest.raises(CheckpointError, match=r"m\.txt:3: .*rows 'x'"):
            load_masks(path)

    def test_negative_zeroed_count(self, tmp_path):
        path = self.edited(tmp_path, "zeroed = 1\nzero 1 0", "zeroed = -1")
        with pytest.raises(CheckpointError, match=r"m\.txt:7: .*negative"):
            load_masks(path)

    def test_second_section_for_a_layer(self, tmp_path):
        path = self.edited(tmp_path, "zero 1 0\n",
                           "zero 1 0\n[layer Wq]\nrows = 8\ncols = 8\n"
                           "axis = row\nnum_blocks = 2\nzeroed = 0\n")
        with pytest.raises(CheckpointError, match=r"m\.txt:9: .*second"):
            load_masks(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_masks(tmp_path / "absent.txt")
