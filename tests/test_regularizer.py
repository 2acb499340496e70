import numpy as np
import pytest

from blockprune.errors import PartitionError, ShapeError
from blockprune.numerics import COLUMN, ROW, finite_diff_gradient, segment_l2_norm
from blockprune.regularizer import (
    EPSILON_GAMMA,
    gamma_update,
    group_norms,
    make_partition,
    penalty,
    penalty_grad,
    segments,
)


class TestPartition:
    def test_row_axis_splits_columns(self):
        p = make_partition(6, 12, ROW, 3, "w")
        assert p.extent_groups == 6
        assert p.blocks_per_group == 3
        assert p.block_width == 4
        assert p.matrix_shape == (6, 12)
        assert p.num_segments == 18

    def test_column_axis_splits_rows(self):
        p = make_partition(12, 6, COLUMN, 4, "w")
        assert p.extent_groups == 6
        assert p.block_width == 3
        assert p.matrix_shape == (12, 6)

    def test_indivisible_extent(self):
        with pytest.raises(PartitionError, match="divide"):
            make_partition(6, 10, ROW, 3, "w")

    def test_nonpositive_blocks(self):
        with pytest.raises(PartitionError):
            make_partition(6, 12, ROW, 0, "w")

    def test_unknown_axis(self):
        with pytest.raises(PartitionError, match="axis"):
            make_partition(6, 12, "neither", 3, "w")


class TestGroupNorms:
    def test_matches_per_segment_norms(self):
        rng = np.random.default_rng(21)
        w = rng.normal(size=(5, 8))
        p = make_partition(5, 8, ROW, 4, "w")
        norms = group_norms(w, p)
        assert norms.shape == (5, 4)
        for g in range(5):
            for b in range(4):
                expect = segment_l2_norm(w, g, ROW, 2 * b, 2 * b + 2)
                np.testing.assert_allclose(norms[g, b], expect, rtol=0, atol=0)

    def test_column_axis_matches_transpose(self):
        rng = np.random.default_rng(22)
        w = rng.normal(size=(8, 5))
        p = make_partition(8, 5, COLUMN, 2, "w")
        pt = make_partition(5, 8, ROW, 2, "w")
        assert np.array_equal(group_norms(w, p), group_norms(w.T, pt))

    def test_shape_mismatch(self):
        p = make_partition(4, 8, ROW, 2, "w")
        with pytest.raises(ShapeError):
            group_norms(np.zeros((4, 6)), p)


class TestGamma:
    def test_inverse_norm_definition(self):
        rng = np.random.default_rng(30)
        w = rng.normal(size=(4, 6))
        p = make_partition(4, 6, ROW, 3, "w")
        g = gamma_update(w, p)
        expect = 1.0 / (group_norms(w, p) + EPSILON_GAMMA)
        np.testing.assert_allclose(g.values, expect, rtol=0, atol=0)
        assert g.update_count == 1

    def test_zero_segment_gets_large_finite_gamma(self):
        w = np.zeros((2, 4))
        p = make_partition(2, 4, ROW, 2, "w")
        g = gamma_update(w, p)
        assert np.all(np.isfinite(g.values))
        np.testing.assert_allclose(g.values, 1.0 / EPSILON_GAMMA)

    def test_update_count_chains(self):
        w = np.ones((2, 4))
        p = make_partition(2, 4, ROW, 2, "w")
        g1 = gamma_update(w, p)
        g2 = gamma_update(w, p, prev=g1)
        assert g2.update_count == 2


class TestPenalty:
    def test_manual_sum(self):
        rng = np.random.default_rng(40)
        w = rng.normal(size=(3, 4))
        p = make_partition(3, 4, ROW, 2, "w")
        g = gamma_update(w, p)
        lam = 0.37
        norms = group_norms(w, p)
        expect = lam * float((g.values * norms).sum())
        np.testing.assert_allclose(penalty(w, p, g, lam), expect, rtol=1e-15)

    def test_linear_in_lambda(self):
        rng = np.random.default_rng(41)
        w = rng.normal(size=(4, 4))
        p = make_partition(4, 4, ROW, 2, "w")
        g = gamma_update(w, p)
        one = penalty(w, p, g, 1.0)
        np.testing.assert_allclose(penalty(w, p, g, 2.5), 2.5 * one, rtol=1e-15)

    def test_zero_lambda_is_zero(self):
        w = np.ones((2, 4))
        p = make_partition(2, 4, ROW, 2, "w")
        assert penalty(w, p, gamma_update(w, p), 0.0) == 0.0


class TestPenaltyGrad:
    def test_matches_finite_differences_with_frozen_gamma(self):
        """Gamma is a constant inside the gradient, so the derivative is
        taken of lam * sum(gamma * ||segment||) with gamma fixed."""
        rng = np.random.default_rng(50)
        for axis in (ROW, COLUMN):
            w = rng.normal(size=(6, 6)) + 0.5  # keep norms away from zero
            p = make_partition(6, 6, axis, 3, "w")
            g = gamma_update(w, p)
            lam = 1e-2
            grad = penalty_grad(w, p, g, lam)
            fd = finite_diff_gradient(lambda x: penalty(x, p, g, lam), w, 1e-6)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-10)

    def test_zero_lambda_gives_zero_grad(self):
        rng = np.random.default_rng(51)
        w = rng.normal(size=(4, 4))
        p = make_partition(4, 4, ROW, 2, "w")
        g = gamma_update(w, p)
        assert np.count_nonzero(penalty_grad(w, p, g, 0.0)) == 0

    def test_gradient_points_along_weights(self):
        # each entry of the gradient has the sign of the weight entry
        rng = np.random.default_rng(52)
        w = rng.normal(size=(4, 8))
        p = make_partition(4, 8, ROW, 4, "w")
        g = gamma_update(w, p)
        grad = penalty_grad(w, p, g, 1e-3)
        assert np.all(np.sign(grad) == np.sign(w))

    def test_gamma_shape_checked(self):
        w = np.ones((4, 4))
        p = make_partition(4, 4, ROW, 2, "w")
        other = make_partition(4, 4, ROW, 4, "w")
        with pytest.raises(ShapeError):
            penalty_grad(w, p, gamma_update(w, other), 1.0)

    @pytest.mark.parametrize("axis", [ROW, COLUMN])
    def test_in_place_gradient_is_penalty_grad_added_bitwise(self, axis):
        # penalty(..., grad=G) must give the bits of the two-call form
        # penalty(...) and G += penalty_grad(...), zeroed segment included
        rng = np.random.default_rng(53)
        w = rng.normal(size=(8, 12))
        p = make_partition(8, 12, axis, 4, "w")
        segments(w, p)[1, 2] = 0.0
        g = gamma_update(rng.normal(size=(8, 12)), p)
        lam = 3.7e-4
        start = rng.normal(size=(8, 12))
        expect = start.copy()
        expect += penalty_grad(w, p, g, lam)
        grad = start.copy()
        value = penalty(w, p, g, lam, grad=grad)
        assert grad.tobytes() == expect.tobytes()
        assert np.float64(value).tobytes() == np.float64(
            penalty(w, p, g, lam)).tobytes()


class TestSegments:
    def test_row_axis_is_a_view_of_row_runs(self):
        w = np.arange(12.0).reshape(3, 4)
        p = make_partition(3, 4, ROW, 2, "w")
        segs = segments(w, p)
        assert segs.shape == (3, 2, 2)
        assert np.shares_memory(segs, w)
        # segment (g, b) is row g, columns 2b..2b+2
        assert segs[1, 1].tolist() == [6.0, 7.0]
        assert np.array_equal(segs.reshape(3, 4), w)

    def test_column_axis_is_a_view_of_column_runs(self):
        w = np.arange(12.0).reshape(4, 3)
        p = make_partition(4, 3, COLUMN, 2, "w")
        segs = segments(w, p)
        assert segs.shape == (3, 2, 2)
        assert np.shares_memory(segs, w)
        # segment (g, b) is column g, rows 2b..2b+2
        assert segs[2, 1].tolist() == [8.0, 11.0]
        assert np.array_equal(segs.reshape(3, 4), w.T)
