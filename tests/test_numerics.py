import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import blockprune
from blockprune import numerics
from blockprune.errors import NonFiniteError, ShapeError
from blockprune.numerics import (
    COLUMN,
    ROW,
    as_matrix,
    blas_threads,
    make_rng,
    matmul,
    run_pinned,
    usable_cores,
    usable_cpus,
)
from oracles import finite_diff_gradient, segment_l2_norm


def naive_matmul(a, b):
    """Triple loop with the k index innermost and ascending."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestMatmul:
    def test_matches_naive_loop_bitwise(self):
        rng = np.random.default_rng(11)
        for m, k, n in [(3, 4, 5), (7, 7, 1), (1, 9, 6), (8, 16, 8)]:
            a = rng.normal(size=(m, k))
            b = rng.normal(size=(k, n))
            assert np.array_equal(matmul(a, b), naive_matmul(a, b))

    def test_noncontiguous_inputs(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 10))[:, ::2]
        b = rng.normal(size=(5, 8))
        assert np.array_equal(matmul(a, b), naive_matmul(a, b))

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError, match="incompatible"):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_not_two_dimensional(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros(3), np.zeros((3, 2)))


class TestAsMatrix:
    def test_promotes_to_float64(self):
        m = as_matrix([[1, 2], [3, 4]])
        assert m.dtype == np.float64
        assert m.shape == (2, 2)

    def test_rejects_vector(self):
        with pytest.raises(ShapeError):
            as_matrix(np.arange(4))


class TestSegmentNorm:
    def test_row_segment_matches_direct_norm(self):
        rng = np.random.default_rng(5)
        w = rng.normal(size=(6, 12))
        got = segment_l2_norm(w, 2, ROW, 4, 8)
        np.testing.assert_allclose(got, np.linalg.norm(w[2, 4:8]), rtol=0, atol=0)

    def test_column_segment_matches_direct_norm(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(10, 4))
        got = segment_l2_norm(w, 1, COLUMN, 5, 10)
        np.testing.assert_allclose(got, np.linalg.norm(w[5:10, 1]), rtol=1e-15)

    def test_range_validation(self):
        w = np.zeros((4, 4))
        with pytest.raises(ShapeError):
            segment_l2_norm(w, 0, ROW, 3, 3)
        with pytest.raises(ShapeError):
            segment_l2_norm(w, 0, ROW, 0, 5)
        with pytest.raises(ShapeError):
            segment_l2_norm(w, 4, ROW, 0, 2)

    def test_unknown_axis(self):
        with pytest.raises(ShapeError, match="axis"):
            segment_l2_norm(np.zeros((4, 4)), 0, "diag", 0, 2)


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        # f(w) = sum(c * w^2) has gradient 2*c*w
        rng = np.random.default_rng(7)
        c = rng.uniform(0.5, 2.0, size=(3, 4))
        w = rng.normal(size=(3, 4))
        g = finite_diff_gradient(lambda x: float((c * x * x).sum()), w, 1e-6)
        np.testing.assert_allclose(g, 2 * c * w, rtol=1e-6, atol=1e-8)

    def test_vector_argument(self):
        w = np.array([1.0, -2.0, 0.5])
        g = finite_diff_gradient(lambda x: float(np.sum(x**3)), w, 1e-6)
        np.testing.assert_allclose(g, 3 * w**2, rtol=1e-5, atol=1e-7)

    def test_restores_the_buffer(self):
        w = np.arange(6.0).reshape(2, 3)
        before = w.copy()
        finite_diff_gradient(lambda x: float(x.sum()), w, 1e-5)
        assert np.array_equal(w, before)

    def test_nonfinite_value_names_the_entry(self):
        def f(x):
            return float("nan") if x[1, 0] > 0.5 else float(x.sum())

        with pytest.raises(NonFiniteError, match=r"\(1, 0\)"):
            finite_diff_gradient(f, np.zeros((2, 2)), 1.0)


class TestRngs:
    def test_same_seed_same_stream(self):
        a = make_rng(123).normal(size=8)
        b = make_rng(123).normal(size=8)
        assert np.array_equal(a, b)


class TestCores:
    def test_usable_cores_follow_the_affinity_mask(self):
        if not hasattr(os, "sched_getaffinity"):
            pytest.skip("no affinity mask on this platform")
        assert usable_cores() == len(os.sched_getaffinity(0))
        assert usable_cpus() == sorted(os.sched_getaffinity(0))

    def test_usable_cores_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert usable_cores() == 3
        assert usable_cpus() == [0, 1, 2]
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cores() == 1

    def test_blas_threads_as_the_loaded_openblas_reports(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        if "openblas" not in blas["name"]:
            pytest.skip(f"numpy uses {blas['name']}, not OpenBLAS")
        # a fresh process: OpenBLAS reads the variable when it is loaded
        src = os.path.dirname(os.path.dirname(blockprune.__file__))
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": src if not path else os.pathsep.join((src, path))}
        done = subprocess.run(
            [sys.executable, "-c",
             "from blockprune.numerics import blas_threads; "
             "print(blas_threads())"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.split() == ["1"]
        assert blas_threads() >= 1


class TestRunPinned:
    def test_results_in_order_first_on_the_caller(self):
        def call(k):
            return lambda: (k, threading.get_ident())

        before = threading.active_count()
        got = run_pinned([call(k) for k in range(5)])
        assert [k for k, _ in got] == [0, 1, 2, 3, 4]
        assert got[0][1] == threading.get_ident()
        assert threading.get_ident() not in {t for _, t in got[1:]}
        assert threading.active_count() == before
        # one call starts no thread
        assert run_pinned([lambda: threading.get_ident()]) == [
            threading.get_ident()]

    def test_pool_threads_pin_away_from_the_callers_cpu(self, monkeypatch):
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("no affinity calls on this platform")
        mask = os.sched_getaffinity(0)
        assert numerics._sched_getcpu()() in mask
        for here in sorted(mask):
            # the caller found on `here`, whichever CPU it is really on
            monkeypatch.setattr(numerics, "_sched_getcpu",
                                lambda: lambda: here)
            others = sorted(mask - {here})
            got = run_pinned([lambda: os.sched_getaffinity(0)] * 5)
            assert got[0] == mask
            if others:
                assert got[1:] == [{others[k % len(others)]}
                                   for k in range(4)]
            else:  # a one-CPU mask: nowhere else to go
                assert got[1:] == [mask] * 4
            assert os.sched_getaffinity(0) == mask

    def test_unpinned_without_affinity_calls(self, monkeypatch):
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        if hasattr(os, "sched_getaffinity"):
            mask = os.sched_getaffinity(0)
            got = run_pinned([lambda: os.sched_getaffinity(0)] * 3)
            assert got == [mask] * 3
        else:
            assert run_pinned([lambda: 1] * 3) == [1, 1, 1]

    def test_a_failing_call_fails_the_run_and_leaves_no_thread(self):
        def fail():
            raise ValueError("slice failed")

        before = threading.active_count()
        for calls in ([lambda: 1, fail], [fail, lambda: 1]):
            with pytest.raises(ValueError, match="slice failed"):
                run_pinned(calls)
            assert threading.active_count() == before
