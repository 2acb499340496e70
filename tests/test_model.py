import os
import pickle
import threading
import tracemalloc

import numpy as np
import pytest

from blockprune import model
from blockprune.errors import CheckpointError, DataError, ShapeError
from blockprune.model import (
    ArchConfig,
    Dataset,
    _embedding_grad,
    build_model,
    evaluate,
    forward,
    load_checkpoint,
    loss,
    loss_and_gradients,
    make_synthetic_dataset,
    save_checkpoint,
)
from blockprune.numerics import COLUMN, ROW
from blockprune.pruner import PruneEntry, PruneSpec, prune_model
from oracles import finite_diff_gradient

TINY = ArchConfig(vocab=6, dim=8, heads=1, ffn=12, classes=4, seq_len=5)


def tiny_model(seed=0):
    return build_model(TINY, np.random.default_rng(seed))


def tiny_batch(seed=1, n=3):
    rng = np.random.default_rng(seed)
    toks = rng.integers(0, TINY.vocab, size=(n, TINY.seq_len))
    labels = rng.integers(0, TINY.classes, size=n)
    return Dataset(toks, labels, n)


class TestBuild:
    def test_tensor_registry_order(self):
        params = tiny_model()
        assert params.names() == [
            "embedding", "Wq", "Wk", "Wv", "Wo",
            "ffn_in", "ffn_out", "classifier",
        ]

    def test_shapes(self):
        params = tiny_model()
        assert params.tensor("embedding").matrix.shape == (6, 8)
        assert params.tensor("Wq").matrix.shape == (8, 8)
        assert params.tensor("ffn_in").matrix.shape == (8, 12)
        assert params.tensor("ffn_out").matrix.shape == (12, 8)
        assert params.tensor("classifier").matrix.shape == (8, 4)

    def test_biases_start_at_zero(self):
        params = tiny_model()
        for name in ("ffn_in", "ffn_out", "classifier"):
            assert np.count_nonzero(params.tensor(name).bias) == 0
        for name in ("embedding", "Wq", "Wk", "Wv", "Wo"):
            assert params.tensor(name).bias is None

    def test_prunable_flags(self):
        params = tiny_model()
        prunable = {n for n, t in params.items() if t.prunable}
        assert prunable == {"Wq", "Wk", "Wv", "Wo", "ffn_in", "ffn_out"}

    def test_prunable_overrides(self):
        params = build_model(TINY, np.random.default_rng(0),
                             prunable_overrides={"embedding": True})
        assert params.tensor("embedding").prunable

    def test_init_scale_tracks_fan_in(self):
        # std of ffn_out entries should be near 1/sqrt(ffn)
        big = ArchConfig(vocab=8, dim=64, heads=1, ffn=128, classes=4,
                         seq_len=8)
        params = build_model(big, np.random.default_rng(5))
        std = params.tensor("ffn_out").matrix.std()
        assert abs(std - 1 / np.sqrt(128)) < 0.01

    def test_multi_head_rejected(self):
        with pytest.raises(ShapeError, match="head"):
            ArchConfig(heads=2).validate()


class TestForward:
    def test_logits_shape(self):
        logits, cache = forward(tiny_model(), tiny_batch().token_ids)
        assert logits.shape == (3, 4)
        assert cache.P.shape == (3, 8)

    def test_rows_are_independent(self):
        """Each sample's logits must not depend on its batch mates."""
        params = tiny_model()
        batch = tiny_batch(n=4)
        full, _ = forward(params, batch.token_ids)
        for i in range(4):
            row, _ = forward(params, batch.token_ids[i:i + 1])
            np.testing.assert_allclose(row[0], full[i], rtol=1e-12, atol=1e-14)

    def test_token_out_of_range(self):
        params = tiny_model()
        toks = np.full((1, TINY.seq_len), TINY.vocab)
        with pytest.raises(DataError, match="token"):
            forward(params, toks)
        with pytest.raises(DataError, match="token"):
            forward(params, -toks)

    def test_deterministic(self):
        params = tiny_model()
        a, _ = forward(params, tiny_batch().token_ids)
        b, _ = forward(params, tiny_batch().token_ids)
        assert np.array_equal(a, b)


class TestLoss:
    def test_uniform_logits_give_log_classes(self):
        logits = np.zeros((5, 4))
        labels = np.arange(5) % 4
        np.testing.assert_allclose(loss(logits, labels), np.log(4), rtol=1e-12)

    def test_hand_computed_two_class(self):
        logits = np.array([[2.0, 0.0]])
        expect = np.log(1 + np.exp(-2.0))
        np.testing.assert_allclose(loss(logits, [0]), expect, rtol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(DataError):
            loss(np.zeros((2, 3)), [0, 3])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            loss(np.zeros((2, 3)), [0])


class TestBackward:
    def test_matches_finite_differences(self):
        params = tiny_model(seed=3)
        batch = tiny_batch(seed=4, n=4)
        _, grads = loss_and_gradients(params, batch.token_ids, batch.labels,
                                      params.zeros_like())

        def through(buffer):
            """Loss as a function of one parameter buffer, evaluated by
            writing the probe values into the live model."""
            def f(x):
                saved = buffer.copy()
                np.copyto(buffer, x)
                logits, _ = forward(params, batch.token_ids)
                value = loss(logits, batch.labels)
                np.copyto(buffer, saved)
                return value
            return f

        for name, t in params.items():
            fd = finite_diff_gradient(through(t.matrix), t.matrix, 1e-6)
            g = grads.tensor(name)
            np.testing.assert_allclose(g.matrix, fd, rtol=1e-4, atol=1e-8)
            if t.bias is not None:
                fd_b = finite_diff_gradient(through(t.bias), t.bias, 1e-6)
                np.testing.assert_allclose(g.bias, fd_b, rtol=1e-4, atol=1e-8)

    def test_gradients_share_the_parameter_layout(self):
        params = tiny_model(seed=3)
        batch = tiny_batch(seed=4, n=4)
        _, grads = loss_and_gradients(params, batch.token_ids, batch.labels,
                                      params.zeros_like())
        assert grads.names() == params.names()
        assert grads.flat.shape == params.flat.shape
        for name, t in params.items():
            g = grads.tensor(name)
            assert g.matrix.shape == t.matrix.shape
            assert (g.bias is None) == (t.bias is None)

    def test_reused_store_is_overwritten(self):
        # a store left holding another batch's gradients, or garbage,
        # gives the same bytes as a fresh one
        params = tiny_model(seed=3)
        batch = tiny_batch(seed=4, n=4)
        _, fresh = loss_and_gradients(params, batch.token_ids, batch.labels,
                                      params.zeros_like())
        store = params.zeros_like()
        store.flat[...] = np.nan
        _, reused = loss_and_gradients(params, batch.token_ids, batch.labels,
                                       store)
        assert reused is store
        assert reused.flat.tobytes() == fresh.flat.tobytes()

    @pytest.mark.parametrize("kind", ["random", "repeated", "all_equal"])
    def test_embedding_grad_is_add_at_bitwise(self, kind):
        # each row of the gradient sums many dX rows; the sum must run
        # in np.add.at's index order for the bits to match
        rng = np.random.default_rng(11)
        vocab, d = 7, 5
        toks = {
            "random": rng.integers(0, vocab, size=(6, 9)),
            "repeated": np.tile([3, 0, 3, 6, 3], (4, 2)),
            "all_equal": np.full((5, 8), 2),
        }[kind]
        dX = rng.normal(size=toks.shape + (d,)) * 10.0 ** rng.integers(
            -8, 8, size=toks.shape + (d,))
        expect = np.zeros((vocab, d))
        np.add.at(expect, toks.reshape(-1), dX.reshape(-1, d))
        out = np.full((vocab, d), np.nan)
        _embedding_grad(toks, dX, out)
        assert out.tobytes() == expect.tobytes()


class TestDataset:
    def test_label_is_modal_token(self):
        batches = make_synthetic_dataset(8, 64, 7, 5, batch_size=16)
        for batch in batches:
            for toks, label in zip(batch.token_ids, batch.labels):
                counts = np.bincount(toks, minlength=5)
                assert counts[label] == counts.max()
                # ties go to the smallest id
                assert np.all(counts[:label] < counts[label])

    def test_deterministic_per_seed(self):
        a = make_synthetic_dataset(3, 40, 6, 8)
        b = make_synthetic_dataset(3, 40, 6, 8)
        assert all(
            np.array_equal(x.token_ids, y.token_ids) for x, y in zip(a, b)
        )

    def test_batch_sizes(self):
        data = make_synthetic_dataset(0, 70, 4, 8, batch_size=32)
        assert len(data) == 3
        assert [b.labels.size for b in data] == [32, 32, 6]
        assert all(b.batch_size == 32 for b in data)
        # each batch views its rows of the dataset's arrays
        last = list(data)[-1]
        assert np.shares_memory(last.token_ids, data.token_ids)
        assert np.array_equal(last.labels, data.labels[64:])

    def test_bad_vocab(self):
        with pytest.raises(DataError):
            make_synthetic_dataset(0, 10, 4, 1)

    @pytest.mark.parametrize("tokens,labels,batch_size,match", [
        (np.zeros((2, 3, 1)), np.zeros(2), 1, "shapes invalid"),
        (np.zeros((2, 3)), np.zeros((2, 1)), 1, "shapes invalid"),
        (np.zeros((2, 3)), np.zeros(3), 1, "counts differ"),
        (np.zeros((0, 3)), np.zeros(0), 1, "empty"),
        (np.array([[0, -1, 0], [0, 0, 0]]), np.zeros(2), 1, "negative token"),
        (np.zeros((2, 3)), np.array([0, -1]), 1, "negative label"),
        (np.zeros((2, 3)), np.zeros(2), 0, "batch_size"),
    ], ids=["3d_tokens", "2d_labels", "counts", "zero_rows",
            "negative_token", "negative_label", "zero_batch_size"])
    def test_malformed_input_rejected(self, tokens, labels, batch_size,
                                      match):
        with pytest.raises(DataError, match=match):
            Dataset(tokens, labels, batch_size)

    def test_pickle_keeps_bits_and_batch_size(self):
        data = make_synthetic_dataset(5, 70, 6, 8, batch_size=32)
        back = pickle.loads(pickle.dumps(data))
        assert back.token_ids.tobytes() == data.token_ids.tobytes()
        assert back.labels.tobytes() == data.labels.tobytes()
        assert (back.token_ids.dtype, back.labels.dtype) == (np.int64,
                                                             np.int64)
        assert back.token_ids.shape == data.token_ids.shape
        assert back.batch_size == 32


class TestEvaluate:
    def test_fraction_of_correct_argmax(self):
        params = tiny_model()
        data = make_synthetic_dataset(9, 48, TINY.seq_len, TINY.vocab,
                                      batch_size=16)
        # clip labels into the class range for this tiny config
        data = Dataset(data.token_ids,
                       np.minimum(data.labels, TINY.classes - 1), 16)
        acc = evaluate(params, data)
        hits = 0
        for b in data:
            logits, _ = forward(params, b.token_ids)
            hits += int((logits.argmax(axis=1) == b.labels).sum())
        assert acc == hits / 48

    def test_empty_dataset_rejected(self):
        # an empty dataset cannot be built, so evaluate never sees one
        with pytest.raises(DataError, match="empty"):
            Dataset(np.zeros((0, TINY.seq_len)), np.zeros(0), 16)


SMALL = ArchConfig(vocab=8, dim=16, heads=1, ffn=32, classes=8, seq_len=16)
DIM64 = ArchConfig(vocab=8, dim=64, heads=1, ffn=128, classes=8, seq_len=32)
SEQ128 = ArchConfig(vocab=8, dim=64, heads=1, ffn=256, classes=8, seq_len=128)


def prune(params, axis, sparsity, names=model.PROJECTIONS):
    """Prune the named projections in 2 blocks on `axis`, in place; at
    dim 64 a row-axis block is then wide enough for packing to pay."""
    prune_model(params, PruneSpec(entries=tuple(
        PruneEntry(name, axis, 2, "percentile", sparsity) for name in names
    )))
    return params


@pytest.fixture
def split_over(monkeypatch):
    """`split_over(cores, blas=1)` makes `evaluate` split every batch
    of 2 or more sequences as it would on `cores` cores with BLAS on
    `blas` threads; the forward calls it makes are logged by batch
    size."""
    sizes = []

    def logged(params, token_ids, original=model.forward):
        sizes.append(len(token_ids))
        return original(params, token_ids)

    monkeypatch.setattr(model, "forward", logged)
    monkeypatch.setattr(model, "PARALLEL_MIN_MACS", 0)

    def split(cores, blas=1):
        monkeypatch.setattr(model, "usable_cores", lambda: cores)
        monkeypatch.setattr(model, "blas_threads", lambda: blas)
        sizes.clear()
        return sizes

    return split


class TestParallelEvaluate:
    def test_threaded_accuracy_equals_serial(self, split_over):
        params = build_model(SMALL, np.random.default_rng(3))
        data = make_synthetic_dataset(4, 200, SMALL.seq_len, SMALL.vocab)
        split_over(1)
        serial = evaluate(params, data)
        for cores in (2, 3, 4, 16):
            sizes = split_over(cores)
            assert evaluate(params, data) == serial
            # six batches of 32 and one of 8, each cut into `cores` slices
            assert len(sizes) == 6 * cores + min(cores, 4)
            assert sum(sizes) == 200

    @pytest.mark.parametrize("arch", [SMALL, DIM64, SEQ128])
    @pytest.mark.parametrize("n", [2, 3, 32, 33, 1, 16])
    def test_slice_logits_bit_identical_to_whole_batch(self, arch, n,
                                                       monkeypatch):
        monkeypatch.setattr(model, "PARALLEL_MIN_MACS", 0)
        monkeypatch.setattr(model, "PACKED_MIN_MACS", 0)
        params = build_model(arch, np.random.default_rng(5))
        toks = make_synthetic_dataset(6, n, arch.seq_len, arch.vocab,
                                      n).token_ids
        whole = forward(params, toks)[0]
        # the packed forward on the same weights, row-pruned
        pruned = prune(params.clone(), ROW, 0.8)
        runs = model._packed_runs(pruned, toks)
        packed = model._packed_forward(pruned, runs, toks)
        cuts = []
        for cores in (2, 3, 4, 16):
            bounds = model._slices(params, toks, cores)
            assert len(bounds) == max(1, min(cores, n // 2))
            cuts.append(bounds)
        # entries of one sequence's widest activation, here its FFN's
        widest = arch.seq_len * arch.ffn
        for fit in (0, 1, 2, 3, 5, 10**6):
            monkeypatch.setattr(model, "CHUNK_ELEMENTS", fit * widest)
            bounds = model._chunks(params, toks)
            # the fewest chunks of at most `fit` sequences, of 2 or 3
            # where `fit` is under 2
            assert len(bounds) == max(1, min(n // 2, -(-n // max(fit, 1))))
            assert all(hi - lo <= max(fit, 3) for lo, hi in bounds)
            cuts.append(bounds)
        for bounds in cuts:
            # at least 2 sequences in each; a batch of 1 stays whole
            assert all(hi - lo >= min(n, 2) for lo, hi in bounds)
            # contiguous and covering every row once
            assert [lo for lo, _ in bounds] == [0] + [hi for _, hi
                                                      in bounds[:-1]]
            assert bounds[-1][1] == n
            logits = np.concatenate([forward(params, toks[lo:hi])[0]
                                     for lo, hi in bounds])
            assert logits.tobytes() == whole.tobytes()
            logits = np.concatenate([
                model._packed_forward(pruned, runs, toks[lo:hi])
                for lo, hi in bounds])
            assert logits.tobytes() == packed.tobytes()

    @pytest.mark.parametrize("packed", [False, True])
    def test_chunked_accuracy_equals_whole(self, split_over, monkeypatch,
                                           packed):
        params = prune(build_model(DIM64, np.random.default_rng(5)), ROW,
                       0.8)
        data = make_synthetic_dataset(6, 70, DIM64.seq_len, DIM64.vocab)
        sizes = split_over(2)
        if packed:
            monkeypatch.setattr(model, "PACKED_MIN_MACS", 0)

            def logged(params, runs, token_ids,
                       original=model._packed_forward):
                sizes.append(len(token_ids))
                return original(params, runs, token_ids)

            monkeypatch.setattr(model, "_packed_forward", logged)
        monkeypatch.setattr(model, "CHUNK_ELEMENTS", 10**30)
        whole = evaluate(params, data)
        # batches of 32, 32 and 6, each in two slices
        assert sorted(sizes) == [3, 3, 16, 16, 16, 16]
        # chunks of 2 sequences, a 3-sequence slice whole
        monkeypatch.setattr(model, "CHUNK_ELEMENTS", 0)
        sizes.clear()
        assert evaluate(params, data) == whole
        assert sorted(sizes) == [2] * 32 + [3, 3]

    def test_one_sequence_batches_stay_whole(self, split_over):
        params = build_model(SMALL, np.random.default_rng(3))
        # a last batch of 1, then a dataset of one 1-sequence batch
        data = make_synthetic_dataset(4, 33, SMALL.seq_len, SMALL.vocab)
        last = list(data)[-1]
        split_over(1)
        serial = [evaluate(params, data), evaluate(params, last)]
        sizes = split_over(2)
        assert [evaluate(params, data), evaluate(params, last)] == serial
        assert sizes == [16, 16, 1, 1]

    @pytest.mark.parametrize("blas", [2, None])
    def test_busy_or_unknown_blas_keeps_batches_whole(self, split_over,
                                                      blas):
        params = build_model(SMALL, np.random.default_rng(3))
        data = make_synthetic_dataset(4, 64, SMALL.seq_len, SMALL.vocab)
        sizes = split_over(2, blas)
        evaluate(params, data)
        assert sizes == [32, 32]

    def test_no_thread_outlives_the_call(self, split_over):
        params = build_model(SMALL, np.random.default_rng(3))
        data = make_synthetic_dataset(4, 64, SMALL.seq_len, SMALL.vocab)
        pinned = hasattr(os, "sched_getaffinity")
        cpus = os.sched_getaffinity(0) if pinned else None
        before = threading.active_count()
        split_over(4)
        evaluate(params, data)
        assert threading.active_count() == before
        # the pool's threads pin themselves, not the caller
        if pinned:
            assert os.sched_getaffinity(0) == cpus
        # a slice that fails still fails the call, and leaves no thread
        toks = data.token_ids.copy()
        toks[-1, 0] = SMALL.vocab
        with pytest.raises(DataError, match="out of range"):
            evaluate(params, Dataset(toks, data.labels, data.batch_size))
        assert threading.active_count() == before


class TestPackedForward:
    @pytest.mark.parametrize("axis, sparsity, names, packs", [
        # at 0.5 only ffn_in's runs, 64 columns wide, pay
        (ROW, 0.5, model.PROJECTIONS, ("ffn_in",)),
        (ROW, 0.8, model.PROJECTIONS, model.PROJECTIONS),
        (ROW, 0.8, (), ()),  # unpruned
        # runs one column wide: every matrix is multiplied whole
        (COLUMN, 0.8, model.PROJECTIONS, ()),
        (ROW, 0.8, ("ffn_out",), ("ffn_out",)),
    ])
    def test_matches_forward(self, split_over, monkeypatch, axis, sparsity,
                             names, packs):
        params = prune(build_model(DIM64, np.random.default_rng(5)), axis,
                       sparsity, names)
        data = make_synthetic_dataset(6, 70, DIM64.seq_len, DIM64.vocab)
        sizes = split_over(1)
        # below the cut every batch runs forward
        dense = evaluate(params, data)
        assert sizes == [32, 32, 6]
        monkeypatch.setattr(model, "PACKED_MIN_MACS", 0)
        sizes.clear()
        assert evaluate(params, data) == dense
        # forward runs every batch unless some matrix packs
        assert sizes == ([] if packs else [32, 32, 6])
        runs = {name: model._column_runs(params.tensor(name).matrix)
                for name in model.PROJECTIONS}
        assert [n for n, r in runs.items() if r is not None] == list(packs)
        assert (model._packed_runs(params, data.token_ids) is None) == (
            not packs)
        got = model._packed_forward(params, runs, data.token_ids)
        want = forward(params, data.token_ids)[0]
        assert np.abs(got - want).max() <= 1e-12

    def test_weights_are_packed_afresh_each_call(self, split_over,
                                                 monkeypatch):
        monkeypatch.setattr(model, "PACKED_MIN_MACS", 0)
        params = prune(build_model(DIM64, np.random.default_rng(5)), ROW,
                       0.8)
        data = make_synthetic_dataset(6, 64, DIM64.seq_len, DIM64.vocab)
        seen = []

        def logged(params, runs, token_ids,
                   original=model._packed_forward):
            seen.append((token_ids, original(params, runs, token_ids)))
            return seen[-1][1]

        monkeypatch.setattr(model, "_packed_forward", logged)
        before = threading.active_count()
        split_over(2)
        evaluate(params, data)
        assert len(seen) == 4  # two batches, two slices each
        assert threading.active_count() == before
        # zero one kept block of Wv in place: its first run of columns
        Wv = params.tensor("Wv").matrix
        lo, hi, _, _ = model._column_runs(Wv)[0]
        Wv[:, lo:hi] = 0.0
        seen.clear()
        acc = evaluate(params, data)
        assert len(seen) == 4
        for toks, logits in seen:
            want = forward(params, toks)[0]
            assert np.abs(logits - want).max() <= 1e-12
        monkeypatch.setattr(model, "PACKED_MIN_MACS", 10**30)
        assert acc == evaluate(params, data)


def test_serving_batch_traced_peak_below_its_ffn_activation():
    # the pruned serving-size model: one batch of 32 whole would hold a
    # (32, 128, 1024) float64 FFN activation, 32 MiB, at once
    arch = ArchConfig(vocab=8, dim=256, heads=1, ffn=1024, classes=8,
                      seq_len=128)
    params = build_model(arch, np.random.default_rng(0))
    prune_model(params, PruneSpec(entries=tuple(
        PruneEntry(name, ROW, 8, "percentile", 0.8)
        for name in model.PROJECTIONS)))
    data = make_synthetic_dataset(1, 32, arch.seq_len, arch.vocab, 32)
    tracemalloc.start()
    try:
        evaluate(params, data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def assert_views_of_flat(params):
    """Every matrix and bias is a view into `flat`, which holds exactly
    those values and nothing more."""
    count = 0
    for _, t in params.items():
        for arr in (t.matrix, t.bias):
            if arr is not None:
                assert np.shares_memory(arr, params.flat)
                count += arr.size
    assert params.flat.size == count
    assert params.flat.dtype == np.float64 and params.flat.flags.c_contiguous


class TestFlatStore:
    def test_build_clone_load_and_zeros_like_fill_one_buffer(self, tmp_path):
        params = tiny_model(seed=13)
        assert_views_of_flat(params)
        copy = params.clone()
        assert_views_of_flat(copy)
        assert not np.shares_memory(copy.flat, params.flat)
        save_checkpoint(params, tmp_path / "ck")
        assert_views_of_flat(load_checkpoint(tmp_path / "ck"))
        zeros = params.zeros_like()
        assert_views_of_flat(zeros)
        assert zeros.names() == params.names()
        assert zeros.flat.tobytes() == bytes(8 * params.flat.size)

    def test_pickle_round_trip_keeps_bytes_and_views(self):
        params = tiny_model(seed=15)
        back = pickle.loads(pickle.dumps(params))
        assert_views_of_flat(back)
        assert back.flat.tobytes() == params.flat.tobytes()
        assert not np.shares_memory(back.flat, params.flat)
        for name, t in params.items():
            other = back.tensor(name)
            assert (other.role, other.prunable) == (t.role, t.prunable)
            assert other.matrix.shape == t.matrix.shape
            assert (other.bias is None) == (t.bias is None)
        back.flat[...] = 1.0  # a write to the buffer reaches every view
        assert all((t.matrix == 1.0).all() for _, t in back.items())

    def test_layout_is_registry_order_matrix_before_bias(self):
        params = tiny_model(seed=14)
        parts = []
        for _, t in params.items():
            parts.append(t.matrix.ravel())
            if t.bias is not None:
                parts.append(t.bias)
        assert np.concatenate(parts).tobytes() == params.flat.tobytes()


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        params = tiny_model(seed=11)
        save_checkpoint(params, tmp_path / "ck")
        loaded = load_checkpoint(tmp_path / "ck")
        assert loaded.names() == params.names()
        for name, t in params.items():
            lt = loaded.tensor(name)
            assert np.array_equal(lt.matrix, t.matrix)
            assert lt.role == t.role
            assert lt.prunable == t.prunable
            if t.bias is None:
                assert lt.bias is None
            else:
                assert np.array_equal(lt.bias, t.bias)

    def test_rewrite_is_byte_identical(self, tmp_path):
        params = tiny_model(seed=12)
        save_checkpoint(params, tmp_path / "a")
        save_checkpoint(load_checkpoint(tmp_path / "a"), tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_truncated_blob_rejected(self, tmp_path):
        params = tiny_model()
        save_checkpoint(params, tmp_path / "ck")
        blob = tmp_path / "ck" / "Wq.bin"
        blob.write_bytes(blob.read_bytes()[:-8])
        with pytest.raises(CheckpointError, match="Wq"):
            load_checkpoint(tmp_path / "ck")

    def test_wrong_length_bias_rejected(self, tmp_path):
        params = tiny_model()
        save_checkpoint(params, tmp_path / "ck")
        blob = tmp_path / "ck" / "ffn_in.bias.bin"
        blob.write_bytes(blob.read_bytes() + bytes(8))
        with pytest.raises(CheckpointError, match=r"ffn_in\.bias\.bin"):
            load_checkpoint(tmp_path / "ck")

    def test_missing_blob_names_the_path(self, tmp_path):
        params = tiny_model()
        save_checkpoint(params, tmp_path / "ck")
        (tmp_path / "ck" / "Wk.bin").unlink()
        with pytest.raises(CheckpointError, match=r"Wk\.bin"):
            load_checkpoint(tmp_path / "ck")

    def test_negative_shape_reports_line_number(self, tmp_path):
        params = tiny_model()
        save_checkpoint(params, tmp_path / "ck")
        manifest = tmp_path / "ck" / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("Wq 8 8", "Wq -8 -8"))
        with pytest.raises(CheckpointError, match=r"manifest\.txt:\d+"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize("field", [5, 6], ids=["data", "bias"])
    @pytest.mark.parametrize("where", ["absolute", "parent", "subdir",
                                       "dotdot"])
    def test_file_outside_the_directory_rejected(self, tmp_path, field,
                                                 where):
        save_checkpoint(tiny_model(), tmp_path / "ck")
        # a readable copy of the right size outside the checkpoint, so
        # only the check stops the load
        outside = tmp_path / "sub" / "blob.bin"
        outside.parent.mkdir()
        source = "ffn_in.bin" if field == 5 else "ffn_in.bias.bin"
        outside.write_bytes((tmp_path / "ck" / source).read_bytes())
        (tmp_path / "ck" / "sub").symlink_to(outside.parent)
        name = {"absolute": str(outside),
                "parent": f"../sub/{outside.name}",
                "subdir": f"sub/{outside.name}", "dotdot": ".."}[where]
        manifest = tmp_path / "ck" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        row = next(i for i, line in enumerate(lines)
                   if line.startswith("ffn_in "))
        parts = lines[row].split()
        parts[field] = name
        lines[row] = " ".join(parts)
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError,
                           match=rf"manifest\.txt:{row + 1}: .* is not a file"):
            load_checkpoint(tmp_path / "ck")

    def test_duplicate_tensor_reports_line_number(self, tmp_path):
        params = tiny_model()
        save_checkpoint(params, tmp_path / "ck")
        manifest = tmp_path / "ck" / "manifest.txt"
        lines = manifest.read_text().splitlines()
        wq = next(i for i, line in enumerate(lines) if line.startswith("Wq "))
        lines.insert(wq + 1, lines[wq])
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError,
                           match=rf"manifest\.txt:{wq + 2}: tensor 'Wq' listed twice"):
            load_checkpoint(tmp_path / "ck")

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(CheckpointError, match="manifest"):
            load_checkpoint(tmp_path / "nowhere")
