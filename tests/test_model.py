import pickle

import numpy as np
import pytest

from blockprune.errors import CheckpointError, DataError, ShapeError
from blockprune.model import (
    ArchConfig,
    Batch,
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
from blockprune.numerics import finite_diff_gradient

TINY = ArchConfig(vocab=6, dim=8, heads=1, ffn=12, classes=4, seq_len=5)


def tiny_model(seed=0):
    return build_model(TINY, np.random.default_rng(seed))


def tiny_batch(seed=1, n=3):
    rng = np.random.default_rng(seed)
    toks = rng.integers(0, TINY.vocab, size=(n, TINY.seq_len))
    labels = rng.integers(0, TINY.classes, size=n)
    return Batch(token_ids=toks, labels=labels)


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
        logits, cache = forward(tiny_model(), tiny_batch())
        assert logits.shape == (3, 4)
        assert cache.P.shape == (3, 8)

    def test_rows_are_independent(self):
        """Each sample's logits must not depend on its batch mates."""
        params = tiny_model()
        batch = tiny_batch(n=4)
        full, _ = forward(params, batch)
        for i in range(4):
            single = Batch(token_ids=batch.token_ids[i:i + 1],
                           labels=batch.labels[i:i + 1])
            row, _ = forward(params, single)
            np.testing.assert_allclose(row[0], full[i], rtol=1e-12, atol=1e-14)

    def test_token_out_of_range(self):
        params = tiny_model()
        toks = np.full((1, TINY.seq_len), TINY.vocab)
        with pytest.raises(DataError, match="token"):
            forward(params, Batch(token_ids=toks, labels=np.zeros(1)))

    def test_deterministic(self):
        params = tiny_model()
        a, _ = forward(params, tiny_batch())
        b, _ = forward(params, tiny_batch())
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
        _, grads = loss_and_gradients(params, batch, params.zeros_like())

        def through(buffer):
            """Loss as a function of one parameter buffer, evaluated by
            writing the probe values into the live model."""
            def f(x):
                saved = buffer.copy()
                np.copyto(buffer, x)
                logits, _ = forward(params, batch)
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
        _, grads = loss_and_gradients(params, tiny_batch(seed=4, n=4),
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
        _, fresh = loss_and_gradients(params, batch, params.zeros_like())
        store = params.zeros_like()
        store.flat[...] = np.nan
        _, reused = loss_and_gradients(params, batch, store)
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
        batches = make_synthetic_dataset(0, 70, 4, 8, batch_size=32)
        assert [b.labels.size for b in batches] == [32, 32, 6]

    def test_bad_vocab(self):
        with pytest.raises(DataError):
            make_synthetic_dataset(0, 10, 4, 1)


class TestEvaluate:
    def test_fraction_of_correct_argmax(self):
        params = tiny_model()
        batches = make_synthetic_dataset(9, 48, TINY.seq_len, TINY.vocab,
                                         batch_size=16)
        # clip labels into the class range for this tiny config
        batches = [
            Batch(token_ids=b.token_ids,
                  labels=np.minimum(b.labels, TINY.classes - 1))
            for b in batches
        ]
        acc = evaluate(params, batches)
        hits = 0
        for b in batches:
            logits, _ = forward(params, b)
            hits += int((logits.argmax(axis=1) == b.labels).sum())
        assert acc == hits / 48

    def test_empty_dataset_rejected(self):
        with pytest.raises(DataError):
            evaluate(tiny_model(), [])


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
