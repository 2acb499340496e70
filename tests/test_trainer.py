import dataclasses
import sys

import numpy as np
import pytest

from blockprune import regularizer, trainer
from blockprune.errors import DataError, MaskError, NonFiniteError, ShapeError
from blockprune.model import (
    ArchConfig,
    Dataset,
    build_model,
    evaluate,
    loss_and_gradients,
    make_synthetic_dataset,
)
from blockprune.numerics import ROW
from blockprune.pruner import PruneEntry, PruneSpec, prune_model
from blockprune.trainer import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    TrainConfig,
    adam_step,
    derive_seeds,
    make_adam,
    phase_keys,
    plain_train,
    retrain,
    reweighted_train,
    run_dataset,
    run_pipeline,
)

TINY = ArchConfig(vocab=6, dim=8, heads=1, ffn=12, classes=6, seq_len=5)


def tiny_setup(seed=0, n=64):
    params = build_model(TINY, np.random.default_rng(seed))
    data = make_synthetic_dataset(seed + 1, n, TINY.seq_len, TINY.vocab,
                                  batch_size=16)
    return params, data


def tiny_config(**overrides):
    base = dict(
        arch=TINY,
        train_samples=64,
        eval_samples=32,
        batch_size=16,
        seed=5,
        baseline_steps=8,
        learning_rate=1e-3,
        t1=12,
        t2=10,
        milestones=(4, 8),
        lambda_max=1e-3,
        lambda_warmup_steps=4,
        eval_every=0,
        prune_spec=PruneSpec(entries=(
            PruneEntry("Wq", ROW, 4, "percentile", 0.5),
            PruneEntry("ffn_in", ROW, 4, "percentile", 0.5),
        )),
    )
    base.update(overrides)
    return TrainConfig(**base)


class TestAdam:
    def test_first_step_matches_hand_formula(self):
        params, _ = tiny_setup()
        state = make_adam(params, learning_rate=0.01)
        grads = params.zeros_like()
        grads.flat[...] = 0.5
        before = params.clone()
        adam_step(params, grads, state)
        # with constant gradient g: m_hat = g, v_hat = g^2, so the update
        # is lr * g / (|g| + eps) regardless of g's magnitude
        expect = 0.01 * 0.5 / (0.5 + ADAM_EPS)
        for name, t in before.items():
            delta = t.matrix - params.tensor(name).matrix
            np.testing.assert_allclose(delta, expect, rtol=1e-12)
            if t.bias is not None:
                delta = t.bias - params.tensor(name).bias
                np.testing.assert_allclose(delta, expect, rtol=1e-12)

    def test_in_place_step_is_the_out_of_place_expression_bitwise(self):
        params, _ = tiny_setup(seed=4)
        lr = 2e-3
        state = make_adam(params, lr)
        rng = np.random.default_rng(12)
        w, m, v = params.flat.copy(), state.m.copy(), state.v.copy()
        grads = params.zeros_like()
        for t in range(1, 6):
            grads.flat[...] = rng.normal(size=w.shape) * 10.0 ** rng.integers(
                -6, 3, size=w.shape)
            g = grads.flat
            adam_step(params, grads, state)
            m = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = m / (1.0 - ADAM_BETA1**t)
            v_hat = v / (1.0 - ADAM_BETA2**t)
            w = w - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            assert state.m.tobytes() == m.tobytes()
            assert state.v.tobytes() == v.tobytes()
            assert params.flat.tobytes() == w.tobytes()

    def test_missing_gradient_rejected(self):
        # a store of a smaller model lacks gradients for some entries
        params, _ = tiny_setup()
        state = make_adam(params, 1e-3)
        small = build_model(
            ArchConfig(vocab=6, dim=4, heads=1, ffn=12, classes=6, seq_len=5),
            np.random.default_rng(0),
        )
        with pytest.raises(ShapeError):
            adam_step(params, small.zeros_like(), state)


class TestDeriveSeeds:
    def test_deterministic_and_distinct(self):
        a = derive_seeds(42, 3)
        assert a == derive_seeds(42, 3)
        assert len(set(a)) == 3
        assert a != derive_seeds(43, 3)


class TestPlainTrain:
    def test_loss_decreases(self):
        params, data = tiny_setup(seed=7, n=128)
        report = plain_train(params, data, steps=60, learning_rate=3e-3)
        first = report.steps[0][2]
        last = report.steps[-1][2]
        assert last < first

    def test_report_rows(self):
        params, data = tiny_setup()
        report = plain_train(params, data, steps=3, learning_rate=1e-3)
        assert len(report.steps) == 3
        step, lam, pred, pen, mixed = report.steps[0]
        assert step == 1
        assert lam == 0.0
        assert pen == 0.0
        assert mixed == pred

    def test_empty_dataset(self):
        # an empty dataset, here rows of no tokens, cannot be built, so no
        # phase trains on one
        with pytest.raises(DataError, match="empty"):
            Dataset(np.zeros((4, 0)), np.zeros(4), 16)

    def test_batches_cycle_in_order_with_a_short_last_batch(self):
        params, data = tiny_setup(seed=3, n=70)
        data = Dataset(data.token_ids, data.labels, 32)
        expect = params.clone()
        report = plain_train(params, data, steps=4, learning_rate=1e-3)
        assert report.hyper["batch_size"] == 32

        state = make_adam(expect, 1e-3)
        grads = expect.zeros_like()
        for lo, hi in ((0, 32), (32, 64), (64, 70), (0, 32)):
            _, grads = loss_and_gradients(expect, data.token_ids[lo:hi],
                                          data.labels[lo:hi], grads)
            adam_step(expect, grads, state)
        assert params.flat.tobytes() == expect.flat.tobytes()


class TestReweighted:
    def test_zero_lambda_matches_plain_training_bitwise(self):
        cfg = tiny_config(lambda_max=0.0, milestones=(), t1=30)
        params_a, data = tiny_setup(seed=9, n=96)
        params_b = params_a.clone()

        plain_train(params_a, data, steps=30,
                    learning_rate=cfg.rw_learning_rate)
        params_b, _, _ = reweighted_train(params_b, data, cfg)

        assert params_a.flat.tobytes() == params_b.flat.tobytes()

    def test_gamma_history_one_snapshot_per_milestone(self):
        cfg = tiny_config()
        params, data = tiny_setup(seed=8, n=64)
        _, history, _ = reweighted_train(params, data, cfg)
        assert len(history) == 1 + len(cfg.milestones)
        assert history[0]["Wq"].update_count == 1
        assert history[-1]["Wq"].update_count == 1 + len(cfg.milestones)

    def test_lambda_ramps_linearly_then_holds(self):
        cfg = tiny_config(lambda_max=8e-4, lambda_warmup_steps=4, t1=8,
                          milestones=())
        params, data = tiny_setup(seed=3)
        _, _, report = reweighted_train(params, data, cfg)
        lams = [row[1] for row in report.steps]
        np.testing.assert_allclose(
            lams, [2e-4, 4e-4, 6e-4, 8e-4, 8e-4, 8e-4, 8e-4, 8e-4],
            rtol=1e-12,
        )

    def test_mixed_loss_is_sum_of_parts(self):
        cfg = tiny_config()
        params, data = tiny_setup(seed=4)
        _, _, report = reweighted_train(params, data, cfg)
        for _, _, pred, pen, mixed in report.steps:
            np.testing.assert_allclose(mixed, pred + pen, rtol=1e-12)
            assert pen >= 0.0

    @pytest.mark.parametrize("lambda_max,steps", [(1e-3, 6), (0.0, 0)])
    def test_penalty_called_once_per_layer_per_step(self, monkeypatch,
                                                    lambda_max, steps):
        # the benchmark's tracer times the penalty by rebinding
        # regularizer.penalty in every package module that holds it; a
        # step that stops calling it would drop out of the trace
        seen = []
        original = regularizer.penalty

        def counted(*args, **kwargs):
            seen.append(args[1].layer_name)
            return original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key.startswith("blockprune"):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        params, data = tiny_setup()
        cfg = tiny_config(t1=6, milestones=(3,), lambda_max=lambda_max)
        reweighted_train(params, data, cfg)
        assert seen == ["Wq", "ffn_in"] * steps


class TestRetrain:
    def test_masked_entries_stay_zero(self):
        cfg = tiny_config()
        params, data = tiny_setup(seed=6, n=64)
        masks = prune_model(params, cfg.prune_spec)
        _, report = retrain(params, masks, data, cfg)
        assert len(report.masked_abs_max) == cfg.t2
        assert all(v == 0.0 for v in report.masked_abs_max)
        for name, mask in masks.items():
            w = params.tensor(name).matrix
            assert np.count_nonzero(w * (1 - mask.bits)) == 0

    def test_sparsity_is_preserved_every_step(self):
        cfg = tiny_config()
        params, data = tiny_setup(seed=6, n=64)
        masks = prune_model(params, cfg.prune_spec)
        expect = sum(int((1 - m.bits).sum()) for m in masks.values()) / sum(
            m.bits.size for m in masks.values()
        )
        _, report = retrain(params, masks, data, cfg)
        np.testing.assert_allclose(report.masked_sparsity, expect, rtol=0)

    def test_retrain_without_masks_is_plain_adam(self):
        cfg = tiny_config(t2=30)
        params_a, data = tiny_setup(seed=9, n=96)
        params_b = params_a.clone()

        plain_train(params_a, data, steps=30, learning_rate=cfg.learning_rate)
        params_b, _ = retrain(params_b, {}, data, cfg)

        assert params_a.flat.tobytes() == params_b.flat.tobytes()

    def test_shape_mismatch_rejected(self):
        cfg = tiny_config()
        params, data = tiny_setup(seed=6)
        other = build_model(
            ArchConfig(vocab=6, dim=16, heads=1, ffn=12, classes=6, seq_len=5),
            np.random.default_rng(0),
        )
        masks = prune_model(other, PruneSpec(entries=(
            PruneEntry("Wq", ROW, 4, "percentile", 0.5),
        )))
        with pytest.raises(MaskError):
            retrain(params, masks, data, cfg)


class TestConfigValidation:
    def test_milestones_must_be_increasing(self):
        with pytest.raises(ShapeError, match="milestone"):
            tiny_config(milestones=(8, 4)).validate()

    def test_milestones_must_fit_in_phase(self):
        with pytest.raises(ShapeError, match="milestone"):
            tiny_config(milestones=(30,), t1=12).validate()

    def test_negative_lambda_rejected(self):
        with pytest.raises(ShapeError):
            tiny_config(lambda_max=-1e-4).validate()

    def test_negative_seed_rejected(self):
        with pytest.raises(ShapeError, match="seed must be >= 0, got -1"):
            tiny_config(seed=-1).validate()

    def test_rw_learning_rate_falls_back(self):
        assert tiny_config(reweighted_learning_rate=None).rw_learning_rate \
            == tiny_config().learning_rate
        assert tiny_config(reweighted_learning_rate=1e-5).rw_learning_rate \
            == 1e-5


class TestPipeline:
    def test_full_run_produces_consistent_result(self, tmp_path):
        cfg = tiny_config()
        result = run_pipeline(cfg, out_dir=tmp_path / "out")
        assert set(result.reports) == {"baseline", "reweighted", "retrain"}
        assert set(result.masks) == {"Wq", "ffn_in"}
        assert 0.0 <= result.final_accuracy <= 1.0
        assert result.compression > 1.0
        for name, mask in result.masks.items():
            w = result.params.tensor(name).matrix
            assert np.count_nonzero(w * (1 - mask.bits)) == 0
        for fname in ("report_baseline.txt", "report_reweighted.txt",
                      "report_retrain.txt", "masks.txt", "summary.txt"):
            assert (tmp_path / "out" / fname).exists()
        assert (tmp_path / "out" / "checkpoint_final").is_dir()

    def test_same_seed_same_result(self):
        a = run_pipeline(tiny_config())
        b = run_pipeline(tiny_config())
        assert a.final_accuracy == b.final_accuracy
        for name, t in a.params.items():
            assert np.array_equal(t.matrix, b.params.tensor(name).matrix)

    def test_uncached_run_trains_one_store(self, monkeypatch):
        # a lone run keeps no phase's store, so it clones none
        seen = []
        for name in ("plain_train", "reweighted_train", "retrain"):
            def recorded(params, *args, original=getattr(trainer, name),
                         **kwargs):
                seen.append(params)
                return original(params, *args, **kwargs)

            monkeypatch.setattr(trainer, name, recorded)
        result = run_pipeline(tiny_config())
        assert len(seen) == 3
        assert all(params is result.params for params in seen)

    @pytest.mark.parametrize("eval_every,calls", [
        # the loop evaluates at steps 4, 8 (baseline), 4, 8, 12
        # (reweighted) and 4, 8, 10 (retrain), and each phase's accuracy
        # is the loop's last; one more evaluation follows pruning
        (4, 2 + 3 + 3 + 1),
        # no loop evaluation: after baseline, pruning and retraining
        (0, 3),
    ])
    def test_one_evaluation_per_phase_end(self, monkeypatch, eval_every,
                                          calls):
        seen = []

        def counted(params, dataset, original=trainer.evaluate):
            seen.append(original(params, dataset))
            return seen[-1]

        monkeypatch.setattr(trainer, "evaluate", counted)
        cfg = tiny_config(eval_every=eval_every)
        result = run_pipeline(cfg)
        assert len(seen) == calls
        assert result.final_accuracy == evaluate(result.params,
                                                 run_dataset(cfg, "eval"))
        assert (result.baseline_accuracy, result.final_accuracy) == (
            seen[1 if eval_every else 0], seen[-1])

    def test_errors_carry_the_phase_name(self):
        # the penalty rejects the non-prunable layer before pruning runs
        cfg = tiny_config(prune_spec=PruneSpec(entries=(
            PruneEntry("embedding", ROW, 4, "percentile", 0.5),
        )))
        with pytest.raises(ShapeError, match="reweighted phase"):
            run_pipeline(cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("part", ["matrix", "bias"])
    def test_nonfinite_tensor_is_named(self, part):
        params, data = tiny_setup()
        getattr(params.tensor("classifier"), part)[0] = np.inf
        with pytest.raises(NonFiniteError, match=(
                f"step 1; tensor 'classifier' {part} has non-finite")):
            plain_train(params, data, steps=2, learning_rate=1e-3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_nonfinite(self):
        # an absurd learning rate overflows the activations within a
        # couple of steps
        params, data = tiny_setup(seed=1)
        with pytest.raises(NonFiniteError):
            plain_train(params, data, steps=10, learning_rate=1e150)


# one change per TrainConfig field, and the first phase it reaches: the
# phase whose sharing key, and every later one's, must change with it
FIELD_CHANGES = [
    ("arch", dict(arch=dataclasses.replace(TINY, ffn=16)), "baseline"),
    ("train_samples", dict(train_samples=80), "baseline"),
    ("eval_samples", dict(eval_samples=48), "baseline"),
    ("batch_size", dict(batch_size=8), "baseline"),
    ("seed", dict(seed=6), "baseline"),
    ("baseline_steps", dict(baseline_steps=9), "baseline"),
    ("learning_rate", dict(learning_rate=2e-3), "baseline"),
    ("eval_every", dict(eval_every=2), "baseline"),
    ("prunable_overrides", dict(prunable_overrides={"embedding": True}),
     "baseline"),
    ("reweighted_learning_rate", dict(reweighted_learning_rate=5e-4),
     "reweighted"),
    ("t1", dict(t1=13), "reweighted"),
    ("milestones", dict(milestones=(4,)), "reweighted"),
    ("lambda_max", dict(lambda_max=2e-3), "reweighted"),
    ("lambda_warmup_steps", dict(lambda_warmup_steps=5), "reweighted"),
    ("prune_spec", dict(prune_spec=PruneSpec(entries=(
        PruneEntry("Wq", ROW, 2, "percentile", 0.5),
        PruneEntry("ffn_in", ROW, 4, "percentile", 0.5),
    ))), "reweighted"),
    ("prune_spec", dict(prune_spec=PruneSpec(entries=(
        PruneEntry("Wq", ROW, 4, "threshold", 0.1),
        PruneEntry("ffn_in", ROW, 4, "percentile", 0.8),
    ))), "cell"),
    ("t2", dict(t2=11), "cell"),
]


class TestPhaseKeys:
    def test_every_field_is_classified(self):
        fields = {f.name for f in dataclasses.fields(TrainConfig)}
        assert fields == {name for name, _, _ in FIELD_CHANGES}

    @pytest.mark.parametrize("name,change,phase", FIELD_CHANGES,
                             ids=[f"{n}-{p}" for n, _, p in FIELD_CHANGES])
    def test_a_field_changes_its_phase_key_and_later_ones(self, name,
                                                          change, phase):
        base = tiny_config()
        changed = tiny_config(**change)
        assert getattr(changed, name) != getattr(base, name)
        old, new = phase_keys(base), phase_keys(changed)
        first = {"baseline": 0, "reweighted": 1, "cell": 2}[phase]
        assert [a != b for a, b in zip(old, new)] == [i >= first
                                                      for i in range(2)]

    def test_effective_rw_learning_rate_is_the_key(self):
        # an explicit reweighted rate equal to the fallback runs the same
        assert phase_keys(tiny_config()) == phase_keys(
            tiny_config(reweighted_learning_rate=1e-3))
