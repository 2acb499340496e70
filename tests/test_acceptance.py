"""Acceptance checks for the whole package.

Each test verifies one numbered claim end to end: exact storage and
compression arithmetic, gradient fidelity against finite differences,
bitwise training equivalences, pruning exactness against a sort oracle,
kernel agreement and speed, accuracy trends on the synthetic task, the
reweighting effect on small group norms, and file round-trips. Outcomes
are recorded in RESULTS so conftest.py can print one line per claim at
the end of the run.

Pipeline-level checks share full training runs, computed together on
first use with shared phases, so this file takes a minute or two;
everything is deterministic apart from the wall-clock measurements.
"""

import re
import time

import numpy as np

from blockprune.cli import main as cli_main
from blockprune.experiments import run_cells
from blockprune.model import (
    ArchConfig,
    ModelParams,
    WeightTensor,
    build_model,
    backward,
    forward,
    load_checkpoint,
    loss,
    make_synthetic_dataset,
    save_checkpoint,
)
from blockprune.numerics import (
    COLUMN,
    ROW,
    as_matrix,
    make_rng,
    matmul,
)
from blockprune.pruner import (
    PruneEntry,
    PruneSpec,
    compression_rate,
    load_masks,
    prune_model,
    prune_percentile,
    prune_threshold,
    save_masks,
    zeroed_pairs,
)
from blockprune.regularizer import (
    gamma_update,
    group_norms,
    make_partition,
    penalty,
    penalty_grad,
)
from blockprune.sparse import (
    bench_spmm,
    densify,
    load_block_structured,
    save_block_structured,
    spmm,
    to_block_structured,
)
from blockprune.trainer import (
    TrainConfig,
    baseline_phase,
    plain_train,
    retrain,
    reweighted_phase,
    reweighted_train,
)
from oracles import finite_diff_gradient

RESULTS: list[tuple[int, str, bool]] = []

PRUNABLE = ("Wq", "Wk", "Wv", "Wo", "ffn_in", "ffn_out")


class _Record:
    def __init__(self, number: int, label: str):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        RESULTS.append((self.number, self.label, exc_type is None))
        return False


def criterion(number: int, label: str) -> _Record:
    return _Record(number, label)


def _spec(num_blocks: int, target: float) -> PruneSpec:
    return PruneSpec(
        entries=tuple(
            PruneEntry(
                layer_name=name, axis=ROW, num_blocks=num_blocks,
                mode="percentile", value=target,
            )
            for name in PRUNABLE
        )
    )


def _config(seed: int = 42, num_blocks: int = 8, target: float = 0.5,
            t2: int = 2500) -> TrainConfig:
    """A run at the shipped hyperparameters."""
    return TrainConfig(
        seed=seed, baseline_steps=3750, learning_rate=1e-3,
        reweighted_learning_rate=3e-4, t1=8000, t2=t2,
        milestones=tuple(range(100, 8000, 100)), lambda_max=1e-4,
        lambda_warmup_steps=200, eval_every=0,
        prune_spec=_spec(num_blocks, target),
    )


# (seed, num_blocks, target, t2) of every run the trend checks read:
# the compression, block-count, retrain and seed sweeps through the
# default design point
_CELL_KEYS = (
    [(42, 8, target, 2500) for target in (0.3, 0.5, 0.8)]
    + [(42, k, 0.5, 2500) for k in (2, 4, 16)]
    + [(42, 8, 0.5, epochs * 625) for epochs in (8, 16)]
    + [(seed, 8, 0.5, 2500) for seed in (1, 1000, 5000)]
)
_CELLS: dict[tuple, object] = {}


def cell(seed: int = 42, num_blocks: int = 8, target: float = 0.5,
         t2: int = 2500):
    """One full pipeline run at the shipped hyperparameters.

    The trend checks below revisit the same design point from several
    sweeps, so the first call runs every cell they read in one
    `run_cells` call on two workers: cells of one seed train one
    baseline, and cells of one seed and block count one reweighted
    phase.
    """
    if not _CELLS:
        outcomes = run_cells([_config(*key) for key in _CELL_KEYS], 2)
        _CELLS.update(zip(_CELL_KEYS, outcomes))
    result = _CELLS[(seed, num_blocks, target, t2)]
    if isinstance(result, Exception):
        raise result
    return result


def _arrays(store: ModelParams):
    """(label, array) for every matrix and bias, in layout order."""
    for name, t in store.items():
        yield name, t.matrix
        if t.bias is not None:
            yield f"{name} bias", t.bias


def test_storage_totals_on_the_half_sparse_fixture(tmp_path, capsys):
    with criterion(1, "storage totals: coo 96, block-structured 48"):
        rng = make_rng(90)
        w = as_matrix(rng.normal(size=(8, 8)))
        part = make_partition(8, 8, ROW, 2, layer_name="w")
        pruned, mask = prune_percentile(w, part, 0.5)
        params = ModelParams(
            [("w", WeightTensor(matrix=pruned, role="ffn", prunable=True))]
        )
        ck = tmp_path / "ck"
        save_checkpoint(params, str(ck))
        mask_file = tmp_path / "mask.txt"
        save_masks({"w": mask}, str(mask_file))

        started = time.perf_counter()
        code = cli_main(
            ["storage-report", "--checkpoint", str(ck), "--mask", str(mask_file)]
        )
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 0
        assert int(re.search(r"coo total=(\d+)", out).group(1)) == 96
        assert int(re.search(r"block_structured total=(\d+)", out).group(1)) == 48
        assert elapsed < 1.0


def test_compression_rates_at_the_reference_sparsities():
    with criterion(2, "compression 1.428x (within 1e-3), 2x and 5x exact"):
        rng = make_rng(91)
        w = rng.normal(size=(5, 8))
        # 10 width-4 segments, so the three sparsities zero 3, 5 and 8
        part = make_partition(5, 8, ROW, 2)
        rates = {}
        for target in (0.30, 0.50, 0.80):
            _, mask = prune_percentile(w, part, target)
            rates[target] = compression_rate(mask)
        assert abs(rates[0.30] - 1.428) <= 0.001
        assert rates[0.50] == 2.0
        assert rates[0.80] == 5.0


def test_analytic_gradients_match_central_differences():
    with criterion(3, "model and penalty gradients match finite differences"):
        started = time.perf_counter()
        arch = ArchConfig(vocab=6, dim=8, heads=1, ffn=12, classes=6, seq_len=5)
        accepted = 0
        seed = 0
        while accepted < 5:
            seed += 1
            params = build_model(arch, make_rng(seed))
            batch = make_synthetic_dataset(
                seed + 500, 8, arch.seq_len, arch.vocab, batch_size=8
            )
            logits, cache = forward(params, batch.token_ids)
            if np.abs(cache.U).min() < 1e-3:
                # margin to the relu kink must dominate the probe step
                continue
            analytic = backward(params, cache, batch.labels,
                                params.zeros_like())
            assert analytic.flat.shape == params.flat.shape
            for (key, live), (_, want) in zip(_arrays(params),
                                              _arrays(analytic)):
                keep = live.copy()

                def through(x, live=live, keep=keep):
                    np.copyto(live, x)
                    lg, _ = forward(params, batch.token_ids)
                    value = loss(lg, batch.labels)
                    np.copyto(live, keep)
                    return value

                fd = finite_diff_gradient(through, live, 1e-5)
                scale = np.abs(fd).max() + 1e-12
                assert np.abs(want - fd).max() / scale < 1e-4, key
            accepted += 1

        for seed in range(5):
            rng = make_rng(200 + seed)
            w = as_matrix(rng.normal(size=(8, 16)))
            part = make_partition(8, 16, ROW, 4)
            assert group_norms(w, part).min() > 0.1
            gamma = gamma_update(w, part)
            lam = 1e-4
            fd = finite_diff_gradient(
                lambda x: penalty(x, part, gamma, lam), w, 1e-5
            )
            analytic = penalty_grad(w, part, gamma, lam)
            scale = np.abs(fd).max() + 1e-12
            assert np.abs(analytic - fd).max() / scale < 1e-4
        assert time.perf_counter() - started < 60.0


def test_zero_lambda_training_is_bitwise_plain_adam():
    with criterion(4, "lambda 0 is bitwise plain Adam; retrain keeps zeros"):
        arch = ArchConfig(vocab=6, dim=8, heads=1, ffn=12, classes=6, seq_len=5)
        base = build_model(arch, make_rng(7))
        ds = make_synthetic_dataset(8, 256, arch.seq_len, arch.vocab, batch_size=8)
        spec = _spec(2, 0.5)
        cfg = TrainConfig(
            arch=arch, train_samples=256, eval_samples=8, batch_size=8,
            seed=7, baseline_steps=0, learning_rate=1e-3, t1=200, t2=500,
            milestones=(), lambda_max=0.0, eval_every=0, prune_spec=spec,
        )

        a = base.clone()
        b = base.clone()
        reweighted_train(a, ds, cfg)
        plain_train(b, ds, 200, 1e-3)
        assert a.flat.tobytes() == b.flat.tobytes()

        params = base.clone()
        plain_train(params, ds, 50, 1e-3)
        masks = prune_model(params, spec)
        _, report = retrain(params, masks, ds, cfg)
        assert len(report.masked_abs_max) == 500
        assert all(value == 0.0 for value in report.masked_abs_max)


def test_percentile_matches_the_sort_oracle():
    with criterion(5, "percentile pruning matches the sort oracle"):
        rng = make_rng(92)
        for case in range(100):
            k = int(rng.choice([1, 2, 3, 4, 6, 8]))
            width = int(rng.choice([1, 2, 3, 4]))
            groups = int(rng.integers(3, 13))
            axis = ROW if int(rng.integers(2)) == 0 else COLUMN
            span = k * width
            rows, cols = (groups, span) if axis == ROW else (span, groups)
            if case % 10 == 0:
                # identical segments force the lexicographic tie rule
                v = np.tile(np.arange(1.0, width + 1.0), (groups, k))
            else:
                v = rng.normal(size=(groups, span))
            w = v if axis == ROW else v.T.copy()
            target = float(rng.uniform(0.0, 1.0 - 1e-9))
            part = make_partition(rows, cols, axis, k)
            pruned, mask = prune_percentile(w, part, target)
            assert np.array_equal(pruned, w * mask.bits)

            m = int(np.floor(target * groups * k))
            ranked = sorted(
                (float(np.linalg.norm(v[g, b * width:(b + 1) * width])), g, b)
                for g in range(groups)
                for b in range(k)
            )
            expected = sorted((g, b) for _, g, b in ranked[:m])
            assert expected == zeroed_pairs(mask)

        # threshold at the m-th smallest norm picks the same segments
        for case in range(20):
            groups, k, width = 6, 4, 3
            w = rng.normal(size=(groups, k * width))
            part = make_partition(groups, k * width, ROW, k)
            norms = np.sort(group_norms(w, part).ravel())
            n = norms.size
            assert np.unique(norms).size == n
            for m in (0, 3, 12, n - 1):
                t = 0.0 if m == 0 else float(norms[m - 1])
                _, by_threshold = prune_threshold(w, part, t)
                _, by_percentile = prune_percentile(w, part, (m + 0.5) / n)
                assert np.array_equal(by_threshold.bits, by_percentile.bits)


def test_block_kernel_agrees_with_dense_and_wins_at_high_sparsity():
    with criterion(6, "spmm within 1e-10 of dense and faster at 0.8/1024"):
        rng = make_rng(93)
        for n in (64, 256, 512):
            for target in (0.3, 0.5, 0.8):
                for axis in (ROW, COLUMN):
                    w = rng.normal(size=(n, n))
                    part = make_partition(n, n, axis, 8)
                    pruned, mask = prune_percentile(w, part, target)
                    block = to_block_structured(pruned, mask)
                    b = rng.normal(size=(n, 64))
                    dense = matmul(densify(block), b)
                    assert np.abs(spmm(block, b) - dense).max() <= 1e-10

        rows = bench_spmm([1024], [0.8], repetitions=3)
        median = {row["format"]: row["median_seconds"] for row in rows}
        assert median["block_structured"] < median["dense"]


def test_accuracy_holds_through_moderate_compression():
    with criterion(7, "baseline >= 0.90, <= 5 points lost at 1.428x and 2x"):
        light = cell(target=0.3)
        half = cell(target=0.5)
        heavy = cell(target=0.8)
        baseline = half.baseline_accuracy
        assert baseline >= 0.90
        assert light.final_accuracy >= baseline - 0.05
        assert half.final_accuracy >= baseline - 0.05
        # heavier pruning may not beat lighter pruning by more than noise
        assert heavy.final_accuracy <= half.final_accuracy + 0.01
        assert half.final_accuracy <= light.final_accuracy + 0.01
        assert light.wall_clock + half.wall_clock + heavy.wall_clock < 900.0


def test_granularity_retraining_and_seed_trends():
    with criterion(8, "block-count and retrain trends hold, seed spread < 3"):
        by_blocks = [cell(num_blocks=k).final_accuracy for k in (2, 4, 8, 16)]
        improved = sum(b >= a for a, b in zip(by_blocks, by_blocks[1:]))
        assert improved >= 2, by_blocks

        steps_per_epoch = 20000 // 32
        by_epochs = [
            cell(t2=epochs * steps_per_epoch).final_accuracy
            for epochs in (4, 8, 16)
        ]
        assert all(b >= a for a, b in zip(by_epochs, by_epochs[1:])), by_epochs

        by_seed = [cell(seed=s).final_accuracy for s in (42, 1, 1000, 5000)]
        assert max(by_seed) - min(by_seed) < 0.03, by_seed


def test_penalty_concentrates_small_group_norms():
    with criterion(9, "penalty halves bottom-30% norms; plain training does not"):
        cfg = _config(t2=0)
        params, _, _, ds, eval_ds = baseline_phase(cfg)
        penalized = reweighted_phase(cfg, params.clone(), ds, eval_ds)[0]

        parts = {
            name: make_partition(*params.tensor(name).matrix.shape, ROW, 8)
            for name in PRUNABLE
        }

        def norms_of(p):
            return np.concatenate(
                [group_norms(p.tensor(n).matrix, parts[n]).ravel()
                 for n in PRUNABLE]
            )

        start = norms_of(params)
        cut = max(1, int(np.floor(0.30 * start.size)))
        bottom = np.argsort(start, kind="stable")[:cut]
        before = float(start[bottom].mean())

        after_penalty = float(norms_of(penalized)[bottom].mean())

        control = params.clone()
        plain_train(control, ds, cfg.t1, cfg.rw_learning_rate)
        after_plain = float(norms_of(control)[bottom].mean())

        assert after_penalty < 0.5 * before, (before, after_penalty)
        assert after_plain > 0.8 * before, (before, after_plain)


def test_files_round_trip_bit_exactly(tmp_path):
    with criterion(10, "checkpoint, mask and block files round-trip bitwise"):
        rng = make_rng(94)
        for i in range(50):
            vocab = int(rng.integers(4, 9))
            arch = ArchConfig(
                vocab=vocab, dim=int(rng.choice([8, 16])), heads=1,
                ffn=int(rng.choice([8, 12, 16])), classes=vocab,
                seq_len=int(rng.integers(4, 9)),
            )
            params = build_model(arch, make_rng(1000 + i))
            ck = tmp_path / f"ck{i}"
            save_checkpoint(params, str(ck))
            loaded = load_checkpoint(str(ck))
            assert loaded.names() == params.names()
            assert loaded.flat.tobytes() == params.flat.tobytes()

            name = "ffn_in"
            w = params.tensor(name).matrix
            axis = ROW if i % 2 == 0 else COLUMN
            k = int(rng.choice([2, 4]))
            target = float(rng.uniform(0.0, 0.9))
            part = make_partition(*w.shape, axis, k, layer_name=name)
            pruned, mask = prune_percentile(w, part, target)

            mask_file = tmp_path / f"m{i}.txt"
            save_masks({name: mask}, str(mask_file))
            back = load_masks(str(mask_file))
            assert back[name].bits.tobytes() == mask.bits.tobytes()
            assert back[name].partition == mask.partition

            block_file = tmp_path / f"b{i}.blk"
            block = to_block_structured(pruned, mask)
            save_block_structured(block, str(block_file))
            got = load_block_structured(str(block_file))
            assert densify(got).tobytes() == pruned.tobytes()
            assert np.array_equal(got.retained, block.retained)
