import threading
from dataclasses import replace

import numpy as np
import pytest

from blockprune import model, trainer
from blockprune.errors import ConfigError
from blockprune.experiments import (
    SweepSpec,
    apply_value,
    run_cells,
    save_table,
    sensitivity_scan,
    steps_per_epoch,
    sweep,
)
from blockprune.model import (ArchConfig, build_model, evaluate,
                              make_synthetic_dataset)
from blockprune.numerics import ROW
from blockprune.pruner import PruneEntry, PruneSpec
from blockprune.trainer import TrainConfig, run_pipeline

TINY = ArchConfig(vocab=6, dim=8, heads=1, ffn=12, classes=6, seq_len=5)


def tiny_config(**overrides):
    base = dict(
        arch=TINY,
        train_samples=64,
        eval_samples=32,
        batch_size=16,
        seed=5,
        baseline_steps=6,
        learning_rate=1e-3,
        t1=8,
        t2=6,
        milestones=(4,),
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


class TestApplyValue:
    def test_seed(self):
        cfg = apply_value(tiny_config(), "seed", 77)
        assert cfg.seed == 77

    def test_lambda_max(self):
        cfg = apply_value(tiny_config(), "lambda_max", 3e-4)
        assert cfg.lambda_max == 3e-4

    def test_num_blocks_rewrites_every_entry(self):
        cfg = apply_value(tiny_config(), "num_blocks", 2)
        assert all(e.num_blocks == 2 for e in cfg.prune_spec.entries)

    def test_retrain_epochs_sets_t2(self):
        base = tiny_config()
        cfg = apply_value(base, "retrain_epochs", 3)
        assert cfg.t2 == 3 * steps_per_epoch(base)

    def test_compression_rate_sets_sparsity(self):
        cfg = apply_value(tiny_config(), "compression_rate", 2.0)
        assert all(e.mode == "percentile" for e in cfg.prune_spec.entries)
        np.testing.assert_allclose(
            [e.value for e in cfg.prune_spec.entries], 0.5
        )

    def test_compression_rate_below_one_rejected(self):
        with pytest.raises(ConfigError):
            apply_value(tiny_config(), "compression_rate", 0.9)

    def test_layer_narrows_to_one_entry(self):
        cfg = apply_value(tiny_config(), "layer", "ffn_in")
        assert [e.layer_name for e in cfg.prune_spec.entries] == ["ffn_in"]

    def test_unknown_dimension(self):
        with pytest.raises(ConfigError, match="vary"):
            apply_value(tiny_config(), "warp_factor", 9)

    def test_base_config_is_not_mutated(self):
        base = tiny_config()
        apply_value(base, "num_blocks", 2)
        assert all(e.num_blocks == 4 for e in base.prune_spec.entries)


class TestSweep:
    def test_values_run_in_sorted_order(self):
        spec = SweepSpec(name="s", base=tiny_config(), vary="seed",
                         values=(9, 3))
        rows = sweep(spec)
        assert [r["value"] for r in rows] == [3, 9]
        assert all(r["status"] == "ok" for r in rows)
        assert all(0.0 <= r["accuracy"] <= 1.0 for r in rows)

    def test_failing_cell_reports_error_and_others_continue(self):
        # num_blocks 3 does not divide the 8-wide extents of this model
        spec = SweepSpec(name="s", base=tiny_config(), vary="num_blocks",
                         values=(3, 4))
        rows = sweep(spec)
        by_value = {r["value"]: r for r in rows}
        assert by_value[4]["status"] == "ok"
        assert by_value[3]["status"].startswith("error: reweighted phase:")
        assert by_value[3]["accuracy"] == ""
        # the failed cell shares the baseline with the other, and leaves
        # that cell's row as it is without it
        (alone,) = sweep(SweepSpec(name="s", base=tiny_config(),
                                   vary="num_blocks", values=(4,)))
        del alone["wall_clock_seconds"], by_value[4]["wall_clock_seconds"]
        assert by_value[4] == alone
        # a worker process's error comes back as the same row
        pooled = sweep(spec, workers=2)
        for row in pooled + rows:
            row.pop("wall_clock_seconds", None)
        assert pooled == rows

    def test_workers_do_not_change_results(self):
        spec = SweepSpec(name="s", base=tiny_config(), vary="seed",
                         values=(3, 9, 11))
        serial = sweep(spec, workers=1)
        parallel = sweep(spec, workers=3)
        for a, b in zip(serial, parallel):
            assert a["value"] == b["value"]
            assert a["accuracy"] == b["accuracy"]
            assert a["compression"] == b["compression"]

    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(name="s", base=tiny_config(), vary="seed", values=())


def same_run(a, b):
    """Two pipeline results agree bit for bit, wall clocks aside."""
    assert a.params.flat.tobytes() == b.params.flat.tobytes()
    assert list(a.masks) == list(b.masks)
    for name, mask in a.masks.items():
        assert mask.keep.tobytes() == b.masks[name].keep.tobytes()
    assert list(a.reports) == list(b.reports)
    for phase, report in a.reports.items():
        other = b.reports[phase]
        assert replace(report, wall_clock=0.0) == replace(
            other, wall_clock=0.0), phase
    assert len(a.gamma_history) == len(b.gamma_history)
    for snap_a, snap_b in zip(a.gamma_history, b.gamma_history):
        assert list(snap_a) == list(snap_b)
        for name, gamma in snap_a.items():
            assert gamma.values.tobytes() == snap_b[name].values.tobytes()
            assert gamma.update_count == snap_b[name].update_count
    assert (a.baseline_accuracy, a.pruned_accuracy, a.final_accuracy) == (
        b.baseline_accuracy, b.pruned_accuracy, b.final_accuracy)
    assert (a.compression, a.compression_all) == (
        b.compression, b.compression_all)


@pytest.fixture
def phase_calls(monkeypatch, tmp_path):
    """Count the cached phases' runs, by wrapping the functions the
    phases call. Worker processes are forked with the wrappers in place
    and append to one file; `calls()` reads the counts from it."""
    log = tmp_path / "phase_calls"
    log.touch()
    names = ("plain_train", "reweighted_train")
    for name in names:
        original = getattr(trainer, name)

        def counted(*args, original=original, name=name, **kwargs):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(name + "\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(trainer, name, counted)

    def calls():
        lines = log.read_text(encoding="ascii").split()
        return {name: lines.count(name) for name in names}

    return calls


class TestPhaseCache:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("vary,values,phases", [
        # the prune target and t2 reach neither cached phase
        ("compression_rate", (2.0, 4.0), (1, 1)),
        ("retrain_epochs", (1, 2), (1, 1)),
        # the block count sets the penalty's partitions
        ("num_blocks", (2, 4), (1, 2)),
    ])
    def test_cached_cells_equal_uncached_runs(self, vary, values, phases,
                                              workers, phase_calls):
        base = tiny_config(eval_every=3)
        configs = [apply_value(base, vary, v) for v in values]
        cached = run_cells(configs, workers)
        assert tuple(phase_calls().values()) == phases
        for cfg, got in zip(configs, cached):
            same_run(got, run_pipeline(cfg))

    def test_each_prefix_computed_once_with_workers(self, phase_calls):
        spec = SweepSpec(name="s", base=tiny_config(),
                         vary="compression_rate", values=(1.5, 2.0, 4.0))
        rows = sweep(spec, workers=3)
        assert [r["status"] for r in rows] == ["ok"] * 3
        assert phase_calls() == {"plain_train": 1, "reweighted_train": 1}
        serial = sweep(spec)
        for a, b in zip(rows, serial):
            assert (a["value"], a["accuracy"], a["compression"]) == (
                b["value"], b["accuracy"], b["compression"])

    def test_workers_fork_after_a_split_evaluate(self, monkeypatch):
        # every batch of 2 or more sequences is split over two threads,
        # here and, through the fork, in the workers
        monkeypatch.setattr(model, "PARALLEL_MIN_MACS", 0)
        monkeypatch.setattr(model, "usable_cores", lambda: 2)
        monkeypatch.setattr(model, "blas_threads", lambda: 1)
        before = threading.active_count()
        evaluate(build_model(TINY, np.random.default_rng(0)),
                 make_synthetic_dataset(1, 32, TINY.seq_len, TINY.vocab, 16))
        assert threading.active_count() == before
        configs = [tiny_config(), tiny_config(seed=6)]
        for cfg, got in zip(configs, run_cells(configs, 2)):
            same_run(got, run_pipeline(cfg))

    def test_scan_shares_baselines_by_override(self, phase_calls):
        sensitivity_scan(tiny_config(), 0.5, workers=2)
        assert phase_calls() == {"plain_train": 1, "reweighted_train": 6}
        sensitivity_scan(tiny_config(), 0.5, include_nonprunable=True)
        # embedding and classifier each train with their own override
        assert phase_calls() == {"plain_train": 1 + 3,
                                 "reweighted_train": 6 + 8}

    def test_several_prefixes_on_workers_equal_serial(self, phase_calls):
        # each block count has its own reweighted phase on one baseline
        spec = SweepSpec(name="s", base=tiny_config(eval_every=3),
                         vary="num_blocks", values=(1, 2, 4))
        rows = sweep(spec, workers=2)
        assert phase_calls() == {"plain_train": 1, "reweighted_train": 3}
        serial = sweep(spec)
        for row in rows + serial:
            assert row["status"] == "ok"
            del row["wall_clock_seconds"]
        assert rows == serial
        for row in rows:
            alone = run_pipeline(apply_value(spec.base, "num_blocks",
                                             row["value"]))
            assert (row["accuracy"], row["compression"]) == (
                alone.final_accuracy, alone.compression)


class TestSensitivity:
    def test_one_row_per_prunable_layer(self):
        rows = sensitivity_scan(tiny_config(), 0.5)
        assert [r["layer"] for r in rows] == [
            "Wq", "Wk", "Wv", "Wo", "ffn_in", "ffn_out",
        ]
        assert all(r["status"] == "ok" for r in rows)

    def test_include_nonprunable_adds_embedding_and_classifier(self):
        rows = sensitivity_scan(tiny_config(), 0.5, include_nonprunable=True)
        layers = [r["layer"] for r in rows]
        assert layers[0] == "embedding"
        assert layers[-1] == "classifier"

    def test_ratio_out_of_range(self):
        with pytest.raises(ConfigError):
            sensitivity_scan(tiny_config(), 1.0)


class TestSaveTable:
    def test_format_and_reload(self, tmp_path):
        rows = [
            {"a": 1, "b": 0.30000000000000004, "c": "ok"},
            {"a": 2, "b": None, "c": "error: x, y"},
        ]
        path = tmp_path / "t.csv"
        save_table(rows, ["a", "b", "c"], path, meta={"seed": 5})
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed=5"
        assert lines[1] == "a,b,c"
        assert lines[2].split(",")[1] == "0.30000000000000004"
        # commas inside a cell are replaced so the table stays parseable
        assert lines[3].count(",") == 2
        assert float(lines[2].split(",")[1]) == 0.30000000000000004
