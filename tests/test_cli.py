import os
from pathlib import Path

import numpy as np
import pytest

from blockprune import sparse, trainer
from blockprune.cli import main
from blockprune.model import (
    ArchConfig,
    ModelParams,
    WeightTensor,
    build_model,
    save_checkpoint,
)
from blockprune.numerics import ROW
from blockprune.pruner import prune_percentile, save_masks
from blockprune.regularizer import make_partition

TINY_CFG = """
[model]
vocab = 6
dim = 8
ffn = 12
classes = 6
seq_len = 5

[dataset]
train_samples = 64
eval_samples = 32

[train]
seed = 5
batch_size = 16
baseline_steps = 6
learning_rate = 0.001
t1 = 8
t2 = 6
milestone_every = 4
lambda_max = 0.001
lambda_warmup_steps = 4

[prune]
layers = Wq, ffn_in
num_blocks = 4
sparsity = 0.5

[sweep.seeds]
vary = seed
values = 3, 9
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def fixture_checkpoint(tmp_path):
    """Single 8x8 tensor checkpoint plus a width-4, half-sparse mask."""
    rng = np.random.default_rng(33)
    w = rng.normal(size=(8, 8))
    part = make_partition(8, 8, ROW, 2, "w")
    _, mask = prune_percentile(w, part, 0.5)
    params = ModelParams([
        ("w", WeightTensor(matrix=w * mask.bits, role="ffn", prunable=True)),
    ])
    ck = tmp_path / "ck"
    save_checkpoint(params, ck)
    mask_path = tmp_path / "mask.txt"
    save_masks({"w": mask}, mask_path)
    return str(ck), str(mask_path)


class TestTrainCommand:
    def test_writes_outputs_and_prints_summary(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["train", "--config", cfg_path, "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "final_accuracy=" in text
        assert (out / "summary.txt").exists()
        assert (out / "masks.txt").exists()

    def test_seed_flag_overrides_config(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["train", "--config", cfg_path, "--out", str(out),
              "--seed", "21", "--verbose"])
        text = capsys.readouterr().out
        assert "train.seed: flag" in text
        assert "# seed=21" in (out / "summary.txt").read_text()

    def test_negative_config_seed_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nbatch_size = 8\nseed = -5\n")
        code = main(["train", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: {bad}:3: seed must be >= 0\n"

    def test_bad_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[train]\nnot_a_key = 1\n")
        code = main(["train", "--config", str(bad)])
        assert code == 2
        err = capsys.readouterr().err
        assert "bad.cfg:2" in err

    def test_config_directory_exits_2(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: config path is a directory: {tmp_path}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", [
        "[train]\nbatch_size = 0\n", "[dataset]\ntrain_samples = 0\n",
    ], ids=["batch_size", "train_samples"])
    def test_zero_batch_or_sample_count_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        code = main(["train", "--config", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {bad}: ")
        assert "Traceback" not in err


class TestSweepCommand:
    def test_writes_named_csv(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(["sweep", "seeds", "--config", cfg_path,
                     "--out", str(out)])
        assert code == 0
        lines = (out / "seeds.csv").read_text().splitlines()
        assert "value,accuracy,compression,wall_clock_seconds,status" in lines
        assert sum(1 for ln in lines if ln.endswith(",ok")) == 2

    def test_unknown_name_exits_2(self, cfg_path, capsys):
        assert main(["sweep", "nope", "--config", cfg_path]) == 2

    def test_sweep_without_values_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[sweep.x]\nvary = seed\nvalues =\n")
        assert main(["sweep", "x", "--config", str(bad)]) == 2
        assert "bad.cfg:1: sweep 'x' has no values" in capsys.readouterr().err

    def test_negative_seed_value_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(TINY_CFG.replace("values = 3, 9", "values = 1, -3"))
        out = tmp_path / "sw"
        code = main(["sweep", "seeds", "--config", str(bad),
                     "--out", str(out)])
        assert code == 2
        line = TINY_CFG.splitlines().index("values = 3, 9") + 1
        err = capsys.readouterr().err
        assert err == f"config error: {bad}:{line}: seed must be >= 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, cfg_path, tmp_path, capsys,
                                      workers):
        code = main(["sweep", "seeds", "--config", cfg_path,
                     "--out", str(tmp_path), "--workers", workers])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: --workers must be >= 1, got {workers}\n"

    def test_dead_worker_exits_1_without_traceback(self, cfg_path, tmp_path,
                                                  capsys, monkeypatch):
        # the forked workers inherit the patch and die in the baseline
        monkeypatch.setattr(trainer, "plain_train",
                            lambda *args, **kwargs: os._exit(1))
        code = main(["sweep", "seeds", "--config", cfg_path,
                     "--out", str(tmp_path / "sw"), "--workers", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a sweep worker process died")
        assert "Traceback" not in err
        assert not (tmp_path / "sw").exists()


class TestStorageReportCommand:
    def test_fixture_totals(self, tmp_path, capsys):
        ck, mask = fixture_checkpoint(tmp_path)
        code = main(["storage-report", "--checkpoint", ck, "--mask", mask])
        assert code == 0
        text = capsys.readouterr().out
        assert "coo total=96" in text
        assert "block_structured total=48" in text
        assert "dense total=64" in text

    def test_mismatched_mask_exits_1(self, tmp_path, capsys):
        ck, _ = fixture_checkpoint(tmp_path)
        part = make_partition(4, 4, ROW, 2, "other")
        w = np.random.default_rng(0).normal(size=(4, 4))
        other = tmp_path / "other_mask.txt"
        save_masks({"other": prune_percentile(w, part, 0.5)[1]}, other)
        code = main(["storage-report", "--checkpoint", ck,
                     "--mask", str(other)])
        assert code == 1
        assert "other" in capsys.readouterr().err

    def test_malformed_mask_pair_exits_1(self, tmp_path, capsys):
        ck, mask = fixture_checkpoint(tmp_path)
        path = tmp_path / "mask.txt"
        text = path.read_text()
        first_pair = next(ln for ln in text.splitlines()
                          if ln.startswith("zero "))
        path.write_text(text.replace(first_pair, "zero x 0"))
        code = main(["storage-report", "--checkpoint", ck, "--mask", mask])
        assert code == 1
        err = capsys.readouterr().err
        assert "mask.txt:" in err
        assert "Traceback" not in err


class TestBenchCommand:
    def test_small_grid(self, capsys):
        code = main(["bench", "--sizes", "16", "--sparsities", "0.5",
                     "--reps", "3", "--num-blocks", "4", "--out", ""])
        assert code == 0
        text = capsys.readouterr().out
        assert "format=dense" in text
        assert "format=block_structured" in text

    def test_table_records_environment(self, tmp_path, capsys):
        code = main(["bench", "--sizes", "16", "--sparsities", "0.5",
                     "--reps", "3", "--num-blocks", "4",
                     "--out", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "bench.csv").read_text().splitlines()
        meta = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# "))
        assert meta["numpy"] == np.__version__
        assert meta["blas"]
        assert int(meta["nproc"]) >= 1
        assert len(meta["spmm_cpus"].split(",")) == int(meta["nproc"])
        assert int(meta["spmm_split_macs"]) == sparse.SPLIT_MIN_MACS

    def test_too_few_reps_exits_2(self, capsys):
        assert main(["bench", "--reps", "2"]) == 2

    @pytest.mark.parametrize("flag, value, message", [
        ("--sizes", "-8", "--sizes must be >= 1, got '-8'"),
        ("--sizes", "16,0", "--sizes must be >= 1, got '16,0'"),
        ("--sparsities", "-0.2", "--sparsities must lie in [0, 1), got '-0.2'"),
        ("--sparsities", "nan", "--sparsities must lie in [0, 1), got 'nan'"),
        ("--sparsities", "0.5,inf",
         "--sparsities must lie in [0, 1), got '0.5,inf'"),
        ("--sparsities", "1", "--sparsities must lie in [0, 1), got '1'"),
        ("--num-blocks", "0", "--num-blocks must be >= 1, got 0"),
        # the default --num-blocks 8 divides 16 but not 12
        ("--sizes", "16,12", "--num-blocks 8 does not divide size 12"),
    ])
    def test_bad_grid_exits_2_before_any_work(self, tmp_path, capsys,
                                              monkeypatch, flag, value,
                                              message):
        def no_work(*args, **kwargs):
            raise AssertionError("bench ran")

        monkeypatch.setattr("blockprune.cli.bench_spmm", no_work)
        out = tmp_path / "b"
        code = main(["bench", flag, value, "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = main(["bench", "--sizes", "16", "--sparsities", "0.5",
                     "--reps", "3", "--num-blocks", "4",
                     "--out", str(blocker / "sub")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestEvalCommand:
    def test_reproduces_pipeline_accuracy(self, cfg_path, tmp_path, capsys):
        out = tmp_path / "out"
        main(["train", "--config", cfg_path, "--out", str(out)])
        trained = capsys.readouterr().out
        final = next(
            ln for ln in trained.splitlines()
            if ln.startswith("final_accuracy=")
        )
        code = main(["eval", "--config", cfg_path,
                     "--checkpoint", str(out / "checkpoint_final")])
        assert code == 0
        text = capsys.readouterr().out.strip()
        assert text == final.replace("final_", "")

    def test_missing_checkpoint_exits_1(self, capsys):
        assert main(["eval", "--checkpoint", "/no/such/dir"]) == 1

    def test_checkpoint_of_another_arch_exits_2(self, tmp_path, capsys):
        # a dim-8/ffn-12 model against the default dim-16/ffn-32 config
        arch = ArchConfig(vocab=8, dim=8, heads=1, ffn=12, classes=8,
                          seq_len=16)
        ck = tmp_path / "ck"
        save_checkpoint(build_model(arch, np.random.default_rng(0)), ck)
        code = main(["eval", "--checkpoint", str(ck)])
        assert code == 2
        err = capsys.readouterr().err
        assert str(ck) in err
        assert "model.dim" in err
        assert "Traceback" not in err

    def test_checkpoint_of_other_tensors_exits_2(self, tmp_path, capsys):
        ck, _ = fixture_checkpoint(tmp_path)
        assert main(["eval", "--checkpoint", ck]) == 2
        assert ck in capsys.readouterr().err


def damage(path: Path, how: str) -> None:
    """Put a byte that no UTF-8 or ASCII text holds at the start of the
    file's third line, or cut the file at half its length."""
    data = path.read_bytes()
    if how == "non_utf8":
        lines = data.split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
    else:
        path.write_bytes(data[:len(data) // 2])


class TestDamagedInput:
    @pytest.mark.parametrize("how", ["non_utf8", "truncated"])
    @pytest.mark.parametrize("target", [
        "train_config", "eval_checkpoint", "storage_checkpoint",
        "storage_mask",
    ])
    def test_exits_1_or_2_without_traceback(self, cfg_path, tmp_path,
                                            capsys, target, how):
        ck, mask = fixture_checkpoint(tmp_path)
        tiny = tmp_path / "tiny_ck"
        arch = ArchConfig(vocab=6, dim=8, heads=1, ffn=12, classes=6,
                          seq_len=5)
        save_checkpoint(build_model(arch, np.random.default_rng(0)), tiny)
        report = ["storage-report", "--checkpoint", ck, "--mask", mask]
        argv, path = {
            "train_config": (["train", "--config", cfg_path,
                              "--out", str(tmp_path / "out")], cfg_path),
            "eval_checkpoint": (["eval", "--config", cfg_path,
                                 "--checkpoint", str(tiny)],
                                tiny / "manifest.txt"),
            "storage_checkpoint": (report, Path(ck) / "manifest.txt"),
            "storage_mask": (report, mask),
        }[target]
        assert main(argv) == 0
        capsys.readouterr()
        # half the tiny config ends at "learning_rate = 0.0", which the
        # config rejects, so the run stops before training
        damage(Path(path), how)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert err.startswith(("error: ", "config error: "))
        if how == "non_utf8":
            assert f"{path}:3: not " in err


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--warp", "9"])
        assert exc.value.code == 2

    def test_no_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["train", "--seed", "-1"],
        ["eval", "--seed", "-2", "--checkpoint", "/no/such/dir"],
        ["bench", "--seed", "-1"],
    ], ids=["train", "eval", "bench"])
    def test_negative_seed_flag_exits_2(self, tmp_path, capsys, argv):
        value = argv[2]
        code = main([*argv, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"config error: --seed must be >= 0, got {value}\n"
        assert not (tmp_path / "out").exists()
