"""Every file the package writes is replaced whole: a write that fails
partway leaves the previous file as it was and no temp file beside it."""

import os

import numpy as np
import pytest

from blockprune import errors
from blockprune.errors import CheckpointError, read_bytes, write_file
from blockprune.experiments import save_table
from blockprune.model import ArchConfig, build_model, save_checkpoint
from blockprune.numerics import ROW
from blockprune.pruner import prune_percentile, save_masks
from blockprune.regularizer import make_partition
from blockprune.sparse import save_block_structured, to_block_structured
from blockprune.trainer import (PipelineResult, RunReport, TrainConfig,
                                _emit, save_report)

TINY = ArchConfig(vocab=6, dim=8, heads=1, ffn=12, classes=4, seq_len=5)


def pruned(version):
    w = np.random.default_rng(version).normal(size=(8, 12))
    return prune_percentile(w, make_partition(8, 12, ROW, 4), 0.5)


# each writes version `v` of its file in `d` and returns the file's path
def report(d, v):
    save_report(RunReport(phase="baseline", wall_clock=float(v)),
                d / "report.txt", {"seed": v})
    return d / "report.txt"


def summary(d, v):
    result = PipelineResult(
        params=build_model(TINY, np.random.default_rng(v)), masks={},
        baseline_accuracy=0.5, pruned_accuracy=0.5, final_accuracy=0.5,
        compression=1.0, compression_all=1.0, reports={}, gamma_history=[],
        wall_clock=float(v))
    _emit(result, TrainConfig(seed=v), d)
    return d / "summary.txt"


def checkpoint(d, v):
    save_checkpoint(build_model(TINY, np.random.default_rng(v)), d, {"v": v})
    return d / "Wq.bin"


def masks(d, v):
    save_masks({"w": pruned(v)[1]}, d / "masks.txt")
    return d / "masks.txt"


def blocks(d, v):
    save_block_structured(to_block_structured(*pruned(v)), d / "w.blocks")
    return d / "w.blocks"


def table(d, v):
    save_table([{"value": v}], ["value"], d / "t.csv")
    return d / "t.csv"


WRITERS = [report, summary, checkpoint, masks, blocks, table]


def fail_halfway(monkeypatch, target):
    """The write of `target` stops halfway with a full disk; every other
    file is written as usual."""
    real = open

    class Half:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError(28, "No space left on device")

    def opener(path, *args):
        fh = real(path, *args)
        return Half(fh) if str(path).startswith(f"{target}.") else fh

    monkeypatch.setattr(errors, "open", opener, raising=False)


@pytest.mark.parametrize("write", WRITERS, ids=[w.__name__ for w in WRITERS])
def test_failed_write_keeps_the_previous_file(tmp_path, monkeypatch, write):
    target = write(tmp_path, 1)
    before = target.read_bytes()
    mode = os.stat(target).st_mode
    fail_halfway(monkeypatch, target)
    with pytest.raises(OSError, match="No space"):
        write(tmp_path, 2)
    assert target.read_bytes() == before
    assert list(tmp_path.rglob("*.tmp")) == []
    # unfailed, the same write replaces the file, keeping its mode
    monkeypatch.undo()
    assert write(tmp_path, 2).read_bytes() != before
    assert os.stat(target).st_mode == mode
    assert list(tmp_path.rglob("*.tmp")) == []


def test_write_file_takes_bytes_or_ascii_lines(tmp_path):
    write_file(tmp_path / "b", b"\x00\xff")
    write_file(tmp_path / "t", ["a = 1", "", "b"])
    assert (tmp_path / "b").read_bytes() == b"\x00\xff"
    assert (tmp_path / "t").read_bytes() == b"a = 1\n\nb\n"
    with pytest.raises(UnicodeEncodeError):
        write_file(tmp_path / "t", ["é"])
    assert (tmp_path / "t").read_bytes() == b"a = 1\n\nb\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "t"]


def test_failed_rename_removes_the_temp_file(tmp_path):
    # a directory cannot be replaced by a file
    (tmp_path / "d").mkdir()
    with pytest.raises(IsADirectoryError):
        write_file(tmp_path / "d", b"x")
    assert [p.name for p in tmp_path.iterdir()] == ["d"]


@pytest.mark.parametrize("how", ["missing", "directory", "refused"])
def test_read_bytes_names_the_path(tmp_path, request, how):
    path = tmp_path / "f"
    reason = {"missing": "No such file or directory",
              "directory": "Is a directory", "refused": "Permission denied"}
    if how == "directory":
        path.mkdir()
    elif how == "refused":
        path.write_bytes(b"x")
        request.getfixturevalue("refuse_open")
    with pytest.raises(CheckpointError) as info:
        read_bytes(path, CheckpointError)
    assert str(info.value) == f"{path}: cannot read: {reason[how]}"
