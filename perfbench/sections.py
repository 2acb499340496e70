"""The benchmark's sections: training pipeline, compression sweep,
serving a pruned model, and the block-kernel table.

Every section drives the package the way a user does, from outside:
the pipeline and the sweep through `blockprune.cli.main`, serving
through the library functions. Each looks the function up on its module
at call time, so a `Tracer` installed around module attributes sees the
calls. Every timed operation and every output check is counted in a
`Ledger`; a failed check is a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import blockprune.cli
import blockprune.config
import blockprune.model
import blockprune.numerics
import blockprune.pruner
import blockprune.regularizer
import blockprune.sparse

STEP_KEYS = ("baseline_steps", "t1", "t2")
SWEEP = "compression"  # the [sweep.NAME] section of configs/default.cfg
SERVE_SPARSITY = 0.8
KERNEL_SPARSITIES = (0.5, 0.8, 0.95)
AXES = ("row", "column")
NUM_BLOCKS = 8
BATCH = 32
SPMM_TOLERANCE = 1e-10  # acceptance criterion 6


@dataclass(frozen=True)
class Scale:
    step_divisor: int  # divides the step counts of configs/default.cfg
    serve_dim: int
    serve_ffn: int
    serve_seq: int
    serve_batches: int  # batches of BATCH sequences per serve request
    pack_reps: int  # pack/save/load passes per serve round
    kernel_n: int  # kernel weights are kernel_n x kernel_n, operand too
    oracle_n: int  # size of the bit-exact check against numerics.matmul


SCALES = {
    "full": Scale(step_divisor=4, serve_dim=256, serve_ffn=1024, serve_seq=128,
                  serve_batches=2, pack_reps=10, kernel_n=1024, oracle_n=64),
    "tiny": Scale(step_divisor=100, serve_dim=32, serve_ffn=64, serve_seq=16,
                  serve_batches=1, pack_reps=2, kernel_n=64, oracle_n=16),
}


class Ledger:
    """Operations attempted and failed, checks included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self) -> None:
        self.attempted += 1

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def merge(self, other: dict) -> None:
        """Add the counts of another ledger, given as its `vars()`."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.failures.extend(other["failures"])


def units(budget_s: float, min_units: int):
    """Unit indices until the budget is spent and min_units are done."""
    start = time.perf_counter()
    i = 0
    while i < min_units or time.perf_counter() - start < budget_s:
        yield i
        i += 1


def scaled_config(text: str, divisor: int) -> tuple[str, dict[str, int]]:
    """configs/default.cfg with its three step counts divided."""
    steps = {}
    lines = []
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep and key.strip() in STEP_KEYS:
            steps[key.strip()] = int(value) // divisor
            line = f"{key.strip()} = {steps[key.strip()]}"
        lines.append(line)
    if set(steps) != set(STEP_KEYS):
        raise ValueError(f"config lacks one of {STEP_KEYS}")
    return "\n".join(lines) + "\n", steps


def sweep_values(text: str, name: str) -> list[str]:
    """The `values` line of a [sweep.NAME] section, as written."""
    section = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == f"[sweep.{name}]" and line.startswith("values"):
            return [v.strip() for v in line.partition("=")[2].split(",")]
    raise ValueError(f"config has no [sweep.{name}] values")


@dataclass
class KernelCase:
    axis: str
    dense: np.ndarray  # pruned weight, densified
    block: object  # BlockStructuredMatrix
    b: np.ndarray

    @property
    def computed_flops(self) -> int:
        """2 x retained values x operand columns (computed, not measured)."""
        return 2 * int(self.block.values.size) * self.b.shape[1]

    @property
    def computed_bytes(self) -> int:
        """Each stored value and index read once, each referenced operand
        row read once, the output written once (computed, 8-byte words)."""
        blk = self.block
        width = blk.partition.block_width
        if self.axis == "row":
            starts = np.unique(blk.retained[:, 1]) * width
            rows_read = np.unique((starts[:, None] + np.arange(width)).ravel()).size
        else:
            rows_read = np.unique(blk.retained[:, 0]).size
        words = blk.values.size + 2 * blk.retained_count
        words += (rows_read + blk.rows) * self.b.shape[1]
        return 8 * words


def kernel_cases(seed: int, n: int, sparsity: float) -> list[KernelCase]:
    """One random n x n weight pruned on each axis, one n x n operand."""
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, 2, round(sparsity * 1000), n])
    )
    w = rng.normal(size=(n, n))
    b = rng.normal(size=(n, n))
    cases = []
    for axis in AXES:
        part = blockprune.regularizer.make_partition(n, n, axis, NUM_BLOCKS)
        pruned, mask = blockprune.pruner.prune_percentile(w, part, sparsity)
        block = blockprune.sparse.to_block_structured(pruned, mask)
        cases.append(KernelCase(axis, pruned, block, b))
    return cases


@dataclass
class Inputs:
    seed: int
    work: Path
    config_path: str
    steps: dict[str, int]  # per phase, as written to the config
    cells: int  # values of the benchmarked sweep
    serve_params: object  # pruned ModelParams at serving size
    serve_masks: dict
    serve_batches: list
    kernels: list[KernelCase]  # SERVE_SPARSITY, one per axis


def prepare(root: Path, work: Path, seed: int, scale: Scale) -> Inputs:
    """Set-up: config resolution, serving dataset and model, operands."""
    work.mkdir(parents=True, exist_ok=True)
    text = (root / "configs" / "default.cfg").read_text(encoding="ascii")
    scaled, steps = scaled_config(text, scale.step_divisor)
    config_path = work / "bench.cfg"
    config_path.write_text(scaled, encoding="ascii")
    # resolved as `blockprune train` does; the section runs reread the file
    raw = blockprune.config.parse_config(str(config_path))
    blockprune.config.resolve_settings(raw, {"train.seed": seed})

    model = blockprune.model
    arch = model.ArchConfig(vocab=8, dim=scale.serve_dim, heads=1,
                            ffn=scale.serve_ffn, classes=8,
                            seq_len=scale.serve_seq)
    params = model.build_model(
        arch, np.random.default_rng(np.random.SeedSequence([seed, 0]))
    )
    spec = blockprune.pruner.PruneSpec(entries=tuple(
        blockprune.pruner.PruneEntry(name, "row", NUM_BLOCKS, "percentile",
                                     SERVE_SPARSITY)
        for name, t in params.items() if t.prunable
    ))
    masks = blockprune.pruner.prune_model(params, spec)
    data_seed = int(np.random.SeedSequence([seed, 1]).generate_state(1)[0])
    batches = model.make_synthetic_dataset(
        data_seed, BATCH * scale.serve_batches, scale.serve_seq, 8, BATCH
    )
    return Inputs(
        seed=seed, work=work, config_path=str(config_path), steps=steps,
        cells=len(sweep_values(scaled, SWEEP)),
        serve_params=params, serve_masks=masks, serve_batches=batches,
        kernels=kernel_cases(seed, scale.kernel_n, SERVE_SPARSITY),
    )


def call_cli(argv: list[str]) -> tuple[int, str]:
    """`blockprune ARGV` in process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = blockprune.cli.main(argv)
    return code, out.getvalue()


def read_values(source: Path | list[str]) -> dict[str, str]:
    """Single `key=value` lines of an output file, '# ' prefixes stripped."""
    if isinstance(source, Path):
        source = source.read_text(encoding="ascii").splitlines()
    values = {}
    for line in source:
        key, sep, value = line.lstrip("# ").partition("=")
        if sep and " " not in key and " " not in value:
            values[key] = value
    return values


def read_table(path: Path) -> list[dict[str, str]]:
    lines = [
        ln for ln in path.read_text(encoding="ascii").splitlines()
        if ln and not ln.startswith("#")
    ]
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def pruned_entries_are_positive_zero(out: Path) -> bool:
    params = blockprune.model.load_checkpoint(str(out / "checkpoint_final"))
    masks = blockprune.pruner.load_masks(str(out / "masks.txt"))
    for name, mask in masks.items():
        vals = params.tensor(name).matrix[mask.bits == 0.0]
        if np.any(vals != 0.0) or np.any(np.signbit(vals)):
            return False
    return bool(masks)


# ---------------------------------------------------------------------------
# sections: `unit(i)` runs and checks one timed unit, `finish()` runs the
# section's closing checks; results accumulate in the section object. A
# section that can run as another workload's probe names in RESULTS the
# attributes that hold them


class TrainSection:
    """`blockprune train`, repeated at one seed."""

    RESULTS = ("walls", "steps_per_s", "final_accuracy")

    def __init__(self, inp: Inputs, ledger: Ledger, scale: Scale,
                 workers: int):
        self.inp = inp
        self.ledger = ledger
        self.walls: list[float] = []
        self.steps_per_s: list[float] = []
        self.final_accuracy: float | None = None

    def unit(self, i: int) -> None:
        inp, ledger = self.inp, self.ledger
        seed = str(inp.seed)
        out = inp.work / f"train-{i}"
        argv = ["train", "--config", inp.config_path, "--seed", seed,
                "--out", str(out)]
        t0 = time.perf_counter()
        code, _ = call_cli(argv)
        wall = time.perf_counter() - t0
        ledger.op()
        ledger.check(code == 0, f"train run {i} exited {code}")
        if code != 0:
            return
        summary = read_values(out / "summary.txt")
        phase_wall = 0.0
        steps = 0
        for phase in ("baseline", "reweighted", "retrain"):
            lines = (out / f"report_{phase}.txt").read_text(
                encoding="ascii").splitlines()
            steps += sum(1 for ln in lines if ln.startswith("step="))
            phase_wall += float(read_values(lines)["wall_clock_seconds"])
        ledger.check(steps == sum(inp.steps.values()),
                     f"train run {i} reported {steps} steps")
        ledger.check(float(summary["compression_prunable"]) == 2.0,
                     f"train run {i} compression_prunable "
                     f"{summary['compression_prunable']}")
        ledger.check(pruned_entries_are_positive_zero(out),
                     f"train run {i} has pruned entries that are not +0.0")
        accuracy = float(summary["final_accuracy"])
        code, printed = call_cli(["eval", "--checkpoint",
                                  str(out / "checkpoint_final"),
                                  "--config", inp.config_path, "--seed", seed])
        ledger.check(code == 0 and f"accuracy={accuracy!r}" in printed,
                     f"train run {i} checkpoint does not reproduce "
                     f"final_accuracy {accuracy!r}")
        if self.final_accuracy is None:
            self.final_accuracy = accuracy
        ledger.check(accuracy == self.final_accuracy,
                     f"train run {i} final_accuracy {accuracy!r} differs "
                     f"from {self.final_accuracy!r} at the same seed")
        self.walls.append(wall)
        self.steps_per_s.append(steps / phase_wall)
        shutil.rmtree(out)

    def finish(self) -> None:
        pass


def _outcome(rows: list[dict]) -> list[tuple]:
    return [(r["value"], r["accuracy"], r["compression"], r["status"])
            for r in rows]


class SweepSection:
    """`blockprune sweep compression --workers W`; `finish` runs it once
    serially and compares every timed sweep's rows with that run's."""

    def __init__(self, inp: Inputs, ledger: Ledger, scale: Scale,
                 workers: int):
        self.inp = inp
        self.ledger = ledger
        self.workers = workers
        steps = inp.steps
        self.cells = inp.cells
        self.steps_per_cell = sum(steps.values())
        # the penalty depends on the partitions, not on the target
        # sparsity, so the cells share their baseline and reweighted
        # phases and differ only in retraining (computed, not measured)
        self.steps_unique = (steps["baseline_steps"] + steps["t1"]
                             + inp.cells * steps["t2"])
        self.walls: list[float] = []
        self.serial_cell_walls: list[float] = []
        self.final_accuracy: float | None = None
        self.tables: list[list[dict]] = []

    def _run(self, workers: int, tag: str) -> tuple[int, float, list]:
        inp = self.inp
        out = inp.work / f"sweep-{tag}"
        argv = ["sweep", SWEEP, "--config", inp.config_path,
                "--seed", str(inp.seed), "--workers", str(workers),
                "--out", str(out)]
        t0 = time.perf_counter()
        code, _ = call_cli(argv)
        wall = time.perf_counter() - t0
        rows = read_table(out / f"{SWEEP}.csv") if code == 0 else []
        shutil.rmtree(out, ignore_errors=True)
        return code, wall, rows

    def unit(self, i: int) -> None:
        ledger = self.ledger
        code, wall, rows = self._run(self.workers, str(i))
        ledger.op()
        ledger.check(code == 0 and len(rows) == self.cells,
                     f"sweep {i} exited {code} with {len(rows)} rows")
        if code != 0:
            return
        ledger.check(all(r["status"] == "ok" for r in rows),
                     f"sweep {i} has failed cells")
        half = [r for r in rows if float(r["value"]) == 2.0]
        ledger.check(len(half) == 1 and float(half[0]["compression"]) == 2.0,
                     f"sweep {i} 2x cell compression is not 2.0")
        if half and self.final_accuracy is None:
            self.final_accuracy = float(half[0]["accuracy"])
        self.walls.append(wall)
        self.tables.append(rows)

    def finish(self) -> None:
        code, _, serial = self._run(1, "serial")
        self.ledger.op()
        self.ledger.check(code == 0, f"serial sweep exited {code}")
        # cells running side by side share the interpreter lock unevenly;
        # alone, each cell's wall clock is that of one pipeline run
        self.serial_cell_walls = [float(r["wall_clock_seconds"])
                                  for r in serial]
        for i, rows in enumerate(self.tables):
            self.ledger.check(
                _outcome(rows) == _outcome(serial),
                f"sweep {i} with {self.workers} workers differs from serial",
            )


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _round_trips(m, back) -> bool:
    return (
        (m.rows, m.cols, m.partition.axis, m.partition.blocks_per_group)
        == (back.rows, back.cols, back.partition.axis,
            back.partition.blocks_per_group)
        and _same_bytes(m.retained, back.retained)
        and _same_bytes(m.values, back.values)
    )


class ServeSection:
    """One unit packs, saves and loads the pruned weights `pack_reps`
    times, evaluates the model rebuilt from the loaded blocks, and runs
    `spmm` once per axis against BLAS; `finish` checks `spmm` bit for bit
    against the fixed-order dense kernel."""

    RESULTS = ("tokens", "pack_s", "serve_s", "spmm_s")

    def __init__(self, inp: Inputs, ledger: Ledger, scale: Scale,
                 workers: int):
        self.inp = inp
        self.ledger = ledger
        self.scale = scale
        self.tokens = sum(b.token_ids.size for b in inp.serve_batches)
        self.reference = {case.axis: case.dense @ case.b for case in inp.kernels}
        self.pack_s: list[float] = []
        self.serve_s: list[float] = []
        self.spmm_s: dict[str, list[float]] = {axis: [] for axis in AXES}
        self.served = None
        self.accuracy: float | None = None

    def unit(self, i: int) -> None:
        inp, ledger = self.inp, self.ledger
        sparse = blockprune.sparse
        for rep in range(self.scale.pack_reps):
            # a new file each pass: ext4 flushes a file rewritten in place
            # when it is closed, and truncating it again waits for that
            # write, so rewriting would time the shared disk
            paths = {name: inp.work / f"{name}.{i}.{rep}.blocks"
                     for name in inp.serve_masks}
            t0 = time.perf_counter()
            loaded = {}
            for name, mask in inp.serve_masks.items():
                packed = sparse.to_block_structured(
                    inp.serve_params.tensor(name).matrix, mask
                )
                sparse.save_block_structured(packed, str(paths[name]))
                loaded[name] = (packed,
                                sparse.load_block_structured(str(paths[name])))
            self.pack_s.append(time.perf_counter() - t0)
            ledger.op()
            for path in paths.values():
                path.unlink()
        ledger.check(all(_round_trips(m, back) for m, back in loaded.values()),
                     f"serve unit {i}: block files do not round-trip")
        if self.served is None:
            self.served = inp.serve_params.clone()
            for name, (_, back) in loaded.items():
                self.served.tensor(name).matrix[...] = sparse.densify(back)
            ledger.check(
                all(_same_bytes(self.served.tensor(n).matrix,
                                inp.serve_params.tensor(n).matrix)
                    for n in loaded),
                "served weights differ from the pruned weights",
            )
        t0 = time.perf_counter()
        accuracy = blockprune.model.evaluate(self.served, inp.serve_batches)
        self.serve_s.append(time.perf_counter() - t0)
        ledger.op()
        if self.accuracy is None:
            self.accuracy = accuracy
        ledger.check(accuracy == self.accuracy,
                     f"serve unit {i}: accuracy changed")
        for case in inp.kernels:
            t0 = time.perf_counter()
            got = sparse.spmm(case.block, case.b)
            self.spmm_s[case.axis].append(time.perf_counter() - t0)
            ledger.op()
            err = float(np.abs(got - self.reference[case.axis]).max())
            ledger.check(err <= SPMM_TOLERANCE,
                         f"spmm {case.axis} off BLAS by {err}")

    def finish(self) -> None:
        for case in kernel_cases(self.inp.seed, self.scale.oracle_n, 0.5):
            got = blockprune.sparse.spmm(case.block, case.b)
            want = blockprune.numerics.matmul(
                blockprune.sparse.densify(case.block), case.b
            )
            self.ledger.check(
                _same_bytes(got, want),
                f"spmm differs from numerics.matmul ({case.axis}, "
                f"n={self.scale.oracle_n})",
            )


SECTIONS = {"train": TrainSection, "sweep": SweepSection,
            "serve": ServeSection}


def kernel_table(inp: Inputs, ledger: Ledger, scale: Scale, span) -> dict:
    """One call per (format, axis, sparsity), each inside a benchmark span
    named for its cell; returns the computed counts per cell."""
    counts = {}
    for sparsity in KERNEL_SPARSITIES:
        cases = kernel_cases(inp.seed, scale.kernel_n, sparsity)
        with span(f"bench.dense_blas.{sparsity}"):
            reference = cases[0].dense @ cases[0].b
        for case in cases:
            want = reference if case is cases[0] else case.dense @ case.b
            with span(f"bench.kernel.{case.axis}.{sparsity}"):
                got = blockprune.sparse.spmm(case.block, case.b)
            ledger.op()
            err = float(np.abs(got - want).max())
            ledger.check(err <= SPMM_TOLERANCE,
                         f"spmm {case.axis} at {sparsity} off BLAS by {err}")
            counts[(case.axis, sparsity)] = (case.computed_flops,
                                            case.computed_bytes)
        coo = blockprune.sparse.to_coo(cases[0].dense)
        with span(f"bench.coo.{sparsity}"):
            got = blockprune.sparse.coo_spmm(coo, cases[0].b)
        ledger.op()
        err = float(np.abs(got - reference).max())
        ledger.check(err <= SPMM_TOLERANCE,
                     f"coo_spmm at {sparsity} off BLAS by {err}")
    return counts
