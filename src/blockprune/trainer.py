"""Adam optimization and the three-phase pruning pipeline.

One Adam loop, `_train`, runs all three phases; each phase only sets it
up. Phase one (`plain_train`) trains the dense model on the prediction
loss alone. Phase two (`reweighted_train`) adds the reweighted
group-Lasso penalty over the spec's partitions, with lambda ramped
linearly from zero and the gamma coefficients refreshed at milestone
steps. After hard pruning, phase three (`retrain`) trains on the
prediction loss again and forces pruned entries back to +0.0 after
every optimizer step.

Each penalised step makes one `regularizer.penalty` call per layer,
which computes the layer's segment norms once, returns the penalty and
adds its gradient into the layer's gradient in place.

Batches are cycled in dataset order, never reshuffled, so a run is a
pure function of (config, seed). The penalty is only computed while
lambda is positive, so a step at lambda = 0 is exactly a plain Adam
step, and the loop zeroes nothing when no masks are given: the test
suite checks bit for bit that phases two and three then reproduce
`plain_train`.

A run is three module-level calls, which `run_pipeline` composes on
one parameter store: `baseline_phase`, `reweighted_phase`, and
`pipeline_tail` for prune and retrain; `pipeline_result` assembles
what they return. `experiments.run_cells` composes the same calls for
several runs at once, computing each baseline and reweighted phase
once per key (`phase_keys`), the config fields the phase reads.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import BlockpruneError, MaskError, NonFiniteError, ShapeError
from .model import (
    ArchConfig,
    Dataset,
    ModelParams,
    build_model,
    evaluate,
    loss_and_gradients,
    make_synthetic_dataset,
    save_checkpoint,
)
from .numerics import make_rng
from .pruner import (
    PruneMask,
    PruneSpec,
    model_compression_rates,
    prune_model,
    save_masks,
)
from .regularizer import (
    BlockPartition,
    GammaWeights,
    gamma_update,
    make_partition,
    penalty,
)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments, laid out like `ModelParams.flat`."""

    learning_rate: float
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def make_adam(params: ModelParams, learning_rate: float) -> AdamState:
    if not learning_rate > 0:
        raise ShapeError(f"learning rate must be positive, got {learning_rate}")
    return AdamState(
        learning_rate=learning_rate,
        m=np.zeros_like(params.flat),
        v=np.zeros_like(params.flat),
    )


def adam_step(params: ModelParams, grads: ModelParams,
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place, over the whole flat buffer."""
    if grads.flat.shape != params.flat.shape:
        raise ShapeError(
            f"gradient store holds {grads.flat.size} values, "
            f"parameters hold {params.flat.size}"
        )
    state.step += 1
    t = state.step
    g, m, v = grads.flat, state.m, state.v
    # in place, with the operations of m = b1*m + (1-b1)*g and so on in
    # the same order, so the bits match the out-of-place expressions
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * (g * g)
    denom = np.sqrt(v / (1.0 - ADAM_BETA2**t))
    denom += ADAM_EPS
    params.flat -= state.learning_rate * (m / (1.0 - ADAM_BETA1**t)) / denom


@dataclass
class TrainConfig:
    arch: ArchConfig = field(default_factory=ArchConfig)
    train_samples: int = 20000
    eval_samples: int = 2000
    batch_size: int = 32
    seed: int = 42
    baseline_steps: int = 3750
    learning_rate: float = 3e-5  # baseline and retraining
    reweighted_learning_rate: float | None = None  # defaults to learning_rate
    t1: int = 8000
    t2: int = 2500
    milestones: tuple[int, ...] = ()
    lambda_max: float = 1e-4
    lambda_warmup_steps: int = 200
    eval_every: int = 500
    prune_spec: PruneSpec = field(default_factory=lambda: PruneSpec(entries=()))
    prunable_overrides: dict[str, bool] = field(default_factory=dict)

    def validate(self) -> None:
        self.arch.validate()
        if self.arch.classes < self.arch.vocab:
            # synthetic labels are token ids, so every id needs a class
            raise ShapeError(
                f"classes ({self.arch.classes}) must cover the vocab "
                f"({self.arch.vocab}) for the modal-token task"
            )
        if self.seed < 0:
            raise ShapeError(f"seed must be >= 0, got {self.seed}")
        if self.train_samples < 1 or self.eval_samples < 1:
            raise ShapeError("sample counts must be positive")
        if self.batch_size < 1:
            raise ShapeError("batch_size must be positive")
        if min(self.baseline_steps, self.t1, self.t2) < 0:
            raise ShapeError("step counts must be >= 0")
        if self.lambda_max < 0:
            raise ShapeError(f"lambda_max must be >= 0, got {self.lambda_max}")
        if self.lambda_warmup_steps < 1:
            raise ShapeError("lambda_warmup_steps must be >= 1")
        if not self.learning_rate > 0:
            raise ShapeError("learning_rate must be positive")
        ms = self.milestones
        if any(ms[i] >= ms[i + 1] for i in range(len(ms) - 1)):
            raise ShapeError("milestones must be strictly increasing")
        if ms and (ms[0] < 1 or ms[-1] >= self.t1):
            raise ShapeError("milestones must lie in [1, t1)")

    @property
    def rw_learning_rate(self) -> float:
        if self.reweighted_learning_rate is None:
            return self.learning_rate
        return self.reweighted_learning_rate


@dataclass
class RunReport:
    phase: str
    hyper: dict = field(default_factory=dict)
    # one row per step: (step, lambda, prediction_loss, penalty, mixed_loss)
    steps: list[tuple[int, float, float, float, float]] = field(default_factory=list)
    accuracy_at: list[tuple[int, float]] = field(default_factory=list)
    compression: float | None = None
    wall_clock: float = 0.0
    # retraining only: max |value| over masked entries, one entry per
    # step, and the masked tensors' sparsity, which the fixed mask holds
    masked_abs_max: list[float] = field(default_factory=list)
    masked_sparsity: float | None = None


def save_report(report: RunReport, path: str, meta: dict | None = None) -> None:
    lines = ["# blockprune run report v1", f"# phase={report.phase}"]
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={value}")
    for key in sorted(report.hyper):
        lines.append(f"# {key}={report.hyper[key]!r}")
    acc = dict(report.accuracy_at)
    for step, lam, pred, pen, mixed in report.steps:
        row = (
            f"step={step} lambda={lam!r} prediction_loss={pred!r} "
            f"penalty={pen!r} mixed_loss={mixed!r}"
        )
        if step in acc:
            row += f" accuracy={acc[step]!r}"
        lines.append(row)
    if report.compression is not None:
        lines.append(f"# compression={report.compression!r}")
    lines.append(f"# wall_clock_seconds={report.wall_clock!r}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _check_finite(value: float, params: ModelParams, step: int) -> None:
    if np.isfinite(value):
        return
    for name, t in params.items():
        for part, values in (("matrix", t.matrix), ("bias", t.bias)):
            if values is not None and not np.isfinite(values).all():
                raise NonFiniteError(
                    f"non-finite loss at step {step}; tensor {name!r} "
                    f"{part} has non-finite entries"
                )
    raise NonFiniteError(f"non-finite loss at step {step}")


def _train(params: ModelParams, dataset: Dataset, steps: int, phase: str,
           hyper: dict, eval_dataset: Dataset | None, eval_every: int,
           parts: dict[str, BlockPartition] | None = None,
           milestones: frozenset[int] = frozenset(),
           zero_idx: np.ndarray | None = None,
           ) -> tuple[RunReport, list[dict[str, GammaWeights]]]:
    """The Adam loop behind every phase; returns the report and gamma history.

    `hyper` goes into the report, with the dataset's batch size, and
    sets the run: learning_rate and, for the penalised phase, lambda_max
    and lambda_warmup_steps (else lambda is 0). Step s trains on batch
    (s - 1) mod len(dataset): it refreshes gamma at a milestone, adds
    the penalty and its gradient over `parts` (one `penalty` call per
    layer) once lambda is positive, takes one Adam step, zeroes the flat
    positions `zero_idx`, and evaluates every `eval_every` steps and at
    the last.
    """
    started = time.perf_counter()
    report = RunReport(phase=phase, hyper={
        **hyper,
        "beta1": ADAM_BETA1,
        "beta2": ADAM_BETA2,
        "eps_adam": ADAM_EPS,
        "batch_size": dataset.batch_size,
    })
    parts = parts or {}
    gammas = {
        name: gamma_update(params.tensor(name).matrix, part)
        for name, part in parts.items()
    }
    history = [dict(gammas)]
    lambda_max = hyper.get("lambda_max", 0.0)
    warmup = hyper.get("lambda_warmup_steps", 1)
    state = make_adam(params, hyper["learning_rate"])
    grads = params.zeros_like()  # overwritten by every step's backward
    toks, labels, b = dataset.token_ids, dataset.labels, dataset.batch_size
    batches = len(dataset)
    for s in range(1, steps + 1):
        if s in milestones:
            gammas = {
                name: gamma_update(
                    params.tensor(name).matrix, part, prev=gammas[name]
                )
                for name, part in parts.items()
            }
            history.append(dict(gammas))
        lam = lambda_max * min(1.0, s / warmup)
        lo = (s - 1) % batches * b
        pred, grads = loss_and_gradients(
            params, toks[lo:lo + b], labels[lo:lo + b], grads
        )
        pen = 0.0
        if lam > 0.0:
            # guard keeps every lambda = 0 step arithmetically identical
            # to plain Adam on the prediction loss
            for name, part in parts.items():
                pen += penalty(params.tensor(name).matrix, part, gammas[name],
                               lam, grad=grads.tensor(name).matrix)
        mixed = pred + pen
        _check_finite(mixed, params, s)
        adam_step(params, grads, state)
        if zero_idx is not None:
            params.flat[zero_idx] = 0.0
            report.masked_abs_max.append(
                float(np.abs(params.flat[zero_idx]).max()) if zero_idx.size
                else 0.0
            )
        report.steps.append((s, lam, pred, pen, mixed))
        if eval_dataset is not None and eval_every >= 1 and (
                s % eval_every == 0 or s == steps):
            report.accuracy_at.append((s, evaluate(params, eval_dataset)))
    report.wall_clock = time.perf_counter() - started
    return report, history


def plain_train(params: ModelParams, dataset: Dataset, steps: int,
                learning_rate: float, eval_dataset: Dataset | None = None,
                eval_every: int = 0) -> RunReport:
    """Reference Adam loop on the prediction loss alone."""
    report, _ = _train(
        params, dataset, steps, "plain", {"learning_rate": learning_rate},
        eval_dataset, eval_every,
    )
    return report


def reweighted_train(
    params: ModelParams, dataset: Dataset, config: TrainConfig,
    eval_dataset: Dataset | None = None,
) -> tuple[ModelParams, list[dict[str, GammaWeights]], RunReport]:
    """Mixed-loss training: prediction loss plus the reweighted penalty.

    Gamma is computed once at the start and refreshed at each milestone
    step before that step's losses; in between it is a constant. Returns
    the gamma history (initial values plus one snapshot per milestone).
    """
    config.validate()
    parts = {}
    for entry in config.prune_spec.entries:
        t = params.tensor(entry.layer_name)
        if not t.prunable:
            raise ShapeError(
                f"penalty targets non-prunable layer {entry.layer_name!r}"
            )
        rows, cols = t.matrix.shape
        parts[entry.layer_name] = make_partition(
            rows, cols, entry.axis, entry.num_blocks, entry.layer_name
        )
    report, history = _train(
        params, dataset, config.t1, "reweighted",
        {
            "learning_rate": config.rw_learning_rate,
            "lambda_max": config.lambda_max,
            "lambda_warmup_steps": config.lambda_warmup_steps,
        },
        eval_dataset, config.eval_every,
        parts=parts, milestones=frozenset(config.milestones),
    )
    return params, history, report


def retrain(params: ModelParams, masks: dict[str, PruneMask],
            dataset: Dataset, config: TrainConfig,
            eval_dataset: Dataset | None = None) -> tuple[ModelParams, RunReport]:
    """Masked fine-tuning: after every Adam step, pruned entries <- +0.0.

    Gradients are computed on the full matrices; zeroing after the step
    is what discards pruned updates, so masked entries are exactly zero
    at every step boundary. The report records, per step, the max
    |value| over masked entries, and once the realized sparsity of the
    masked tensors.
    """
    config.validate()
    # flat positions of every pruned entry, found through a store whose
    # views carry the masks; biases are never pruned
    keep = params.zeros_like()
    keep.flat[...] = 1.0
    for name, mask in masks.items():
        view = keep.tensor(name).matrix
        shape = mask.partition.matrix_shape
        if shape != view.shape:
            raise MaskError(
                f"mask shape {shape} does not match layer "
                f"{name!r} {view.shape}"
            )
        view[...] = mask.bits
    zero_idx = np.flatnonzero(keep.flat == 0.0)
    # apply once up front so a not-yet-pruned matrix cannot leak through;
    # assignment writes +0.0 rather than the -0.0 a multiply can leave
    params.flat[zero_idx] = 0.0
    report, _ = _train(
        params, dataset, config.t2, "retrain",
        {"learning_rate": config.learning_rate}, eval_dataset,
        config.eval_every, zero_idx=zero_idx,
    )
    all_total = sum(mask.bits.size for mask in masks.values())
    report.masked_sparsity = zero_idx.size / all_total if all_total else 0.0
    return params, report


@dataclass
class PipelineResult:
    params: ModelParams
    masks: dict[str, PruneMask]
    baseline_accuracy: float
    pruned_accuracy: float
    final_accuracy: float
    compression: float
    compression_all: float
    reports: dict[str, RunReport]
    gamma_history: list[dict[str, GammaWeights]]
    wall_clock: float


def derive_seeds(seed: int, n: int) -> list[int]:
    """Deterministic child seeds for init / train data / eval data."""
    return [int(x) for x in np.random.SeedSequence(seed).generate_state(n)]


@contextmanager
def _phase(name: str):
    """Tag escaping errors with the pipeline phase they came from."""
    try:
        yield
    except BlockpruneError as exc:
        raise exc.__class__(f"{name} phase: {exc}") from exc


def phase_keys(config: TrainConfig) -> tuple[tuple, tuple]:
    """Keys of the baseline and the reweighted phase of a run; runs
    with equal keys can share the phase.

    Each phase is a pure function of the config fields in its key. The
    reweighted key extends the baseline key with the penalty's
    partitions and schedule; the prune entries' mode and value, and t2,
    only reach prune and retrain, which are never shared.
    """
    baseline = (
        astuple(config.arch),
        tuple(sorted(config.prunable_overrides.items())),
        config.seed, config.train_samples, config.eval_samples,
        config.batch_size, config.baseline_steps, config.learning_rate,
        config.eval_every,
    )
    reweighted = baseline + (
        tuple((e.layer_name, e.axis, e.num_blocks)
              for e in config.prune_spec.entries),
        config.t1, config.rw_learning_rate, config.lambda_max,
        config.lambda_warmup_steps, config.milestones,
    )
    return baseline, reweighted


def _end_accuracy(params: ModelParams, report: RunReport, steps: int,
                  eval_ds: Dataset) -> float:
    """Accuracy after a phase: the loop's own evaluation at its last
    step when it made one, else a fresh one."""
    if report.accuracy_at and report.accuracy_at[-1][0] == steps:
        return report.accuracy_at[-1][1]
    return evaluate(params, eval_ds)


def run_dataset(config: TrainConfig, split: str) -> Dataset:
    """A run's "train" or "eval" set, from its seed."""
    _, train_seed, eval_seed = derive_seeds(config.seed, 3)
    seed, samples = {"train": (train_seed, config.train_samples),
                     "eval": (eval_seed, config.eval_samples)}[split]
    return make_synthetic_dataset(seed, samples, config.arch.seq_len,
                                  config.arch.vocab, config.batch_size)


def baseline_phase(config: TrainConfig):
    """Phase one of a run, from its config alone: the model and both
    datasets from the seed, then plain training.

    Returns (params, report, accuracy, train_ds, eval_ds).
    """
    init_seed = derive_seeds(config.seed, 3)[0]
    params = build_model(
        config.arch, make_rng(init_seed),
        prunable_overrides=config.prunable_overrides,
    )
    train_ds = run_dataset(config, "train")
    eval_ds = run_dataset(config, "eval")
    with _phase("baseline"):
        report = plain_train(
            params, train_ds, config.baseline_steps, config.learning_rate,
            eval_dataset=eval_ds, eval_every=config.eval_every,
        )
        accuracy = _end_accuracy(params, report, config.baseline_steps,
                                 eval_ds)
    return params, report, accuracy, train_ds, eval_ds


def reweighted_phase(config: TrainConfig, params: ModelParams,
                     train_ds: Dataset, eval_ds: Dataset):
    """Phase two on `params`, in place: (params, gamma_history, report)."""
    with _phase("reweighted"):
        return reweighted_train(params, train_ds, config, eval_dataset=eval_ds)


def pipeline_tail(config: TrainConfig, params: ModelParams,
                  train_ds: Dataset, eval_ds: Dataset,
                  say=lambda msg: None) -> tuple[dict, RunReport]:
    """Prune `params`, the reweighted phase's store or a clone of it, in
    place and retrain it.

    Returns the `PipelineResult` fields this computes (params, masks,
    pruned_accuracy, final_accuracy, compression, compression_all) and
    the retrain report.
    """
    with _phase("prune"):
        masks = prune_model(params, config.prune_spec)
        pruned_accuracy = evaluate(params, eval_ds)
        compression, compression_all = (
            model_compression_rates(params, masks) if masks else (1.0, 1.0)
        )
    say(
        f"pruned: compression {compression:.3f}x over prunable tensors, "
        f"accuracy {pruned_accuracy:.4f} before retraining"
    )

    say(f"retrain: {config.t2} steps at lr {config.learning_rate}")
    with _phase("retrain"):
        params, rt_report = retrain(
            params, masks, train_ds, config, eval_dataset=eval_ds
        )
        final_accuracy = _end_accuracy(params, rt_report, config.t2, eval_ds)
    say(f"final accuracy {final_accuracy:.4f}")
    rt_report.compression = compression
    return dict(
        params=params,
        masks=masks,
        pruned_accuracy=pruned_accuracy,
        final_accuracy=final_accuracy,
        compression=compression,
        compression_all=compression_all,
    ), rt_report


def pipeline_result(baseline: tuple, reweighted: tuple, tail: tuple,
                    wall_clock: float) -> PipelineResult:
    """A run's result from what its `baseline_phase`, `reweighted_phase`
    and `pipeline_tail` returned."""
    _, baseline_report, baseline_accuracy, _, _ = baseline
    _, gamma_history, rw_report = reweighted
    fields, rt_report = tail
    return PipelineResult(
        **fields,
        baseline_accuracy=baseline_accuracy,
        reports={
            "baseline": baseline_report,
            "reweighted": rw_report,
            "retrain": rt_report,
        },
        gamma_history=gamma_history,
        wall_clock=wall_clock,
    )


def run_pipeline(config: TrainConfig, out_dir: str | None = None,
                 verbose: bool = False) -> PipelineResult:
    """Full run: build, baseline train, reweight, prune, retrain, evaluate.

    A fixed seed makes the whole run bit-reproducible. When out_dir is
    given, reports, masks, and checkpoints are written there. Every
    phase trains the one store the baseline built.
    """
    config.validate()
    started = time.perf_counter()

    def say(msg):
        if verbose:
            print(msg, flush=True)

    say(f"baseline: {config.baseline_steps} steps at lr {config.learning_rate}")
    baseline = baseline_phase(config)
    params, _, baseline_accuracy, train_ds, eval_ds = baseline
    say(f"baseline accuracy {baseline_accuracy:.4f}")

    say(f"reweighted: {config.t1} steps at lr {config.rw_learning_rate}")
    reweighted = reweighted_phase(config, params, train_ds, eval_ds)
    tail = pipeline_tail(config, params, train_ds, eval_ds, say)
    result = pipeline_result(baseline, reweighted, tail,
                             time.perf_counter() - started)
    if out_dir is not None:
        _emit(result, config, out_dir)
    return result


def _emit(result: PipelineResult, config: TrainConfig, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    meta = {"seed": config.seed}
    for phase, report in result.reports.items():
        save_report(report, os.path.join(out_dir, f"report_{phase}.txt"), meta)
    if result.masks:
        save_masks(result.masks, os.path.join(out_dir, "masks.txt"), meta)
    save_checkpoint(result.params, os.path.join(out_dir, "checkpoint_final"), meta)
    lines = [
        "# blockprune run summary v1",
        f"# seed={config.seed}",
        f"baseline_accuracy={result.baseline_accuracy!r}",
        f"pruned_accuracy={result.pruned_accuracy!r}",
        f"final_accuracy={result.final_accuracy!r}",
        f"compression_prunable={result.compression!r}",
        f"compression_all={result.compression_all!r}",
        f"# wall_clock_seconds={result.wall_clock!r}",
    ]
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
