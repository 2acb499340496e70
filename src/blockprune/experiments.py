"""Scripted studies: one-dimension sweeps and the per-layer sensitivity
scan, emitted as CSV tables.

A sweep varies exactly one knob across a list of values and gives one
pipeline run, a cell, per value. Cells whose configs agree on a phase's
key (`trainer.phase_keys`) compute that baseline or reweighted phase
once, and only prune and retrain run per cell. One scheduler runs the
cells, as calls that each return a future: with one worker each call
runs at once in this process, so the cells run one after another; with
several, the calls go to a pool of that many worker processes, started
by fork (so on Linux), where each distinct phase runs once as soon as
the phase it extends is done, and each cell's prune and retrain as soon
as its reweighted phase is done. Each cell's result is bit-identical
to a run of its config alone. A cell's wall clock covers the phases it
was the first to need plus its own prune and retrain, so a cell that
finds both phases computed costs only the latter. Cells fail
independently: an error is recorded in the row and the sweep continues;
a worker process that dies ends the sweep with an error. Tables are
deterministic for fixed config and seed except for the wall-clock
column.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from dataclasses import dataclass, replace

from .errors import BlockpruneError, ConfigError
from .model import LAYOUT, ModelParams
from .pruner import PruneEntry, PruneSpec
from .trainer import (TrainConfig, baseline_phase, phase_keys, pipeline_tail,
                      reweighted_phase)

# sweep dimension -> type of its values
VARY = {
    "num_blocks": int,
    "retrain_epochs": int,
    "lambda_max": float,
    "seed": int,
    "compression_rate": float,
    "layer": str,
}


@dataclass(frozen=True)
class SweepSpec:
    name: str
    base: TrainConfig
    vary: str
    values: tuple

    def __post_init__(self):
        if self.vary not in VARY:
            raise ConfigError(
                f"sweep vary dimension must be one of {tuple(VARY)}, "
                f"got {self.vary!r}"
            )
        if not self.values:
            raise ConfigError(f"sweep {self.name!r} has no values")


def steps_per_epoch(config: TrainConfig) -> int:
    return math.ceil(config.train_samples / config.batch_size)


def apply_value(base: TrainConfig, vary: str, value) -> TrainConfig:
    """Base config with one dimension changed; everything else fixed."""
    if vary == "seed":
        return replace(base, seed=int(value))
    if vary == "lambda_max":
        return replace(base, lambda_max=float(value))
    if vary == "retrain_epochs":
        return replace(base, t2=int(value) * steps_per_epoch(base))
    if vary == "num_blocks":
        entries = tuple(
            replace(e, num_blocks=int(value)) for e in base.prune_spec.entries
        )
        return replace(base, prune_spec=PruneSpec(entries=entries))
    if vary == "compression_rate":
        rate = float(value)
        if rate < 1.0:
            raise ConfigError(f"compression rate must be >= 1, got {rate}")
        target = 1.0 - 1.0 / rate
        entries = tuple(
            replace(e, mode="percentile", value=target)
            for e in base.prune_spec.entries
        )
        return replace(base, prune_spec=PruneSpec(entries=entries))
    if vary == "layer":
        if base.prune_spec.entries:
            template = base.prune_spec.entries[0]
        else:
            # config imports this module, so its defaults load late
            from .config import DEFAULTS

            template = PruneEntry(
                layer_name="", axis=DEFAULTS["prune.axis"],
                num_blocks=DEFAULTS["prune.num_blocks"],
                mode=DEFAULTS["prune.mode"], value=DEFAULTS["prune.sparsity"],
            )
        entry = replace(template, layer_name=str(value))
        return replace(base, prune_spec=PruneSpec(entries=(entry,)))
    raise ConfigError(f"unknown sweep vary dimension {vary!r}")


def _run_now(fn, *args) -> Future:
    """`fn(*args)`, run at once in this process, as a finished future.

    Parameter-store arguments are cloned first, as a worker process
    gets copies of them, so the call never writes a caller's store.
    """
    future = Future()
    try:
        future.set_result(fn(*(
            a.clone() if isinstance(a, ModelParams) else a for a in args
        )))
    except Exception as exc:
        future.set_exception(exc)
    return future


class PhaseCache:
    """Phase results by key (`trainer.phase_keys`), shared by the cells
    of one sweep or scan, or by the runs given to `run_pipeline` as
    their cache.

    The first run to need a key starts its computation through `submit`,
    by default `_run_now`, in this process; a sweep on worker processes
    passes its pool's. Later runs get the same future, so the same
    result or error. Stored parameter stores are never written.
    """

    def __init__(self, submit=_run_now):
        self._submit = submit
        self._futures: dict[tuple, Future] = {}

    def future(self, key: tuple, fn, *args) -> tuple[Future, bool]:
        """The future of phase `key`, and whether this call started it
        as `fn(*args)`."""
        started = key not in self._futures
        if started:
            self._futures[key] = self._submit(fn, *args)
        return self._futures[key], started

    def get(self, key: tuple, compute):
        return self.future(key, compute)[0].result()


def _timed(fn, *args):
    """(fn(*args), its elapsed seconds), measured where it runs."""
    started = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - started


def _cell_tail(config: TrainConfig, params: ModelParams,
               train_ds: list, eval_ds: list) -> tuple[float, float]:
    """(final accuracy, compression) of one cell; `params`, a copy of
    its reweighted store, is pruned and retrained in place."""
    tail, _ = pipeline_tail(config, params, train_ds, eval_ds)
    return tail["final_accuracy"], tail["compression"]


def _cell(config: TrainConfig, value, phases: PhaseCache, submit):
    """One cell, as a generator that yields each future it needs and is
    sent that future's result or thrown its error; it returns the
    cell's row.

    The cell's wall clock is the time of the phases it started plus its
    own prune and retrain.
    """
    try:
        config.validate()
        baseline_key, reweighted_key = phase_keys(config)
        future, started = phases.future(baseline_key, _timed,
                                        baseline_phase, config)
        (params, _, _, train_ds, eval_ds), seconds = yield future
        spent = seconds if started else 0.0
        future, started = phases.future(reweighted_key, _timed,
                                        reweighted_phase, config, params,
                                        train_ds, eval_ds)
        (params, _, _), seconds = yield future
        spent += seconds if started else 0.0
        (accuracy, compression), seconds = yield submit(
            _timed, _cell_tail, config, params, train_ds, eval_ds)
    except BlockpruneError as exc:
        return {
            "value": value,
            "accuracy": "",
            "compression": "",
            "wall_clock_seconds": "",
            "status": f"error: {exc}",
        }
    return {
        "value": value,
        "accuracy": accuracy,
        "compression": compression,
        "wall_clock_seconds": spent + seconds,
        "status": "ok",
    }


def _schedule(configs: list[TrainConfig], values: list, submit) -> list[dict]:
    """One row per cell, in cell order, with every call made through
    `submit`: each cell runs as far as its futures are done, so with
    `_run_now` the cells run one after another, and on a pool each
    distinct phase starts once, when the phase it extends is done, and
    each cell's tail as soon as its reweighted phase is done."""
    phases = PhaseCache(submit)
    cells = [_cell(c, v, phases, submit) for c, v in zip(configs, values)]
    rows: list[dict | None] = [None] * len(cells)
    waiting: dict[int, Future] = {}

    def advance(i: int, future: Future | None = None) -> None:
        try:
            while future is None or future.done():
                if future is None:
                    future = next(cells[i])
                elif future.exception() is not None:
                    future = cells[i].throw(future.exception())
                else:
                    future = cells[i].send(future.result())
            waiting[i] = future
        except StopIteration as done:
            rows[i] = done.value
            waiting.pop(i, None)

    for i in range(len(cells)):
        advance(i)
    while waiting:
        done, _ = wait(waiting.values(), return_when=FIRST_COMPLETED)
        for i, future in list(waiting.items()):
            if future in done:
                advance(i, future)
    return rows


def _run_cells(configs: list[TrainConfig], values: list,
               workers: int) -> list[dict]:
    """One row per (config, value) cell, in cell order; cells share
    their phases, in this process or, with several workers, on a pool
    of forked worker processes."""
    workers = min(workers, len(configs))
    if workers <= 1:
        return _schedule(configs, values, _run_now)
    # imported here, as they add ~15 ms to every start of the package
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # fork, not spawn: a spawned worker would import numpy and the
    # package afresh before its first phase. A fork pool starts all its
    # workers at the first submit, before its own manager thread, and
    # the package starts no other thread
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        return _schedule(configs, values, pool.submit)
    except BrokenProcessPool as exc:
        raise BlockpruneError(f"a sweep worker process died: {exc}") from None
    finally:
        pool.shutdown(cancel_futures=True)


def sweep(spec: SweepSpec, workers: int = 1) -> list[dict]:
    """One cell per value, rows sorted by value."""
    values = sorted(spec.values)
    configs = [apply_value(spec.base, spec.vary, v) for v in values]
    return _run_cells(configs, values, workers)


def sensitivity_scan(
    config: TrainConfig, ratio: float, include_nonprunable: bool = False,
    workers: int = 1,
) -> list[dict]:
    """Prune one layer at a time at the given ratio, one cell each.

    Rows follow model registry order. With include_nonprunable, the
    embedding and classifier get a prunable override for their own row.
    """
    if not 0 < ratio < 1:
        raise ConfigError(f"sensitivity ratio must be in (0, 1), got {ratio}")
    layers = [(name, not prunable) for name, _, prunable, _, _ in LAYOUT
              if prunable or include_nonprunable]

    def cell_config(name: str, needs_override: bool) -> TrainConfig:
        cfg = apply_value(config, "layer", name)
        entry = replace(cfg.prune_spec.entries[0], mode="percentile", value=ratio)
        cfg = replace(cfg, prune_spec=PruneSpec(entries=(entry,)))
        if needs_override:
            overrides = dict(cfg.prunable_overrides)
            overrides[name] = True
            cfg = replace(cfg, prunable_overrides=overrides)
        return cfg

    rows = _run_cells(
        [cell_config(n, ov) for n, ov in layers], [n for n, _ in layers],
        workers,
    )
    for row in rows:
        row["layer"] = row.pop("value")
    return rows


def save_table(rows: list[dict], columns: list[str], path: str,
               meta: dict | None = None) -> None:
    """Comma-separated table with a header row; commas in cells become ';'."""
    lines = []
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(",".join(columns))
    for row in rows:
        cells = []
        for col in columns:
            value = row.get(col, "")
            text = repr(value) if isinstance(value, float) else str(value)
            cells.append(text.replace(",", ";").replace("\n", " "))
        lines.append(",".join(cells))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
