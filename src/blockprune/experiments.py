"""Scripted studies: one-dimension sweeps and the per-layer sensitivity
scan, emitted as CSV tables.

A sweep varies exactly one knob across a list of values and gives one
pipeline run, a cell, per value. The cells of one sweep or scan share a
phase cache (`PhaseCache`): cells whose configs agree on a
phase's key compute that baseline or reweighted phase once, and only
prune and retrain run per cell. With several workers, a cell that needs
a phase another cell is computing waits for it. Each cell's result is
bit-identical to a run of its config alone. A cell's wall clock is its
own elapsed time, so a cell that finds both phases cached costs only its
prune and retrain, plus any wait. Cells fail independently: an error is
recorded in the row and the sweep continues. Tables are deterministic
for fixed config and seed except for the wall-clock column.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

from .errors import BlockpruneError, ConfigError
from .model import build_model
from .numerics import make_rng
from .pruner import PruneEntry, PruneSpec
from .trainer import TrainConfig, run_pipeline

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


class PhaseCache:
    """Results of the cached phases by key, shared by the runs of one
    sweep or scan, from any number of threads.

    The first run to need a key computes it; a run that needs a key
    another run is computing waits for that result, or that error.
    Stored parameter stores are never written: runs train on clones.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._results: dict[tuple, Future] = {}

    def get(self, key: tuple, compute):
        with self._lock:
            future = self._results.get(key)
            owner = future is None
            if owner:
                future = self._results[key] = Future()
        if owner:
            try:
                future.set_result(compute())
            except BaseException as exc:
                future.set_exception(exc)
                raise
        return future.result()


def _run_cell(config: TrainConfig, value, cache: PhaseCache) -> dict:
    try:
        result = run_pipeline(config, cache=cache)
        return {
            "value": value,
            "accuracy": result.final_accuracy,
            "compression": result.compression,
            "wall_clock_seconds": result.wall_clock,
            "status": "ok",
        }
    except BlockpruneError as exc:
        return {
            "value": value,
            "accuracy": "",
            "compression": "",
            "wall_clock_seconds": "",
            "status": f"error: {exc}",
        }


def _run_cells(configs: list[TrainConfig], values: list,
               workers: int) -> list[dict]:
    """One row per (config, value) cell, in cell order; the cells share
    one phase cache."""
    run = partial(_run_cell, cache=PhaseCache())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run, configs, values))
    return list(map(run, configs, values))


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
    probe = build_model(config.arch, make_rng(0))
    layers = []
    for name in probe.names():
        if probe.tensor(name).prunable:
            layers.append((name, False))
        elif include_nonprunable:
            layers.append((name, True))

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
