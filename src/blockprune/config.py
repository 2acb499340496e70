"""Config file parsing and resolution into runnable settings.

Format: `[section]` headers and `key = value` lines. Full-line comments
start with `#`. Unknown sections, unknown keys, and duplicates are
rejected with the line number; a config that parses is fully validated.

Precedence is command-line flag over config file over built-in default.
Every key has a documented default (DEFAULTS below), so an empty or
absent config still resolves. The resolver also returns, per key, where
its value came from, which the CLI prints in verbose mode.

Sections:
  [model]        vocab, dim, heads, ffn, classes, seq_len, prunable
  [dataset]      train_samples, eval_samples
  [train]        seed, batch_size, learning_rate, reweighted_learning_rate,
                 baseline_steps, t1, t2, lambda_max, lambda_warmup_steps,
                 milestone_every, milestones, eval_every
  [prune]        layers, axis, num_blocks, mode, sparsity, threshold
  [prune.NAME]   per-layer overrides of the [prune] keys (minus layers)
  [sweep.NAME]   vary, values
  [sensitivity]  ratio, include_nonprunable

`prunable` replaces the default prunable set (attention and ffn) with an
explicit list. `layers = all` expands to every prunable layer. Exactly
one of milestones / milestone_every may be given; with neither, gamma
refreshes every four epochs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .experiments import SweepSpec
from .model import LAYOUT, ArchConfig
from .pruner import PruneEntry, PruneSpec
from .trainer import TrainConfig

TENSOR_NAMES = tuple(name for name, *_ in LAYOUT)
DEFAULT_PRUNABLE = tuple(name for name, _, prunable, *_ in LAYOUT if prunable)

_SCHEMA = {
    "model": {
        "vocab": int, "dim": int, "heads": int, "ffn": int,
        "classes": int, "seq_len": int, "prunable": "strlist",
    },
    "dataset": {"train_samples": int, "eval_samples": int},
    "train": {
        "seed": int, "batch_size": int, "learning_rate": float,
        "reweighted_learning_rate": float, "baseline_steps": int,
        "t1": int, "t2": int, "lambda_max": float,
        "lambda_warmup_steps": int, "milestone_every": int,
        "milestones": "intlist", "eval_every": int,
    },
    "prune": {
        "layers": "strlist", "axis": str, "num_blocks": int,
        "mode": str, "sparsity": float, "threshold": float,
    },
    "prune.*": {
        "axis": str, "num_blocks": int, "mode": str,
        "sparsity": float, "threshold": float,
    },
    "sweep.*": {"vary": str, "values": "strlist"},
    "sensitivity": {"ratio": float, "include_nonprunable": bool},
}

# model, dataset and train defaults are the dataclass field defaults;
# the keys below them have no dataclass field of their own
_FIELD_DEFAULTS = TrainConfig()
DEFAULTS = {
    **{f"model.{f.name}": getattr(_FIELD_DEFAULTS.arch, f.name)
       for f in fields(ArchConfig)},
    "model.prunable": ",".join(DEFAULT_PRUNABLE),
    **{f"{section}.{key}": getattr(_FIELD_DEFAULTS, key)
       for section in ("dataset", "train") for key in _SCHEMA[section]
       if key not in ("milestone_every", "milestones")},
    "train.milestone_every": None,  # None: every 4 epochs
    "train.milestones": None,
    "prune.layers": "all",
    "prune.axis": "row",
    "prune.num_blocks": 8,
    "prune.mode": "percentile",
    "prune.sparsity": 0.5,
    "prune.threshold": None,
    "sensitivity.ratio": 0.5,
    "sensitivity.include_nonprunable": False,
}

_SWEEP_VALUE_TYPE = {
    "num_blocks": int,
    "retrain_epochs": int,
    "lambda_max": float,
    "seed": int,
    "compression_rate": float,
    "layer": str,
}


@dataclass
class RawConfig:
    path: str
    # section -> key -> (raw value, line number)
    sections: dict[str, dict[str, tuple[str, int]]] = field(default_factory=dict)
    section_lines: dict[str, int] = field(default_factory=dict)


def _schema_for(section: str) -> dict | None:
    if section in _SCHEMA:
        return _SCHEMA[section]
    if section.startswith("prune.") and section != "prune.":
        return _SCHEMA["prune.*"]
    if section.startswith("sweep.") and section != "sweep.":
        return _SCHEMA["sweep.*"]
    return None


def parse_config(path: str) -> RawConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    raw = RawConfig(path=path)
    current: str | None = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if text.startswith("[") and text.endswith("]"):
                section = text[1:-1].strip()
                if _schema_for(section) is None:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown section [{section}]"
                    )
                if section in raw.sections:
                    raise ConfigError(
                        f"{path}:{lineno}: duplicate section [{section}]"
                    )
                raw.sections[section] = {}
                raw.section_lines[section] = lineno
                current = section
                continue
            if "=" not in text:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value' or '[section]', "
                    f"got {text!r}"
                )
            if current is None:
                raise ConfigError(
                    f"{path}:{lineno}: key outside any [section]"
                )
            key, _, value = text.partition("=")
            key = key.strip()
            schema = _schema_for(current)
            if key not in schema:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key {key!r} in [{current}]"
                )
            if key in raw.sections[current]:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} in [{current}]"
                )
            raw.sections[current][key] = (value.strip(), lineno)
    return raw


def _convert(raw: RawConfig, section: str, key: str, kind):
    value, lineno = raw.sections[section][key]
    where = f"{raw.path}:{lineno}"
    try:
        if kind is int:
            return int(value)
        if kind is float:
            return float(value)
        if kind is bool:
            low = value.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(value)
        if kind == "strlist":
            return [v.strip() for v in value.split(",") if v.strip()]
        if kind == "intlist":
            return [int(v.strip()) for v in value.split(",") if v.strip()]
        return value
    except ValueError:
        raise ConfigError(
            f"{where}: cannot parse {key} = {value!r} as {kind if isinstance(kind, str) else kind.__name__}"
        ) from None


@dataclass
class Settings:
    train: TrainConfig
    sweeps: dict[str, SweepSpec]
    sensitivity_ratio: float
    sensitivity_include_nonprunable: bool


def resolve_settings(
    raw: RawConfig | None, flag_overrides: dict | None = None
) -> tuple[Settings, dict[str, str]]:
    """Merge defaults, config file, and flags into runnable settings.

    Returns (settings, sources) where sources maps each resolved key to
    'default', 'config', or 'flag'.
    """
    flags = flag_overrides or {}
    sources: dict[str, str] = {}

    def get(section: str, key: str, kind):
        dotted = f"{section}.{key}"
        if dotted in flags and flags[dotted] is not None:
            sources[dotted] = "flag"
            return flags[dotted]
        if raw is not None and section in raw.sections and key in raw.sections[section]:
            sources[dotted] = "config"
            return _convert(raw, section, key, kind)
        sources[dotted] = "default"
        return DEFAULTS[dotted]

    arch = ArchConfig(
        vocab=get("model", "vocab", int),
        dim=get("model", "dim", int),
        heads=get("model", "heads", int),
        ffn=get("model", "ffn", int),
        classes=get("model", "classes", int),
        seq_len=get("model", "seq_len", int),
    )
    prunable_value = get("model", "prunable", "strlist")
    if isinstance(prunable_value, str):
        prunable_value = [v.strip() for v in prunable_value.split(",") if v.strip()]
    for name in prunable_value:
        if name not in TENSOR_NAMES:
            raise ConfigError(
                f"{_loc(raw, 'model')}: prunable names unknown tensor {name!r}"
            )
    prunable_overrides = {
        name: (name in prunable_value) for name in TENSOR_NAMES
    }
    prunable_set = tuple(n for n in TENSOR_NAMES if prunable_overrides[n])

    train_samples = get("dataset", "train_samples", int)
    eval_samples = get("dataset", "eval_samples", int)
    batch_size = get("train", "batch_size", int)
    t1 = get("train", "t1", int)

    milestones_value = None
    if raw is not None and "train" in raw.sections:
        has_list = "milestones" in raw.sections["train"]
        has_every = "milestone_every" in raw.sections["train"]
        if has_list and has_every:
            raise ConfigError(
                f"{_loc(raw, 'train')}: give milestones or milestone_every, "
                f"not both"
            )
        if has_list:
            milestones_value = tuple(_convert(raw, "train", "milestones", "intlist"))
            sources["train.milestones"] = "config"
        elif has_every:
            every = _convert(raw, "train", "milestone_every", int)
            if every < 1:
                raise ConfigError(
                    f"{_loc(raw, 'train')}: milestone_every must be >= 1"
                )
            milestones_value = tuple(range(every, t1, every))
            sources["train.milestones"] = "config"
    if milestones_value is None:
        # default: refresh gamma every four epochs of reweighted steps
        every = 4 * math.ceil(train_samples / batch_size)
        milestones_value = tuple(range(every, t1, every))
        sources["train.milestones"] = "default"

    prune_spec = _resolve_prune(raw, prunable_set, get)

    config = TrainConfig(
        arch=arch,
        train_samples=train_samples,
        eval_samples=eval_samples,
        batch_size=batch_size,
        seed=get("train", "seed", int),
        baseline_steps=get("train", "baseline_steps", int),
        learning_rate=get("train", "learning_rate", float),
        reweighted_learning_rate=get("train", "reweighted_learning_rate", float),
        t1=t1,
        t2=get("train", "t2", int),
        milestones=milestones_value,
        lambda_max=get("train", "lambda_max", float),
        lambda_warmup_steps=get("train", "lambda_warmup_steps", int),
        eval_every=get("train", "eval_every", int),
        prune_spec=prune_spec,
        prunable_overrides=prunable_overrides,
    )
    try:
        config.validate()
    except Exception as exc:
        raise ConfigError(f"{raw.path if raw else '<defaults>'}: {exc}") from exc

    sweeps = _resolve_sweeps(raw, config)
    settings = Settings(
        train=config,
        sweeps=sweeps,
        sensitivity_ratio=get("sensitivity", "ratio", float),
        sensitivity_include_nonprunable=get(
            "sensitivity", "include_nonprunable", bool
        ),
    )
    return settings, sources


def _loc(raw: RawConfig | None, section: str) -> str:
    if raw is None:
        return "<defaults>"
    lineno = raw.section_lines.get(section)
    return f"{raw.path}:{lineno}" if lineno else raw.path


def _resolve_prune(raw, prunable_set, get) -> PruneSpec:
    layers_value = get("prune", "layers", "strlist")
    if isinstance(layers_value, str):
        layers_value = [v.strip() for v in layers_value.split(",") if v.strip()]
    if layers_value == ["all"]:
        layers = list(prunable_set)
    else:
        layers = layers_value
    base = {
        "axis": get("prune", "axis", str),
        "num_blocks": get("prune", "num_blocks", int),
        "mode": get("prune", "mode", str),
        "sparsity": get("prune", "sparsity", float),
        "threshold": get("prune", "threshold", float),
    }
    per_layer: dict[str, dict] = {}
    if raw is not None:
        for section in raw.sections:
            if not section.startswith("prune."):
                continue
            name = section[len("prune.") :]
            if name not in TENSOR_NAMES:
                raise ConfigError(
                    f"{_loc(raw, section)}: [prune.{name}] names unknown "
                    f"tensor {name!r}"
                )
            overrides = {
                key: _convert(raw, section, key, _SCHEMA["prune.*"][key])
                for key in raw.sections[section]
            }
            per_layer[name] = overrides
            if name not in layers:
                layers.append(name)
    entries = []
    for name in layers:
        if name not in TENSOR_NAMES:
            raise ConfigError(
                f"{_loc(raw, 'prune')}: prune layers names unknown tensor "
                f"{name!r}"
            )
        if name not in prunable_set:
            raise ConfigError(
                f"{_loc(raw, 'prune')}: layer {name!r} is not prunable"
            )
        merged = dict(base)
        merged.update(per_layer.get(name, {}))
        mode = merged["mode"]
        if mode == "percentile":
            value = merged["sparsity"]
        elif mode == "threshold":
            value = merged["threshold"]
            if value is None:
                raise ConfigError(
                    f"{_loc(raw, 'prune')}: mode threshold needs a "
                    f"threshold value for layer {name!r}"
                )
        else:
            raise ConfigError(
                f"{_loc(raw, 'prune')}: unknown prune mode {mode!r}"
            )
        entries.append(
            PruneEntry(
                layer_name=name, axis=merged["axis"],
                num_blocks=merged["num_blocks"], mode=mode,
                value=float(value),
            )
        )
    # deterministic ordering by model registry position
    order = {name: i for i, name in enumerate(TENSOR_NAMES)}
    entries.sort(key=lambda e: order[e.layer_name])
    return PruneSpec(entries=tuple(entries))


def _resolve_sweeps(raw: RawConfig | None, base: TrainConfig) -> dict[str, SweepSpec]:
    sweeps: dict[str, SweepSpec] = {}
    if raw is None:
        return sweeps
    for section in raw.sections:
        if not section.startswith("sweep."):
            continue
        name = section[len("sweep.") :]
        keys = raw.sections[section]
        if "vary" not in keys or "values" not in keys:
            raise ConfigError(
                f"{_loc(raw, section)}: sweep needs both vary and values"
            )
        vary = _convert(raw, section, "vary", str)
        if vary not in _SWEEP_VALUE_TYPE:
            raise ConfigError(
                f"{_loc(raw, section)}: unknown sweep dimension {vary!r}"
            )
        raw_values = _convert(raw, section, "values", "strlist")
        kind = _SWEEP_VALUE_TYPE[vary]
        try:
            values = tuple(kind(v) for v in raw_values)
        except ValueError:
            raise ConfigError(
                f"{_loc(raw, section)}: values for {vary} must be "
                f"{kind.__name__}"
            ) from None
        sweeps[name] = SweepSpec(name=name, base=base, vary=vary, values=values)
    return sweeps
