"""Config file parsing and resolution into runnable settings.

Format: `[section]` headers and `key = value` lines. Full-line comments
start with `#`. Unknown sections, unknown keys, and duplicates are
rejected with the line number; a config that parses is fully validated.

Each setting is declared once. Types live in `_SCHEMA` and fields in
the dataclasses: the [model] keys other than prunable are the
`ArchConfig` fields, and the [dataset] and [train] keys other than
milestones and milestone_every are the `TrainConfig` fields of the same
name, whose defaults are the dataclass defaults. The resolver builds
both dataclasses from the schema.

Precedence is command-line flag over config file over built-in default.
Every key has a default, so an empty or absent config still resolves.
The resolver also returns, per key, where its value came from, which the
CLI prints in verbose mode.

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

import os
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .experiments import VARY, SweepSpec, steps_per_epoch
from .model import LAYOUT, TENSOR_NAMES, ArchConfig
from .pruner import PruneEntry, PruneSpec
from .trainer import TrainConfig

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

# the [train] keys that resolve to TrainConfig.milestones
_MILESTONE_KEYS = ("milestone_every", "milestones")

# model, dataset and train defaults are the dataclass field defaults;
# the keys below them have no dataclass field of their own
_FIELD_DEFAULTS = TrainConfig()
DEFAULTS = {
    **{f"model.{f.name}": getattr(_FIELD_DEFAULTS.arch, f.name)
       for f in fields(ArchConfig)},
    "model.prunable": [name for name, _, prunable, *_ in LAYOUT if prunable],
    **{f"{section}.{key}": getattr(_FIELD_DEFAULTS, key)
       for section in ("dataset", "train") for key in _SCHEMA[section]
       if key not in _MILESTONE_KEYS},
    "train.milestone_every": None,  # None: every 4 epochs
    "train.milestones": None,
    "prune.layers": ["all"],
    "prune.axis": "row",
    "prune.num_blocks": 8,
    "prune.mode": "percentile",
    "prune.sparsity": 0.5,
    "prune.threshold": None,
    "sensitivity.ratio": 0.5,
    "sensitivity.include_nonprunable": False,
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


def _convert(raw: RawConfig, section: str, key: str):
    kind = _schema_for(section)[key]
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

    def get(section: str, key: str):
        dotted = f"{section}.{key}"
        if dotted in flags and flags[dotted] is not None:
            sources[dotted] = "flag"
            return flags[dotted]
        if raw is not None and key in raw.sections.get(section, {}):
            sources[dotted] = "config"
            return _convert(raw, section, key)
        sources[dotted] = "default"
        return DEFAULTS[dotted]

    def checked(config: TrainConfig) -> TrainConfig:
        try:
            config.validate()
        except Exception as exc:
            raise ConfigError(
                f"{raw.path if raw else '<defaults>'}: {exc}"
            ) from exc
        return config

    arch = ArchConfig(**{f.name: get("model", f.name) for f in fields(ArchConfig)})
    prunable_value = get("model", "prunable")
    for name in prunable_value:
        if name not in TENSOR_NAMES:
            raise ConfigError(
                f"{_loc(raw, 'model')}: prunable names unknown tensor {name!r}"
            )
    prunable_overrides = {
        name: (name in prunable_value) for name in TENSOR_NAMES
    }
    prunable_set = tuple(n for n in TENSOR_NAMES if prunable_overrides[n])
    scalars = {
        key: get(section, key) for section in ("dataset", "train")
        for key in _SCHEMA[section] if key not in _MILESTONE_KEYS
    }

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
            milestones_value = tuple(_convert(raw, "train", "milestones"))
            sources["train.milestones"] = "config"
        elif has_every:
            every = _convert(raw, "train", "milestone_every")
            if every < 1:
                raise ConfigError(
                    f"{_loc(raw, 'train')}: milestone_every must be >= 1"
                )
            milestones_value = tuple(range(every, scalars["t1"], every))
            sources["train.milestones"] = "config"
    # the scalar fields are checked before the default milestones are
    # derived from batch_size and train_samples
    config = checked(TrainConfig(arch=arch, **scalars))
    if milestones_value is None:
        # default: refresh gamma every four epochs of reweighted steps
        every = 4 * steps_per_epoch(config)
        milestones_value = tuple(range(every, config.t1, every))
        sources["train.milestones"] = "default"

    config = checked(replace(
        config, milestones=milestones_value,
        prune_spec=_resolve_prune(raw, prunable_set, get),
        prunable_overrides=prunable_overrides,
    ))
    return Settings(
        train=config,
        sweeps=_resolve_sweeps(raw, config),
        sensitivity_ratio=get("sensitivity", "ratio"),
        sensitivity_include_nonprunable=get("sensitivity", "include_nonprunable"),
    ), sources


def _loc(raw: RawConfig | None, section: str) -> str:
    if raw is None:
        return "<defaults>"
    lineno = raw.section_lines.get(section)
    return f"{raw.path}:{lineno}" if lineno else raw.path


def _resolve_prune(raw, prunable_set, get) -> PruneSpec:
    layers = get("prune", "layers")
    layers = list(prunable_set if layers == ["all"] else layers)
    base = {key: get("prune", key) for key in _SCHEMA["prune.*"]}
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
            per_layer[name] = {
                key: _convert(raw, section, key) for key in raw.sections[section]
            }
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
        vary = _convert(raw, section, "vary")
        if vary not in VARY:
            raise ConfigError(
                f"{_loc(raw, section)}: unknown sweep dimension {vary!r}"
            )
        raw_values = _convert(raw, section, "values")
        kind = VARY[vary]
        try:
            values = tuple(kind(v) for v in raw_values)
        except ValueError:
            raise ConfigError(
                f"{_loc(raw, section)}: values for {vary} must be "
                f"{kind.__name__}"
            ) from None
        if not values:
            raise ConfigError(f"{_loc(raw, section)}: sweep {name!r} has no values")
        sweeps[name] = SweepSpec(name=name, base=base, vary=vary, values=values)
    return sweeps
