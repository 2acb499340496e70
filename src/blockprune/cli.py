"""Command-line entry point.

Commands: train, sweep, sensitivity, storage-report, bench, eval.
Shared flags: --config, --out, --seed, --verbose, --workers. Exit codes:
0 success, 1 runtime failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import Settings, parse_config, resolve_settings
from .errors import BlockpruneError, ConfigError, MaskError
from .experiments import save_table, sensitivity_scan, sweep
from .model import (LAYOUT, TENSOR_NAMES, ArchConfig, ModelParams, evaluate,
                    load_checkpoint)
from .pruner import load_masks, model_compression_rates, \
    sparsity as mask_sparsity
from .sparse import (bench_environment, bench_spmm, storage_cost,
                     to_block_structured, to_coo, whole_block_cost)
from .trainer import run_dataset, run_pipeline


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="config file path")
    common.add_argument("--out", help="output directory", default="blockprune_out")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--verbose", action="store_true")
    common.add_argument("--workers", type=int, default=1,
                        help="worker processes for the cells of a sweep or "
                             "sensitivity scan (forked, so Linux only); 1 "
                             "runs them in this process")

    parser = argparse.ArgumentParser(
        prog="blockprune",
        description="Block-structured pruning with reweighted group-Lasso "
                    "training on a toy transformer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common],
                       help="run the full pipeline")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", parents=[common],
                       help="run a named sweep from the config")
    p.add_argument("name", help="sweep name, matching a [sweep.NAME] section")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sensitivity", parents=[common],
                       help="prune one layer at a time and compare")
    p.add_argument("--ratio", type=float,
                   help="per-layer sparsity (default from config)")
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("storage-report", parents=[common],
                       help="storage cost of a pruned checkpoint per format")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.add_argument("--mask", required=True, help="mask file")
    p.set_defaults(func=cmd_storage_report)

    p = sub.add_parser("bench", parents=[common],
                       help="time the matmul kernels per format")
    p.add_argument("--sizes", default="256,1024")
    p.add_argument("--sparsities", default="0.0,0.3,0.5,0.8")
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--num-blocks", type=int, default=8)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("eval", parents=[common],
                       help="evaluate a checkpoint on the synthetic task")
    p.add_argument("--checkpoint", required=True, help="checkpoint directory")
    p.set_defaults(func=cmd_eval)
    return parser


def _load_settings(args) -> Settings:
    raw = parse_config(args.config) if args.config else None
    flags = {}
    if args.seed is not None:
        flags["train.seed"] = args.seed
    settings, sources = resolve_settings(raw, flags)
    if args.verbose:
        print("# resolved settings (flag > config > default):")
        for key in sorted(sources):
            print(f"#   {key}: {sources[key]}")
    return settings


def _table(rows: list[dict], columns: list[str], out_dir: str, file: str,
           meta: dict) -> None:
    """Print one `key=value` line per row; then, unless out_dir is
    empty, write the rows to out_dir/file and print its path."""
    for row in rows:
        print(" ".join(f"{c}={row[c]}" for c in columns))
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, file)
        save_table(rows, columns, path, meta=meta)
        print(f"table written to {path}")


def cmd_train(args) -> int:
    settings = _load_settings(args)
    result = run_pipeline(settings.train, out_dir=args.out, verbose=args.verbose)
    print(f"baseline_accuracy={result.baseline_accuracy!r}")
    print(f"final_accuracy={result.final_accuracy!r}")
    print(f"compression_prunable={result.compression!r}")
    print(f"compression_all={result.compression_all!r}")
    print(f"outputs in {args.out}")
    return 0


def cmd_sweep(args) -> int:
    settings = _load_settings(args)
    if args.name not in settings.sweeps:
        raise ConfigError(
            f"no [sweep.{args.name}] section in the config "
            f"(available: {sorted(settings.sweeps) or 'none'})"
        )
    spec = settings.sweeps[args.name]
    rows = sweep(spec, workers=args.workers)
    columns = ["value", "accuracy", "compression", "wall_clock_seconds", "status"]
    _table(rows, columns, args.out, f"{args.name}.csv",
           {"seed": spec.base.seed, "sweep": args.name, "vary": spec.vary})
    return 0


def cmd_sensitivity(args) -> int:
    settings = _load_settings(args)
    ratio = args.ratio if args.ratio is not None else settings.sensitivity_ratio
    rows = sensitivity_scan(
        settings.train, ratio,
        include_nonprunable=settings.sensitivity_include_nonprunable,
        workers=args.workers,
    )
    columns = ["layer", "accuracy", "compression", "wall_clock_seconds", "status"]
    _table(rows, columns, args.out, "sensitivity.csv",
           {"seed": settings.train.seed, "ratio": ratio})
    return 0


def cmd_storage_report(args) -> int:
    params = load_checkpoint(args.checkpoint)
    masks = load_masks(args.mask)
    for name, mask in masks.items():
        if name not in params.names():
            raise MaskError(
                f"mask names layer {name!r} absent from the checkpoint"
            )
        shape = mask.partition.matrix_shape
        if params.tensor(name).matrix.shape != shape:
            raise MaskError(
                f"mask shape {shape} does not match layer "
                f"{name!r} {params.tensor(name).matrix.shape}"
            )
    print("# blockprune storage report v1")
    print(f"# checkpoint={args.checkpoint} mask={args.mask}")
    totals = dict.fromkeys(("dense", "coo", "block_structured", "whole_block"), 0)
    tiles_divide = True
    for name, mask in masks.items():
        w = params.tensor(name).matrix * mask.bits
        wb = whole_block_cost(mask)
        reports = [
            storage_cost(w),
            storage_cost(to_coo(w)),
            storage_cost(to_block_structured(w, mask)),
        ] + ([] if wb is None else [wb])
        print(f"layer {name} {w.shape[0]}x{w.shape[1]} "
              f"sparsity={mask_sparsity(mask)!r}")
        for rep in reports:
            print(f"  {rep.format_name} total={rep.total_units} "
                  f"values={rep.value_units} index={rep.index_units}")
            totals[rep.format_name] += rep.total_units
        if wb is None:
            print("  whole_block n/a (tile does not divide matrix)")
            tiles_divide = False
    wb_text = str(totals["whole_block"]) if tiles_divide else "n/a"
    print(f"totals: dense={totals['dense']} coo={totals['coo']} "
          f"whole_block={wb_text} "
          f"block_structured={totals['block_structured']}")
    prunable, everything = model_compression_rates(params, masks)
    print(f"compression_prunable={prunable!r}")
    print(f"compression_all={everything!r}")
    return 0


def cmd_bench(args) -> int:
    if args.reps < 3:
        raise ConfigError(f"--reps must be >= 3, got {args.reps}")
    try:
        sizes = [int(v) for v in args.sizes.split(",") if v.strip()]
        sparsities = [float(v) for v in args.sparsities.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(
            f"cannot parse --sizes {args.sizes!r} / --sparsities "
            f"{args.sparsities!r}"
        ) from None
    if not sizes or not sparsities:
        raise ConfigError("need at least one size and one sparsity")
    if min(sizes) < 1:
        raise ConfigError(f"--sizes must be >= 1, got {args.sizes!r}")
    if not all(0.0 <= s < 1.0 for s in sparsities):  # false for nan too
        raise ConfigError(
            f"--sparsities must lie in [0, 1), got {args.sparsities!r}"
        )
    if args.num_blocks < 1:
        raise ConfigError(f"--num-blocks must be >= 1, got {args.num_blocks}")
    for n in sizes:
        if n % args.num_blocks:
            raise ConfigError(
                f"--num-blocks {args.num_blocks} does not divide size {n}"
            )
    seed = args.seed if args.seed is not None else 0
    rows = bench_spmm(sizes, sparsities, args.reps,
                      num_blocks=args.num_blocks, seed=seed)
    columns = ["size", "sparsity", "format", "median_seconds"]
    _table(rows, columns, args.out, "bench.csv",
           {"seed": seed, "reps": args.reps, **bench_environment()})
    return 0


def _check_arch(params: ModelParams, arch: ArchConfig, path: str) -> None:
    """Reject a checkpoint that is not a model of the config's arch."""
    names = list(TENSOR_NAMES)
    if params.names() != names:
        raise ConfigError(
            f"checkpoint {path} holds tensors {params.names()}, "
            f"the model has {names}"
        )
    for name, _, _, fields, biased in LAYOUT:
        t = params.tensor(name)
        for field, size in zip(fields, t.matrix.shape):
            if size != getattr(arch, field):
                raise ConfigError(
                    f"checkpoint {path}: {name} is "
                    f"{t.matrix.shape[0]}x{t.matrix.shape[1]}, so "
                    f"model.{field} = {size}, but the config has "
                    f"model.{field} = {getattr(arch, field)}"
                )
        if (t.bias is not None) != biased:
            raise ConfigError(
                f"checkpoint {path}: {name} "
                f"{'has' if t.bias is not None else 'lacks'} a bias"
            )


def cmd_eval(args) -> int:
    settings = _load_settings(args)
    cfg = settings.train
    params = load_checkpoint(args.checkpoint)
    _check_arch(params, cfg.arch, args.checkpoint)
    print(f"accuracy={evaluate(params, run_dataset(cfg, 'eval'))!r}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (BlockpruneError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
