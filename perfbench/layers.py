"""Per-layer metrics from the spans of a traced run.

A layer is a module of the package; a span's layer is the part of its
name before the first dot. Benchmark spans are named `bench.*`. Times
are medians over calls (p50) unless the name says otherwise; counts are
per pipeline run, where a pipeline run is one `trainer.run_pipeline`
span (a `blockprune train` run or one sweep cell). A metric whose spans
did not occur in the run, such as the sweep's on the pipeline workload,
reads 0.
"""

from __future__ import annotations

from statistics import median

from sections import AXES, KERNEL_SPARSITIES
from tracer import COUNT, ID, NAME, PARENT, START, SpanIndex

PHASES = (
    ("baseline", "trainer.plain_train"),
    ("reweighted", "trainer.reweighted_train"),
    ("retrain", "trainer.retrain"),
)
SECTIONS = ("bench.setup", "bench.kernels") + tuple(
    f"bench.{name}{suffix}" for name in ("train", "sweep", "serve")
    for suffix in ("", "_check")
)


def p50(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def layer_of(span) -> str:
    return span[NAME].partition(".")[0]


def layer_metrics(spans: list[tuple], kernel_counts: dict,
                  steps_unique: int, untraced_unit_s: float,
                  overhead_pct: float,
                  missing: list[str]) -> dict[str, tuple[float, str]]:
    idx = SpanIndex(spans)
    dur = idx.duration
    sections = [s for s in spans if s[NAME] in SECTIONS and s[PARENT] is None]

    def in_section(name):
        return lambda s: idx.section(s, sections) == name

    named = idx.named

    def child_of(parent_name):
        return lambda s: (s[PARENT] is not None
                          and idx.by_id[s[PARENT]][NAME] == parent_name)

    m: dict[str, tuple[float, str]] = {}

    # pipeline runs: `blockprune train` runs and sweep cells
    runs = named("trainer.run_pipeline")
    inside = {r[ID]: idx.descendants(r) for r in runs}

    def per_run(fn):
        return p50(fn(r, inside[r[ID]]) for r in runs)

    def count_in(name):
        return lambda r, desc: sum(1 for s in desc if s[NAME] == name)

    def self_of(layer):
        return lambda r, desc: sum(
            idx.self_time(s) for s in [r] + desc if layer_of(s) == layer
        )

    # model
    m["model.forward_us"] = (
        1e6 * p50(map(dur, named("model.forward",
                                 child_of("model.loss_and_gradients")))), "us")
    m["model.backward_us"] = (1e6 * p50(map(dur, named("model.backward"))), "us")
    m["model.forward_calls"] = (per_run(count_in("model.forward")), "count")
    serve = in_section("bench.serve")
    m["model.evaluate_s"] = (p50(map(dur, named("model.evaluate", serve))), "s")
    by_evaluate = child_of("model.evaluate")
    m["model.serve_batch_ms"] = (1e3 * p50(map(dur, named(
        "model.forward", lambda s: serve(s) and by_evaluate(s)))), "ms")
    setup = in_section("bench.setup")
    m["model.make_synthetic_dataset_s"] = (
        p50(map(dur, named("model.make_synthetic_dataset", setup))), "s")
    m["model.build_model_ms"] = (
        1e3 * p50(map(dur, named("model.build_model", setup))), "ms")
    m["model.save_checkpoint_ms"] = (
        1e3 * p50(map(dur, named("model.save_checkpoint"))), "ms")
    m["model.load_checkpoint_ms"] = (
        1e3 * p50(map(dur, named("model.load_checkpoint"))), "ms")

    # self time per pipeline run of the layers that do the training
    for layer in ("model", "trainer", "regularizer"):
        m[f"{layer}.self_s"] = (per_run(self_of(layer)), "s")
    m["trace.accounted_pct"] = (
        100.0 * per_run(lambda r, desc: sum(
            self_of(layer)(r, desc)
            for layer in ("model", "trainer", "regularizer")
        ) / dur(r)), "%")

    # trainer
    m["trainer.adam_step_us"] = (
        1e6 * p50(map(dur, named("trainer.adam_step"))), "us")
    for phase, fn_name in PHASES:
        times = []
        for s in named(fn_name, child_of("trainer.run_pipeline")):
            desc = idx.descendants(s)
            steps = sum(1 for d in desc if d[NAME] == "model.loss_and_gradients"
                        and d[PARENT] == s[ID])
            evals = sum(dur(d) for d in desc if d[NAME] == "model.evaluate"
                        and d[PARENT] == s[ID])
            if steps:
                times.append((dur(s) - evals) / steps)
        m[f"trainer.step_ms.{phase}"] = (1e3 * p50(times), "ms")
    phase_names = {fn for _, fn in PHASES}
    m["trainer.loop_self_ms"] = (1e3 * per_run(lambda r, desc: sum(
        idx.self_time(s) for s in desc if s[NAME] in phase_names)), "ms")
    m["trainer.steps"] = (per_run(lambda r, desc: sum(
        1 for s in desc if s[NAME] == "model.loss_and_gradients"
        and idx.by_id[s[PARENT]][NAME] in phase_names)), "count")

    # regularizer
    for fn in ("penalty", "penalty_grad", "gamma_update"):
        m[f"regularizer.{fn}_us"] = (
            1e6 * p50(map(dur, named(f"regularizer.{fn}"))), "us")
        m[f"regularizer.{fn}_calls"] = (
            per_run(count_in(f"regularizer.{fn}")), "count")

    # pruner
    in_run = {s[ID] for desc in inside.values() for s in desc}
    prunes = [s for s in named("pruner.prune_model") if s[ID] in in_run]
    m["pruner.prune_model_ms"] = (1e3 * p50(map(dur, prunes)), "ms")
    m["pruner.save_masks_ms"] = (
        1e3 * p50(map(dur, named("pruner.save_masks"))), "ms")
    m["pruner.segments_zeroed"] = (p50(s[COUNT] for s in prunes), "count")

    # sparse: the kernel table, one call per cell, and the pack path
    for sparsity in KERNEL_SPARSITIES:
        for axis in AXES:
            t = p50(map(dur, named(
                "sparse.spmm", child_of(f"bench.kernel.{axis}.{sparsity}"))))
            flops, moved = kernel_counts.get((axis, sparsity), (0, 0))
            m[f"sparse.spmm_ms.{axis}.{sparsity}"] = (1e3 * t, "ms")
            m[f"sparse.spmm_gflops.{axis}.{sparsity}"] = (
                flops / t / 1e9 if t else 0.0, "GFLOP/s")
            m[f"sparse.computed_flops.{axis}.{sparsity}"] = (flops, "count")
            m[f"sparse.computed_bytes.{axis}.{sparsity}"] = (moved, "bytes")
        m[f"sparse.coo_spmm_ms.{sparsity}"] = (1e3 * p50(map(dur, named(
            "sparse.coo_spmm", child_of(f"bench.coo.{sparsity}")))), "ms")
        m[f"sparse.dense_blas_ms.{sparsity}"] = (
            1e3 * p50(map(dur, named(f"bench.dense_blas.{sparsity}"))), "ms")
    for fn in ("to_block_structured", "save_block_structured",
               "load_block_structured"):
        m[f"sparse.{fn}_ms"] = (
            1e3 * p50(map(dur, named(f"sparse.{fn}", serve))), "ms")

    # numerics: the fixed-order oracle at the check size
    m["numerics.matmul_ms"] = (
        1e3 * p50(map(dur, named("numerics.matmul"))), "ms")

    # experiments: cells of the measured sweeps, not of the serial check
    sweeps = named("experiments.sweep", in_section("bench.sweep"))
    cells, waits, executed = [], [], []
    for sw in sweeps:
        mine = [r for r in runs if sw[START] <= r[START] <= sw[START] + dur(sw)]
        cells += [dur(r) for r in mine]
        waits += [r[START] - sw[START] for r in mine]
        executed.append(sum(
            1 for r in mine for s in inside[r[ID]]
            if s[NAME] == "model.loss_and_gradients"
            and idx.by_id[s[PARENT]][NAME] in phase_names
        ))
    steps_executed = p50(executed)
    m["experiments.cell_s"] = (p50(cells), "s")
    m["experiments.cell_wait_s"] = (
        sum(waits) / len(waits) if waits else 0.0, "s")
    m["experiments.steps_executed"] = (steps_executed, "count")
    m["experiments.steps_unique"] = (steps_unique if sweeps else 0, "count")
    m["experiments.useful_step_ratio"] = (
        steps_unique / steps_executed if steps_executed else 0.0, "ratio")

    # config and cli, per `blockprune train` or `blockprune sweep` call
    work = ("trainer.run_pipeline", "experiments.sweep")
    mains = [s for s in named("cli.main")
             if any(c[NAME] in work for c in idx.children.get(s[ID], ()))]
    m["config.resolve_ms"] = (1e3 * p50(
        sum(dur(d) for d in idx.descendants(s) if layer_of(d) == "config")
        for s in mains), "ms")
    m["cli.overhead_ms"] = (1e3 * p50(
        dur(s) - sum(dur(c) for c in idx.children.get(s[ID], ())
                     if c[NAME] in work)
        for s in mains), "ms")

    m["trace.untraced_unit_s"] = (untraced_unit_s, "s")
    m["trace_overhead_pct"] = (overhead_pct, "%")
    m["trace.missing_targets"] = (len(missing), "count")
    m["trace.spans"] = (len(spans), "count")
    return m
