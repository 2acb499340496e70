"""The blockprune benchmark: one command per workload, outputs checked.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Run from the root of a blockprune checkout; the package is imported
from its `src/` directory, nothing needs installing. Workloads:

- pipeline: `blockprune train` on configs/default.cfg with its three
  step counts divided by four, repeated at one seed.
- sweep: `blockprune sweep compression --workers 2` on the same config
  (cells at 1.428x, 2x and 5x), checked against a serial run.
- serve: a pruned model at serving size (dim 256, ffn 1024, seq 128,
  0.8 row-block sparsity): pack, save and load its pruned weights, then
  evaluate it; and the block kernel `spmm` at 1024 x 1024 on both axes,
  checked against BLAS `@`.

Every run prints every end-to-end metric, so each workload also runs a
short fixed probe of another section, spread over the whole run: one
probe unit before the first unit of its own, then one after each unit
of its own (none on serve), the rest after its own closing checks.
Pipeline probes serving with 5 units, sweep probes serving with 4 (the
last after its serial check run), serve probes training with 2, one at
each end. Units of its own start until the `--seconds` budget, which
counts from the first probe unit, is spent. The probe runs in a process
of its own, one unit at a time while this one waits, so each section's
timings depend on its own history only: with serving probed in the
training process, `spmm_col_ms` on pipeline read either ~360 ms or
~480 ms depending on the run, unlike on serve. End-to-end metrics,
medians unless said otherwise:

- setup_s: wall clock of a fresh process that imports the package,
  resolves the config and builds the serving dataset, model and kernel
  operands; median of five such processes.
- pipeline_s: one `blockprune train` run; on sweep, one cell of the
  serial check run, where each cell runs alone.
- train_steps_per_s: steps of the three training phases over their
  reported wall clocks; on sweep, all cells' steps over the sweep's
  wall clock.
- final_accuracy: of the run, or of the sweep's 2x cell (same config).
- sweep_cells_per_min: sweeps' cells per minute; elsewhere, one cell
  per `blockprune train` run (60 / pipeline_s).
- serve_tokens_per_s: tokens of the serving set over one `evaluate`.
- spmm_row_ms, spmm_col_ms: one `spmm` at 1024 x 1024 x 1024, 0.8.
- pack_ms: pack, save and load all six pruned weights once.
- peak_rss_mb: peak resident memory of the largest benchmark process.

With `--trace 0` the last stdout line is one JSON object with the
end-to-end metrics. With `--trace 1` everything runs with spans
recorded around the package's public functions (see tracer.py), plus
one call per cell of the kernel table, and the result holds the
per-layer metrics (see layers.py); the probe then runs in this process,
so its spans are recorded too. Each traced unit of the workload's
own section follows an untraced one; the two medians give the tracing
overhead. Spans are written to `.perfbench/` at the end.

BLAS runs on one thread, so sweep workers times BLAS threads never
exceeds the core count. The environment is printed on the line before
the result and saved with it in `.perfbench/`.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in the set-up processes
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# workload -> (its own section, probe section, probe units, probe units
# after each unit of its own); the host's speed drifts over seconds to
# minutes, so a probe metric is steadiest from run to run when its
# samples are taken at as many points of the run as possible
PLANS = {
    "pipeline": ("train", "serve", 5, 1),
    "sweep": ("sweep", "serve", 4, 1),
    "serve": ("serve", "train", 2, 0),
}
MAIN_UNITS = {"train": 3, "sweep": 1, "serve": 3}
SETUP_REPS = 5
SETUP_TIMEOUT_S = 120
PROBE_TIMEOUT_S = 150  # for any one reply of the probe process
SWEEP_WORKERS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "train_steps_per_s": "1/s",
    "final_accuracy": "fraction",
    "sweep_cells_per_min": "1/min",
    "serve_tokens_per_s": "1/s",
    "spmm_row_ms": "ms",
    "spmm_col_ms": "ms",
    "pack_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=tuple(PLANS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every size, for the benchmark's own test")
    p.add_argument("--setup-probe", metavar="DIR",
                   help="only run the set-up into DIR and exit")
    p.add_argument("--probe-worker", metavar="DIR",
                   help="run the workload's probe section in DIR, one "
                        "unit per request on stdin")
    return p.parse_args(argv)


def import_package():
    """Import blockprune from this checkout's src/, never from elsewhere."""
    if not (SRC / "blockprune" / "__init__.py").is_file():
        raise SystemExit(f"error: no blockprune package under {SRC}")
    if not (ROOT / "configs" / "default.cfg").is_file():
        raise SystemExit(f"error: no configs/default.cfg under {ROOT}")
    sys.path.insert(0, str(SRC))
    import blockprune

    where = Path(blockprune.__file__).resolve().parent
    if where != SRC / "blockprune":
        raise SystemExit(f"error: blockprune imported from {where}, not {SRC}")


def blas_threads_in_use() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if it is OpenBLAS."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({
        line.split()[-1] for line in maps.splitlines()
        if "openblas" in line.lower() and line.split()[-1].startswith("/")
    })
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, nproc: int, workers: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_reported": blas_threads_in_use(),
        "sweep_workers": workers,
    }


def setup_times(args, work: Path) -> list[float]:
    """Wall clock of SETUP_REPS fresh processes that only set up."""
    times = []
    for i in range(SETUP_REPS):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", args.scale, "--setup-probe", str(work / f"setup-{i}")]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL)
        # wait() with a timeout polls in steps of up to 50 ms, too coarse
        # for set-up times near 0.4 s; block, and let a timer kill a hang
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        times.append(time.perf_counter() - t0)
        if code != 0:
            raise subprocess.CalledProcessError(code, cmd)
    return times


def no_span(name):
    return contextlib.nullcontext()


class ProbeProcess:
    """The workload's probe section in a process of its own.

    The process sets up its own inputs, then runs one unit per request
    while this process waits for its reply, so the two never compete
    for the cores. `finish()` runs the section's closing checks, adds
    the process's ledger to this one's and copies the section's RESULTS
    onto this object.
    """

    def __init__(self, args, work: Path, ledger):
        self.ledger = ledger
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", args.scale, "--probe-worker", str(work)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        try:
            self._expect("ready")
        except BaseException:
            self.close()
            raise

    def _reply(self) -> str:
        timer = threading.Timer(PROBE_TIMEOUT_S, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        if not line:
            raise RuntimeError(f"probe process ended with {self.proc.wait()}")
        return line.strip()

    def _expect(self, want: str) -> None:
        got = self._reply()
        if got != want:
            raise RuntimeError(f"probe process replied {got!r}, not {want!r}")

    def _ask(self, request: str) -> None:
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()

    def unit(self, i: int) -> None:
        self._ask(f"unit {i}")
        self._expect("done")

    def finish(self) -> None:
        self._ask("finish")
        reply = json.loads(self._reply())
        self.close()
        self.ledger.merge(reply["ledger"])
        for key, value in reply["results"].items():
            setattr(self, key, value)

    def close(self) -> None:
        """Stop the process, if it still runs, and wait for it."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def probe_worker(args, sec, scale, workers) -> int:
    """The other end of a ProbeProcess: set up, then serve requests."""
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    os.dup2(sys.stderr.fileno(), sys.stdout.fileno())  # stray prints
    ledger = sec.Ledger()
    inp = sec.prepare(ROOT, Path(args.probe_worker), args.seed, scale)
    section = sec.SECTIONS[PLANS[args.workload][1]](inp, ledger, scale,
                                                    workers)
    print("ready", file=replies)
    for request in sys.stdin:
        verb, _, arg = request.strip().partition(" ")
        if verb == "unit":
            section.unit(int(arg))
            print("done", file=replies)
        elif verb == "finish":
            section.finish()
            print(json.dumps({
                "ledger": vars(ledger),
                "results": {k: getattr(section, k) for k in section.RESULTS},
            }), file=replies)
            return 0
        else:
            raise SystemExit(f"error: unknown request {request!r}")
    return 1  # the requests ended before `finish`


def run_sections(sec, inp, ledger, scale, workload, budget_s, workers,
                 span, probe, before_unit=None) -> dict:
    """The workload's own section on the budget, its probe interleaved.

    The first probe unit runs before the own section's first unit and
    within its budget, each unit of the own section is followed by the
    next `per_unit` probe units, and probe units left over run after the
    own section's closing checks, so samples of every section spread
    over the whole run. Then the probe runs its closing checks.
    `before_unit(i)`, if given, runs before unit i of the own section.
    """
    main, probe_name, probe_units, per_unit = PLANS[workload]
    sections = {main: sec.SECTIONS[main](inp, ledger, scale, workers),
                probe_name: probe}

    def unit(name, i):
        with span(f"bench.{name}"):
            sections[name].unit(i)

    probed = 0

    def probe_until(n):
        nonlocal probed
        while probed < min(n, probe_units):
            unit(probe_name, probed)
            probed += 1

    for i in sec.units(budget_s, MAIN_UNITS[main]):
        if i == 0:
            probe_until(1)
        if before_unit is not None:
            before_unit(i)
        unit(main, i)
        probe_until(probed + per_unit)
    with span(f"bench.{main}_check"):
        sections[main].finish()
    probe_until(probe_units)
    with span(f"bench.{probe_name}_check"):
        sections[probe_name].finish()
    return sections


def unit_times(name: str, section) -> list[float]:
    """Per-unit wall clocks of a section, for the tracing overhead."""
    return section.serve_s if name == "serve" else section.walls


def end_to_end(results: dict, setup: list[float]) -> dict[str, float]:
    m = {"setup_s": median(setup)}
    if "sweep" in results:
        sw = results["sweep"]
        m["pipeline_s"] = median(sw.serial_cell_walls)
        m["train_steps_per_s"] = median(
            sw.cells * sw.steps_per_cell / w for w in sw.walls)
        m["final_accuracy"] = sw.final_accuracy
        m["sweep_cells_per_min"] = median(60.0 * sw.cells / w for w in sw.walls)
    else:
        tr = results["train"]
        m["pipeline_s"] = median(tr.walls)
        m["train_steps_per_s"] = median(tr.steps_per_s)
        m["final_accuracy"] = tr.final_accuracy
        m["sweep_cells_per_min"] = 60.0 / m["pipeline_s"]  # one cell per run
    sv = results["serve"]
    m["serve_tokens_per_s"] = sv.tokens / median(sv.serve_s)
    m["spmm_row_ms"] = 1e3 * median(sv.spmm_s["row"])
    m["spmm_col_ms"] = 1e3 * median(sv.spmm_s["column"])
    m["pack_ms"] = 1e3 * median(sv.pack_s)
    m["peak_rss_mb"] = max(resource.getrusage(who).ru_maxrss for who in (
        resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        raise SystemExit("error: --seconds must be >= 1")
    import_package()
    import layers
    import sections as sec
    from tracer import Tracer

    scale = sec.SCALES[args.scale]
    if args.setup_probe:
        sec.prepare(ROOT, Path(args.setup_probe), args.seed, scale)
        return 0

    nproc = len(os.sched_getaffinity(0))
    workers = max(1, min(SWEEP_WORKERS, nproc // BLAS_THREADS))
    if args.probe_worker:
        return probe_worker(args, sec, scale, workers)
    env = environment(args, nproc, workers)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    ledger = sec.Ledger()
    main_section, probe_section = PLANS[args.workload][:2]
    probe = None
    try:
        if not args.trace:
            setup = setup_times(args, work)
            probe = ProbeProcess(args, work / "probe", ledger)
            inp = sec.prepare(ROOT, work / "run", args.seed, scale)
            results = run_sections(sec, inp, ledger, scale, args.workload,
                                   args.seconds, workers, no_span, probe)
            values = end_to_end(results, setup)
            metric_units = END_TO_END_UNITS
        else:
            # untraced units of the workload's own section alternate with
            # traced ones, so drift in machine speed hits both alike
            inp = sec.prepare(ROOT, work / "reference", args.seed, scale)
            untraced = sec.SECTIONS[main_section](inp, ledger, scale, workers)
            tracer = Tracer()

            def reference_unit(i):
                tracer.uninstall()
                try:
                    untraced.unit(i)
                finally:
                    tracer.install()

            with tracer.installed():
                with tracer.span("bench.setup"):
                    inp = sec.prepare(ROOT, work / "traced", args.seed, scale)
                probe = sec.SECTIONS[probe_section](inp, ledger, scale,
                                                    workers)
                results = run_sections(sec, inp, ledger, scale, args.workload,
                                       args.seconds / 2, workers, tracer.span,
                                       probe, before_unit=reference_unit)
                with tracer.span("bench.kernels"):
                    counts = sec.kernel_table(inp, ledger, scale, tracer.span)
            reference = unit_times(main_section, untraced)
            traced = unit_times(main_section, results[main_section])
            overhead = 100.0 * (median(traced) / median(reference) - 1.0)
            steps_unique = results["sweep"].steps_unique if "sweep" in results else 0
            metrics = layers.layer_metrics(tracer.spans, counts, steps_unique,
                                           median(reference), overhead,
                                           tracer.missing)
            # one spans file per workload, overwritten: each is tens of MB
            tracer.write(str(OUT / f"spans-{args.workload}.json"))
            values = {k: v for k, (v, _) in metrics.items()}
            metric_units = {k: u for k, (_, u) in metrics.items()}
    finally:
        if isinstance(probe, ProbeProcess):
            probe.close()
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in metric_units.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"env": env, "failures": ledger.failures, "result": result}, indent=1
    ) + "\n", encoding="ascii")
    for failure in ledger.failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print("# env " + json.dumps(env))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
