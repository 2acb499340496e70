"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench

Each workload runs through the same command line the benchmark is run
with, untraced and traced, and must emit exactly the metrics that
BENCHMARK.json names, with their units, with every output check passing.
Exact counts must repeat between runs, the tracer must survive a
missing target, and the command must refuse to run without the package
sources beside it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from tracer import ID, NAME, PARENT, SpanIndex, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = ("sparse.computed_", "experiments.steps_", "trainer.steps",
         "pruner.segments_zeroed", "model.forward_calls",
         "regularizer.penalty_calls", "regularizer.gamma_update_calls")


def bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    proc = subprocess.run(
        SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace),
                           "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


def result(workload: str, trace: int, seed: int = 5) -> dict:
    proc = bench(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = result(workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
        if not trace:
            assert got["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", ["sweep", "serve"])
def test_exact_counts_repeat(workload):
    first, second = (result(workload, 1)["metrics"] for _ in range(2))
    exact = [k for k in first if k.startswith(EXACT)]
    assert exact
    for key in exact:
        assert first[key]["value"] == second[key]["value"], key
    if workload == "sweep":
        assert first["experiments.steps_unique"]["value"] > 0
        assert (first["experiments.steps_unique"]["value"]
                < first["experiments.steps_executed"]["value"])


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_records_nesting_and_reports_missing_targets(monkeypatch):
    pkg = types.ModuleType("toypkg")
    mod = types.ModuleType("toypkg.mod")

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    user = types.ModuleType("toypkg.user")
    user.inner = inner  # bound by name elsewhere, as `from .mod import inner`
    for m in (pkg, mod, user):
        monkeypatch.setitem(sys.modules, m.__name__, m)

    tracer = Tracer("toypkg", targets=(("mod", "outer"), ("mod", "inner"),
                                       ("mod", "gone"), ("nomod", "f")))
    with tracer.installed():
        assert user.inner is not inner
        with tracer.span("bench.top"):
            assert mod.outer() == 2
    assert mod.inner is inner and user.inner is inner
    assert tracer.missing == ["mod.gone", "nomod.f"]

    idx = SpanIndex(tracer.spans)
    (top,) = idx.named("bench.top")
    (out,) = idx.named("mod.outer")
    (inn,) = idx.named("mod.inner")
    assert out[PARENT] == top[ID] and inn[PARENT] == out[ID]
    assert idx.self_time(out) == pytest.approx(
        idx.duration(out) - idx.duration(inn))
    assert [s[NAME] for s in idx.descendants(top)][0] == "mod.outer"
