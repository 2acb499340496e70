"""The allocator policy set when the package is imported."""

import ctypes
import os
import subprocess
import sys
import textwrap
import types

import pytest

import blockprune

HAS_MALLOPT = hasattr(ctypes.CDLL(None), "mallopt")

# a serving-size evaluate of 32 sequences, one share per free core, each
# share forwarded in chunks of 4 sequences whose FFN activations are
# 4 MiB (32 MiB for all 32 at once);
# argv[1] "pruned" row-prunes the projections at 0.8 first, so evaluate
# takes its packed path
REPEATED_EVALUATE = textwrap.dedent("""
    import resource
    import sys

    import numpy as np

    from blockprune.model import (PROJECTIONS, ArchConfig, build_model,
                                  evaluate, make_synthetic_dataset)
    from blockprune.pruner import PruneEntry, PruneSpec, prune_model

    arch = ArchConfig(vocab=8, dim=256, heads=1, ffn=1024, classes=8,
                      seq_len=128)
    params = build_model(arch, np.random.default_rng(0))
    if sys.argv[1] == "pruned":
        prune_model(params, PruneSpec(entries=tuple(
            PruneEntry(name, "row", 8, "percentile", 0.8)
            for name in PROJECTIONS)))
    data = make_synthetic_dataset(1, 32, 128, 8, 32)
    evaluate(params, data)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluate(params, data)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")

# a 1024^2 spmm at 0.8 sparsity on the axis argv[1]: past SPLIT_MIN_MACS,
# so its column slices run on two threads on a 2-core machine
REPEATED_SPMM = textwrap.dedent("""
    import resource
    import sys

    import numpy as np

    from blockprune.pruner import prune_percentile
    from blockprune.regularizer import make_partition
    from blockprune.sparse import spmm, to_block_structured

    rng = np.random.default_rng(0)
    w, b = rng.normal(size=(2, 1024, 1024))
    part = make_partition(1024, 1024, sys.argv[1], 8)
    pruned, mask = prune_percentile(w, part, 0.8)
    m = to_block_structured(pruned, mask)
    spmm(m, b)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    spmm(m, b)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
""")


@pytest.mark.skipif(not HAS_MALLOPT, reason="the C library has no mallopt")
def test_repeated_evaluate_reuses_freed_buffers():
    # a fresh process, so the heap holds only what this evaluate frees
    src = os.path.dirname(os.path.dirname(blockprune.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src if not path else os.pathsep.join((src, path))}
    for script, arg in ((REPEATED_EVALUATE, "dense"),
                        (REPEATED_EVALUATE, "pruned"),
                        (REPEATED_SPMM, "row"), (REPEATED_SPMM, "column")):
        done = subprocess.run(
            [sys.executable, "-c", script, arg], env=env,
            capture_output=True, text=True, timeout=120, check=True)
        # glibc's default maps and unmaps evaluate's activations: 8,000-
        # 41,000 faults in 4 MiB chunks, 3,400-9,600 in whole slices
        assert int(done.stdout) < 1000, arg


def test_policy_turns_off_mmap_and_trimming():
    calls = []
    libc = types.SimpleNamespace(mallopt=lambda *args: calls.append(args))
    blockprune.keep_freed_memory(libc)
    assert calls == [(blockprune.M_MMAP_MAX, 0),
                     (blockprune.M_TRIM_THRESHOLD, 2**31 - 1),
                     (blockprune.M_ARENA_MAX, 1)]
    assert libc.mallopt.argtypes == (ctypes.c_int, ctypes.c_int)


def test_policy_without_mallopt_is_a_silent_no_op(capsys):
    blockprune.keep_freed_memory(object())
    assert capsys.readouterr() == ("", "")
