"""Block-structured weight pruning with reweighted group-Lasso training.

The package trains a small transformer classifier on a synthetic token
task, drives row or column segment norms toward zero with a reweighted
group penalty, prunes whole segments, retrains under a fixed mask, and
stores the result in a block-structured sparse format.

Importing the package sets glibc's allocator so that freed numpy
buffers stay in the process for reuse: no allocation is served by
`mmap`, and free memory at the top of the heap is not handed back to
the OS. By default glibc maps every request of 32 MiB or more (and
smaller ones until a `free` raises its threshold), unmaps it at `free`
and trims the heap's top, so each serving-size `evaluate` (dim 256,
ffn 1024, seq 128, 64 sequences) page-faulted 13,000-19,500 pages back
in when it forwarded whole batches of 32 (32 MiB FFN activations) and
16,000-84,000 in 4 MiB chunks, a fifth to a half of its wall clock in
the kernel; with this policy a repeated `evaluate` takes no faults.
Every thread allocates from the one heap: glibc gives other threads
arenas of their own, and unmaps such an arena's heap once its top is
free whatever the trim threshold, so a serving-size `evaluate` split
over two threads took ~1,030 faults on every repeat in most processes
with per-thread arenas, and 3 once warm with one heap. The cost is
that the process's RSS no longer shrinks after a peak. Where the C
library has no `mallopt` nothing changes.
"""

import ctypes

# glibc's <malloc.h> parameter numbers
M_TRIM_THRESHOLD = -1
M_MMAP_MAX = -4
M_ARENA_MAX = -8


def keep_freed_memory(libc) -> None:
    """Serve every allocation from one heap and never trim its top.

    `libc` is a loaded C library; one without `mallopt` is left as is.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_MAX, 0)
    mallopt(M_TRIM_THRESHOLD, 2**31 - 1)  # the largest value an int holds
    mallopt(M_ARENA_MAX, 1)


try:
    keep_freed_memory(ctypes.CDLL(None))
except (OSError, TypeError):  # no C library handle for this process
    pass

from .errors import (
    BlockpruneError,
    CheckpointError,
    ConfigError,
    DataError,
    MaskError,
    NonFiniteError,
    PartitionError,
    ShapeError,
)
from .model import (
    ArchConfig,
    Dataset,
    ModelParams,
    WeightTensor,
    build_model,
    evaluate,
    forward,
    load_checkpoint,
    loss,
    loss_and_gradients,
    make_synthetic_dataset,
    save_checkpoint,
)
from .pruner import (
    PruneEntry,
    PruneMask,
    PruneSpec,
    compression_rate,
    load_masks,
    prune_model,
    prune_percentile,
    prune_threshold,
    save_masks,
)
from .regularizer import (
    BlockPartition,
    GammaWeights,
    gamma_update,
    group_norms,
    make_partition,
    penalty,
    penalty_grad,
)
from .sparse import (
    BlockStructuredMatrix,
    CooMatrix,
    StorageReport,
    load_block_structured,
    save_block_structured,
    spmm,
    storage_cost,
    to_block_structured,
    to_coo,
)
from .trainer import (
    PipelineResult,
    RunReport,
    TrainConfig,
    plain_train,
    retrain,
    reweighted_train,
    run_pipeline,
)

__version__ = "0.1.0"

__all__ = [
    "ArchConfig",
    "BlockPartition",
    "BlockStructuredMatrix",
    "BlockpruneError",
    "CheckpointError",
    "ConfigError",
    "CooMatrix",
    "DataError",
    "Dataset",
    "GammaWeights",
    "MaskError",
    "ModelParams",
    "NonFiniteError",
    "PartitionError",
    "PipelineResult",
    "PruneEntry",
    "PruneMask",
    "PruneSpec",
    "RunReport",
    "ShapeError",
    "StorageReport",
    "TrainConfig",
    "WeightTensor",
    "build_model",
    "compression_rate",
    "evaluate",
    "forward",
    "gamma_update",
    "group_norms",
    "load_block_structured",
    "load_checkpoint",
    "load_masks",
    "loss",
    "loss_and_gradients",
    "make_partition",
    "make_synthetic_dataset",
    "penalty",
    "penalty_grad",
    "plain_train",
    "prune_model",
    "prune_percentile",
    "prune_threshold",
    "retrain",
    "reweighted_train",
    "run_pipeline",
    "save_block_structured",
    "save_checkpoint",
    "save_masks",
    "spmm",
    "storage_cost",
    "to_block_structured",
    "to_coo",
    "__version__",
]
