"""Toy transformer classifier with explicit analytic gradients.

Forward pipeline: token embedding -> single-head scaled dot-product
self-attention -> residual add -> two-layer ReLU feed-forward ->
residual add -> mean pool over the sequence -> affine classifier.
No layer norm, no dropout, no positional signal; the synthetic task
below does not need token order, and a small exact backward pass is
worth more here than architectural completeness.

The synthetic task: sequences of uniform random tokens, labeled by the
most frequent token id with ties going to the smallest id. A model that
learns to pool token histograms solves it, which exercises every weight
matrix on the way.

All parameters live in a ModelParams registry of named tensors, each a
view into one flat float64 buffer. The backward pass returns gradients
in a store of the same layout, so weights, gradients and optimizer state
line up entry for entry. Every analytic gradient is validated against
central finite differences in the test suite.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass

import numpy as np

from .errors import (CheckpointError, DataError, ShapeError, read_bytes,
                     read_lines, write_file)
from .numerics import blas_threads, run_pinned, usable_cores

EMBEDDING = "embedding"
ATTENTION = "attention"
FFN = "ffn"
CLASSIFIER = "classifier"
ROLES = (EMBEDDING, ATTENTION, FFN, CLASSIFIER)

# tensor name, role, prunable by default, the ArchConfig fields giving
# its (rows, cols), and whether it has a bias (which spans the columns);
# attention and ffn weights are fair game, embedding and classifier stay
# dense unless overridden
LAYOUT = (
    ("embedding", EMBEDDING, False, ("vocab", "dim"), False),
    ("Wq", ATTENTION, True, ("dim", "dim"), False),
    ("Wk", ATTENTION, True, ("dim", "dim"), False),
    ("Wv", ATTENTION, True, ("dim", "dim"), False),
    ("Wo", ATTENTION, True, ("dim", "dim"), False),
    ("ffn_in", FFN, True, ("dim", "ffn"), True),
    ("ffn_out", FFN, True, ("ffn", "dim"), True),
    ("classifier", CLASSIFIER, False, ("dim", "classes"), True),
)
TENSOR_NAMES = tuple(name for name, *_ in LAYOUT)


@dataclass
class ArchConfig:
    vocab: int = 8
    dim: int = 16
    heads: int = 1
    ffn: int = 32
    classes: int = 8
    seq_len: int = 16

    def validate(self) -> None:
        for name in ("vocab", "dim", "heads", "ffn", "classes", "seq_len"):
            if getattr(self, name) < 1:
                raise ShapeError(f"architecture field {name} must be positive")
        if self.heads != 1:
            raise ShapeError(
                f"this model is single-head only, got heads={self.heads}"
            )
        if not self.vocab >= self.classes >= 2:
            raise ShapeError(
                f"need vocab >= classes >= 2, got vocab={self.vocab} "
                f"classes={self.classes}"
            )


@dataclass
class WeightTensor:
    matrix: np.ndarray
    role: str
    prunable: bool
    bias: np.ndarray | None = None


class ModelParams:
    """Ordered registry of named weight tensors over one flat buffer.

    `flat` is a contiguous float64 vector holding every matrix and bias
    in registry order, matrix before bias. Each tensor's `matrix` and
    `bias` are reshaped views into it, so a write to either is a write
    to `flat` and the reverse. The constructor copies its inputs into a
    fresh buffer; a store pickles as its tensors and unpickles through
    the constructor, so the views of an unpickled store are views into
    its own `flat` too.
    """

    def __init__(self, tensors: list[tuple[str, WeightTensor]]):
        names = [n for n, _ in tensors]
        if len(set(names)) != len(names):
            raise ShapeError("tensor names must be unique")
        arrays = [
            a for _, t in tensors for a in (t.matrix, t.bias) if a is not None
        ]
        self.flat = np.concatenate([np.ravel(a) for a in arrays],
                                   dtype=np.float64)
        views = iter(np.split(self.flat, np.cumsum([np.size(a) for a in arrays])))

        def take(a):
            return None if a is None else next(views).reshape(np.shape(a))

        # keyword arguments evaluate in order: each matrix takes its view
        # before its bias does
        self._tensors = {
            name: WeightTensor(matrix=take(t.matrix), role=t.role,
                               prunable=t.prunable, bias=take(t.bias))
            for name, t in tensors
        }

    def names(self) -> list[str]:
        return list(self._tensors)

    def tensor(self, name: str) -> WeightTensor:
        if name not in self._tensors:
            raise ShapeError(f"no tensor named {name!r}")
        return self._tensors[name]

    def items(self):
        return self._tensors.items()

    def clone(self) -> "ModelParams":
        return ModelParams(list(self.items()))

    def __reduce__(self):
        return ModelParams, (list(self.items()),)

    def zeros_like(self) -> "ModelParams":
        """Same names, shapes and layout with every entry +0.0."""
        out = self.clone()
        out.flat[...] = 0.0
        return out


@dataclass(eq=False)
class Dataset:
    """Token sequences and their labels, cut into batches by row range.

    Checked once, when built. Batch k is rows [k * batch_size,
    min((k + 1) * batch_size, N)), so only the last batch may be short.
    `len` counts the batches, and iterating yields them in order, each
    a Dataset of views into these arrays. A dataset pickles as its two
    arrays and its batch size.
    """

    token_ids: np.ndarray  # (N, seq_len) ints
    labels: np.ndarray  # (N,) ints
    batch_size: int

    def __post_init__(self):
        self.token_ids = np.asarray(self.token_ids, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.token_ids.ndim != 2 or self.labels.ndim != 1:
            raise DataError(
                f"dataset shapes invalid: tokens {self.token_ids.shape}, "
                f"labels {self.labels.shape}"
            )
        if self.token_ids.shape[0] != self.labels.shape[0]:
            raise DataError("token and label counts differ")
        if self.token_ids.size == 0:
            raise DataError(f"empty dataset: tokens {self.token_ids.shape}")
        if self.token_ids.min() < 0:
            raise DataError("negative token id")
        if self.labels.min() < 0:
            raise DataError("negative label")
        if self.batch_size < 1:
            raise DataError(f"batch_size {self.batch_size} is below 1")

    def __len__(self) -> int:
        return -(-self.labels.size // self.batch_size)

    def __iter__(self):
        b = self.batch_size
        for lo in range(0, self.labels.size, b):
            yield Dataset(self.token_ids[lo:lo + b], self.labels[lo:lo + b], b)


@dataclass
class ForwardCache:
    """Activations retained for backward; valid for one (params, batch)."""

    token_ids: np.ndarray
    X: np.ndarray
    Q: np.ndarray
    K: np.ndarray
    V: np.ndarray
    A: np.ndarray
    att: np.ndarray
    H1: np.ndarray
    U: np.ndarray
    R: np.ndarray
    P: np.ndarray
    logits: np.ndarray


def build_model(config: ArchConfig, rng: np.random.Generator,
                prunable_overrides: dict[str, bool] | None = None) -> ModelParams:
    """Initialize all tensors from N(0, 1/fan_in); biases start at zero."""
    config.validate()
    overrides = prunable_overrides or {}
    for name in overrides:
        if name not in TENSOR_NAMES:
            raise ShapeError(f"prunable override names unknown tensor {name!r}")
    tensors = []
    for name, role, prunable, fields, biased in LAYOUT:
        rows, cols = (getattr(config, f) for f in fields)
        fan_in = rows if name != "embedding" else config.dim
        matrix = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(rows, cols))
        bias = np.zeros(cols) if biased else None
        tensors.append(
            (
                name,
                WeightTensor(
                    matrix=matrix,
                    role=role,
                    prunable=overrides.get(name, prunable),
                    bias=bias,
                ),
            )
        )
    return ModelParams(tensors)


def _softmax(x: np.ndarray) -> np.ndarray:
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def forward(params: ModelParams,
            token_ids: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """(B, S) token ids -> logits (B, classes) plus cache."""
    E = params.tensor("embedding").matrix
    toks = np.asarray(token_ids, dtype=np.int64)
    if toks.size and not 0 <= toks.min() <= toks.max() < E.shape[0]:
        raise DataError(f"token id out of range for vocab {E.shape[0]}")
    d = E.shape[1]
    Wq = params.tensor("Wq").matrix
    Wk = params.tensor("Wk").matrix
    Wv = params.tensor("Wv").matrix
    Wo = params.tensor("Wo").matrix
    fi = params.tensor("ffn_in")
    fo = params.tensor("ffn_out")
    cl = params.tensor("classifier")

    X = E[toks]  # (B, S, d)
    Q = X @ Wq
    K = X @ Wk
    V = X @ Wv
    scores = Q @ K.transpose(0, 2, 1) / np.sqrt(d)
    A = _softmax(scores)
    att = A @ V
    H1 = X + att @ Wo
    U = H1 @ fi.matrix + fi.bias
    R = np.maximum(U, 0.0)
    H2 = H1 + (R @ fo.matrix + fo.bias)
    P = H2.mean(axis=1)  # (B, d)
    logits = P @ cl.matrix + cl.bias
    cache = ForwardCache(
        token_ids=toks, X=X, Q=Q, K=K, V=V, A=A, att=att,
        H1=H1, U=U, R=R, P=P, logits=logits,
    )
    return logits, cache


def loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy over the batch."""
    labels = np.asarray(labels, dtype=np.int64)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} vs logits {logits.shape}")
    if labels.size and not (0 <= labels.min() and labels.max() < c):
        raise DataError(f"label out of range for {c} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(logz - shifted[np.arange(n), labels]))


def backward(params: ModelParams, cache: ForwardCache,
             labels: np.ndarray, grads: ModelParams) -> ModelParams:
    """Gradients of the mean cross-entropy for every tensor and bias,
    written over `grads`, a store laid out like `params`, and returned."""
    labels = np.asarray(labels, dtype=np.int64)
    toks = cache.token_ids
    B, S = toks.shape
    E = params.tensor("embedding").matrix
    d = E.shape[1]
    f = params.tensor("ffn_in").matrix.shape[1]
    # a stacked matmul runs about twice as fast against a contiguous
    # operand as against a transposed view, with the same bits; Wi is the
    # exception, where a copy of Wi.T changes the bits of dU @ Wi.T
    WqT, WkT, WvT, WoT, WfT = (
        np.ascontiguousarray(params.tensor(name).matrix.T)
        for name in ("Wq", "Wk", "Wv", "Wo", "ffn_out")
    )
    Wi = params.tensor("ffn_in").matrix
    Wc = params.tensor("classifier").matrix

    probs = _softmax(cache.logits)
    dlog = probs.copy()
    dlog[np.arange(B), labels] -= 1.0
    dlog /= B

    g = dict(grads.items())
    g["classifier"].matrix[...] = cache.P.T @ dlog
    g["classifier"].bias[...] = dlog.sum(axis=0)
    dP = dlog @ Wc.T
    dH2 = np.repeat(dP[:, None, :], S, axis=1) / S
    dF2 = dH2
    g["ffn_out"].matrix[...] = cache.R.reshape(-1, f).T @ dF2.reshape(-1, d)
    g["ffn_out"].bias[...] = dF2.sum(axis=(0, 1))
    dR = dF2 @ WfT
    dU = dR * (cache.U > 0)
    g["ffn_in"].matrix[...] = cache.H1.reshape(-1, d).T @ dU.reshape(-1, f)
    g["ffn_in"].bias[...] = dU.sum(axis=(0, 1))
    dH1 = dH2 + dU @ Wi.T
    dO = dH1
    g["Wo"].matrix[...] = cache.att.reshape(-1, d).T @ dO.reshape(-1, d)
    datt = dO @ WoT
    dA = datt @ cache.V.transpose(0, 2, 1)
    dV = cache.A.transpose(0, 2, 1) @ datt
    # softmax Jacobian applied row-wise to the attention weights
    ds = cache.A * (dA - (dA * cache.A).sum(axis=-1, keepdims=True))
    dQ = ds @ cache.K / np.sqrt(d)
    dK = ds.transpose(0, 2, 1) @ cache.Q / np.sqrt(d)
    g["Wq"].matrix[...] = cache.X.reshape(-1, d).T @ dQ.reshape(-1, d)
    g["Wk"].matrix[...] = cache.X.reshape(-1, d).T @ dK.reshape(-1, d)
    g["Wv"].matrix[...] = cache.X.reshape(-1, d).T @ dV.reshape(-1, d)
    dX = dH1 + dQ @ WqT + dK @ WkT + dV @ WvT
    _embedding_grad(toks, dX, g["embedding"].matrix)
    return grads


def _embedding_grad(toks: np.ndarray, dX: np.ndarray, out: np.ndarray) -> None:
    """out[t] = sum of dX over the positions holding token t.

    One bincount bin per (token, column) entry; bincount adds each bin's
    weights in index order starting from +0.0, which gives the bits of
    np.add.at(zeros, toks, dX) at about a quarter of its cost.
    """
    vocab, d = out.shape
    bins = (toks.reshape(-1, 1) * d + np.arange(d)).reshape(-1)
    out[...] = np.bincount(
        bins, weights=dX.reshape(-1), minlength=vocab * d
    ).reshape(vocab, d)


def loss_and_gradients(params: ModelParams, token_ids: np.ndarray,
                       labels: np.ndarray,
                       grads: ModelParams) -> tuple[float, ModelParams]:
    logits, cache = forward(params, token_ids)
    value = loss(logits, labels)
    return value, backward(params, cache, labels, grads)


def make_synthetic_dataset(seed: int, n_samples: int, seq_len: int,
                           vocab: int, batch_size: int = 32) -> Dataset:
    """Uniform random token sequences labeled by their modal token id.

    Ties go to the smallest id. Deterministic per seed; returned as one
    Dataset cut into batches of batch_size (the last may be short).
    """
    if vocab < 2:
        raise DataError(f"vocab must be >= 2, got {vocab}")
    if n_samples < 1 or seq_len < 1 or batch_size < 1:
        raise DataError("n_samples, seq_len, batch_size must be positive")
    rng = np.random.default_rng(seed)
    toks = rng.integers(0, vocab, size=(n_samples, seq_len))
    counts = np.zeros((n_samples, vocab), dtype=np.int64)
    for c in range(vocab):
        counts[:, c] = (toks == c).sum(axis=1)
    labels = counts.argmax(axis=1)  # argmax takes the first max: smallest id
    return Dataset(toks, labels, batch_size)


# `evaluate` splits a dataset over the cores once a batch's forward costs
# this many multiply-adds: with the pool thread pinned, split and whole
# cross over between 1.5e7 and 5.5e7 on two cores (table in CHANGES.md)
PARALLEL_MIN_MACS = 5 * 10**7
# `evaluate` forwards a core's share in chunks whose widest activation
# holds at most this many entries: 4 MiB of float64, 4 sequences at dim
# 256/ffn 1024/seq 128, a whole batch of 32 at dim 64 (table in CHANGES.md)
CHUNK_ELEMENTS = 1 << 19


def _forward_macs(params: ModelParams, token_ids: np.ndarray) -> int:
    """Multiply-adds of the matrix products in forward on `token_ids`."""
    B, S = token_ids.shape
    d, f = params.tensor("ffn_in").matrix.shape
    c = params.tensor("classifier").matrix.shape[1]
    return B * S * (4 * d * d + 2 * S * d + 2 * d * f) + B * d * c


def _cut(rows: int, n: int) -> list[tuple[int, int]]:
    """n near-equal contiguous parts of `rows`, fewer if one is under 2."""
    n = max(1, min(n, rows // 2))
    return [(rows * k // n, rows * (k + 1) // n) for k in range(n)]


# the weight matrices `evaluate` may multiply through their zero blocks
PROJECTIONS = ("Wq", "Wk", "Wv", "Wo", "ffn_in", "ffn_out")
# `evaluate` forwards through packed weights once a batch's forward costs
# this many multiply-adds (crossover table in CHANGES.md)
PACKED_MIN_MACS = 10**8
# a run's row gather and narrower product cost about as much as this
# many more columns of its product (fitted in CHANGES.md)
RUN_COST_COLUMNS = 40


def _column_runs(W: np.ndarray) -> list[tuple] | None:
    """W (din, dout) as maximal runs of columns that share their nonzero
    rows: (lo, hi, rows, W[rows, lo:hi].T contiguous) per run, with rows
    None where all are nonzero, and (lo, hi, None, None) where none is.

    Row-axis block pruning leaves one run per block. None when the runs
    would cost no less than W whole, each costed as its nonzero rows
    times its columns plus RUN_COST_COLUMNS: so for too few zeros, or
    for runs one column wide, as column-axis pruning leaves.
    """
    din, dout = W.shape
    nz = W != 0
    lows = np.flatnonzero(np.r_[True, (nz[:, 1:] != nz[:, :-1]).any(axis=0)])
    highs = np.r_[lows[1:], dout]
    kept = nz[:, lows].sum(axis=0)
    if kept @ (highs - lows + RUN_COST_COLUMNS) >= din * dout:
        return None
    runs = []
    for lo, hi, k in zip(lows.tolist(), highs.tolist(), kept.tolist()):
        if k == din:
            runs.append((lo, hi, None, np.ascontiguousarray(W[:, lo:hi].T)))
        elif k:
            rows = np.flatnonzero(nz[:, lo])
            runs.append((lo, hi, rows, np.ascontiguousarray(W[rows, lo:hi].T)))
        else:
            runs.append((lo, hi, None, None))
    return runs


def _project(W: np.ndarray, runs: list[tuple] | None,
             Xt: np.ndarray) -> np.ndarray:
    """(X @ W).T from Xt = X.T, one product per run of W, or one for
    the whole of W where it has no runs."""
    if runs is None:
        return W.T @ Xt
    Yt = np.empty((W.shape[1], Xt.shape[1]))
    # one gather buffer for all the runs: a fresh gather per run, with
    # two threads allocating from one heap, grew the heap by up to ~1,700
    # pages in a repeated serving-size evaluate
    most = max((r.size for _, _, r, _ in runs if r is not None), default=0)
    gathered = np.empty((most, Xt.shape[1]))
    for lo, hi, rows, WrT in runs:
        if WrT is None:
            Yt[lo:hi] = 0.0
        elif rows is None:
            np.matmul(WrT, Xt, out=Yt[lo:hi])
        else:
            # the rows are in range; "clip" writes to `out` unbuffered
            Xr = np.take(Xt, rows, axis=0, out=gathered[:rows.size],
                         mode="clip")
            np.matmul(WrT, Xr, out=Yt[lo:hi])
    return Yt


def _packed_forward(params: ModelParams, runs: dict[str, list | None],
                    token_ids: np.ndarray) -> np.ndarray:
    """The logits of `forward`, computed feature-major (activations as
    (features, tokens)) through the projections' column runs; they match
    to ~1e-16, not bit for bit. No cache is kept."""
    E = params.tensor("embedding").matrix
    toks = np.asarray(token_ids, dtype=np.int64)
    if toks.size and not 0 <= toks.min() <= toks.max() < E.shape[0]:
        raise DataError(f"token id out of range for vocab {E.shape[0]}")
    B, S = toks.shape
    d = E.shape[1]

    def project(name, Xt):
        return _project(params.tensor(name).matrix, runs[name], Xt)

    # (d, B * S), C-contiguous so a run's rows gather as whole rows
    Xt = np.take(np.ascontiguousarray(E.T), toks.ravel(), axis=1)
    Qt, Kt, Vt = (project(name, Xt) for name in ("Wq", "Wk", "Wv"))
    att = np.empty((d, B * S))
    for lo in range(0, B * S, S):
        seq = slice(lo, lo + S)
        A = _softmax(Qt[:, seq].T @ Kt[:, seq] / np.sqrt(d))
        att[:, seq] = Vt[:, seq] @ A.T
    del Qt, Kt, Vt  # freed before the wider FFN activations
    H1 = Xt + project("Wo", att)
    U = project("ffn_in", H1)
    U += params.tensor("ffn_in").bias[:, None]
    np.maximum(U, 0.0, out=U)
    H2 = project("ffn_out", U)
    H2 += params.tensor("ffn_out").bias[:, None]
    H2 += H1
    P = H2.reshape(d, B, S).mean(axis=2).T  # (B, d)
    cl = params.tensor("classifier")
    return P @ cl.matrix + cl.bias


def _hits(params: ModelParams, logits_of, token_ids: np.ndarray,
          labels: np.ndarray, batch_size: int) -> int:
    """Hits of `logits_of` on a core's share of the rows, forwarded in
    the fewest contiguous chunks of at most `batch_size` sequences whose
    widest activation fits CHUNK_ELEMENTS.

    Every chunk holds at least 2 sequences: forward, packed or not,
    gives such a chunk the bits of its rows of any larger chunk's
    logits, but not a chunk of one, for which BLAS takes a
    matrix-vector kernel. A share of one stays whole.
    """
    rows, S = token_ids.shape
    d, f = params.tensor("ffn_in").matrix.shape
    fit = min(batch_size, max(1, CHUNK_ELEMENTS // (S * max(d, f, S))))
    hits = 0
    for lo, hi in _cut(rows, -(-rows // fit)):
        logits = logits_of(token_ids[lo:hi])
        hits += int((logits.argmax(axis=1) == labels[lo:hi]).sum())
    return hits


def evaluate(params: ModelParams, dataset: Dataset) -> float:
    """Fraction of argmax(logits) == label; argmax ties -> smallest index.

    The first batch's forward cost decides, once per call, how the rows
    are forwarded. From PACKED_MIN_MACS on, on weights with zero blocks,
    a forward skips them: each projection's columns are packed into runs
    that share their nonzero rows, afresh each call. Its logits match
    `forward`'s to ~1e-16, not bit for bit. From PARALLEL_MIN_MACS on,
    the rows are cut once into one contiguous share per core that BLAS
    leaves free (all of them when BLAS runs one thread per call): this
    thread forwards one share while the pinned threads of one
    `numerics.run_pinned` call forward the others, as BLAS and numpy's
    loops release the GIL. Each share goes a few sequences at a time
    (`_hits`). Hits are counted per chunk and added, so neither the
    cores, the batch size nor the chunks change the result.
    """
    # a BLAS that does not say how many threads it runs may already
    # keep every core busy
    cores = usable_cores()
    cores //= blas_threads() or cores
    b = dataset.batch_size
    macs = _forward_macs(params, dataset.token_ids[:b])
    runs = {name: _column_runs(params.tensor(name).matrix)
            for name in PROJECTIONS} if macs >= PACKED_MIN_MACS else {}
    if any(r is not None for r in runs.values()):
        logits_of = functools.partial(_packed_forward, params, runs)
    else:
        def logits_of(toks):
            # index the result so the activation cache is freed here, not
            # kept alive while the next chunk is forwarded
            return forward(params, toks)[0]
    toks, labels = dataset.token_ids, dataset.labels
    shares = _cut(labels.size, cores if macs >= PARALLEL_MIN_MACS else 1)
    return sum(run_pinned([
        functools.partial(_hits, params, logits_of, toks[lo:hi],
                          labels[lo:hi], b)
        for lo, hi in shares])) / labels.size


# ---------------------------------------------------------------------------
# checkpoint format: manifest.txt plus one .bin per tensor (and per bias),
# little-endian float64, row-major; round-trips must be bit-exact

MANIFEST = "manifest.txt"


def _read_f64(path: str, count: int) -> np.ndarray:
    raw = read_bytes(path, CheckpointError)
    if len(raw) != 8 * count:
        raise CheckpointError(
            f"{path}: expected {8 * count} bytes, found {len(raw)}"
        )
    return np.frombuffer(raw, dtype="<f8")


def save_checkpoint(params: ModelParams, out_dir: str,
                    meta: dict | None = None) -> None:
    os.makedirs(out_dir, exist_ok=True)
    # a save that fails partway leaves no manifest, so nothing loads
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, MANIFEST))
    lines = ["# blockprune checkpoint v1"]
    lines += [f"# {key}={value}" for key, value in (meta or {}).items()]
    for name, t in params.items():
        if any(ch.isspace() for ch in name) or "/" in name:
            raise CheckpointError(f"tensor name {name!r} not storable")
        rows, cols = t.matrix.shape
        data_file = f"{name}.bin"
        bias_file = f"{name}.bias.bin" if t.bias is not None else "-"
        lines.append(
            f"{name} {rows} {cols} {t.role} {int(t.prunable)} "
            f"{data_file} {bias_file}"
        )
        for file, arr in ((data_file, t.matrix), (bias_file, t.bias)):
            if arr is not None:
                write_file(os.path.join(out_dir, file),
                           np.ascontiguousarray(arr, dtype="<f8").tobytes())
    write_file(os.path.join(out_dir, MANIFEST), lines)


def load_checkpoint(in_dir: str) -> ModelParams:
    manifest = os.path.join(in_dir, MANIFEST)
    lines = read_lines(manifest, "ascii", CheckpointError)
    tensors = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 7:
            raise CheckpointError(
                f"{manifest}:{lineno}: expected 7 fields, got {len(parts)}"
            )
        name, rows_s, cols_s, role, prunable_s, data_file, bias_file = parts
        if any(name == seen for seen, _ in tensors):
            raise CheckpointError(
                f"{manifest}:{lineno}: tensor {name!r} listed twice"
            )
        try:
            rows, cols = int(rows_s), int(cols_s)
            prunable = bool(int(prunable_s))
        except ValueError:
            raise CheckpointError(
                f"{manifest}:{lineno}: malformed numeric field"
            ) from None
        if rows < 1 or cols < 1:
            raise CheckpointError(
                f"{manifest}:{lineno}: shape {rows}x{cols} is not positive"
            )
        if role not in ROLES:
            raise CheckpointError(f"{manifest}:{lineno}: unknown role {role!r}")
        for file in (data_file, bias_file):
            if os.path.basename(file) != file or file in (".", ".."):
                raise CheckpointError(f"{manifest}:{lineno}: {file!r} is "
                                      f"not a file in {in_dir}")
        matrix = _read_f64(
            os.path.join(in_dir, data_file), rows * cols
        ).reshape(rows, cols)
        bias = None
        if bias_file != "-":
            # every bias adds to the matrix's output axis
            bias = _read_f64(os.path.join(in_dir, bias_file), cols)
        tensors.append(
            (name, WeightTensor(matrix=matrix, role=role,
                                prunable=prunable, bias=bias))
        )
    if not tensors:
        raise CheckpointError(f"{manifest}: lists no tensors")
    return ModelParams(tensors)
