"""Spans recorded from outside the blockprune package.

A `Tracer` replaces module attributes such as
`blockprune.trainer.loss_and_gradients` with wrappers that record one
span per call. Modules import each other's functions by name
(`from .model import forward`), so a function is rebound in every loaded
`blockprune` module that holds it, not only in the module defining it.
A target that no longer exists is listed in `missing` and skipped, so
later refactors that fuse or rename functions do not break tracing.

Spans live in memory as tuples (id, name, start, end, parent, thread,
count) and are written once, when `write` is called at the end of a
run. A span's parent is the innermost open span of the same thread;
spans of a worker thread start with no parent. `count` is an exact
count of work taken from the call's result where a counter is defined
for the target (see COUNTERS), else None.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# (layer, function) pairs; a layer is a module of the package. The list
# holds the calls that cross a layer boundary on the measured paths and
# the functions a per-layer metric reports.
TARGETS = (
    ("model", "build_model"),
    ("model", "make_synthetic_dataset"),
    ("model", "forward"),
    ("model", "backward"),
    ("model", "loss_and_gradients"),
    ("model", "evaluate"),
    ("model", "save_checkpoint"),
    ("model", "load_checkpoint"),
    ("trainer", "run_pipeline"),
    ("trainer", "plain_train"),
    ("trainer", "reweighted_train"),
    ("trainer", "retrain"),
    ("trainer", "adam_step"),
    ("regularizer", "gamma_update"),
    ("regularizer", "penalty"),
    ("regularizer", "penalty_grad"),
    ("pruner", "prune_model"),
    ("pruner", "save_masks"),
    ("sparse", "to_block_structured"),
    ("sparse", "spmm"),
    ("sparse", "coo_spmm"),
    ("sparse", "save_block_structured"),
    ("sparse", "load_block_structured"),
    ("numerics", "matmul"),
    ("experiments", "sweep"),
    ("config", "parse_config"),
    ("config", "resolve_settings"),
    ("cli", "main"),
)


def _segments_zeroed(masks) -> int:
    return sum(
        int((m.bits == 0.0).sum()) // m.partition.block_width
        for m in masks.values()
    )


COUNTERS = {"pruner.prune_model": _segments_zeroed}

ID, NAME, START, END, PARENT, THREAD, COUNT = range(7)


class Tracer:
    def __init__(self, package: str = "blockprune", targets=TARGETS):
        self.package = package
        self.targets = targets
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, threading.get_ident(), None)
            )

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            count = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                end = time.perf_counter()
                if counter is not None:
                    count = counter(result)
                return result
            except BaseException:
                end = time.perf_counter()
                raise
            finally:
                stack.pop()
                tracer.spans.append(
                    (sid, name, start, end, parent, threading.get_ident(),
                     count)
                )

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded module of the package."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        self.missing = []
        prefix = self.package + "."
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == self.package or key.startswith(prefix))
        ]
        for layer, func in self.targets:
            home = sys.modules.get(prefix + layer)
            original = getattr(home, func, None) if home is not None else None
            if not callable(original):
                self.missing.append(f"{layer}.{func}")
                continue
            wrapper = self._wrap(f"{layer}.{func}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def write(self, path: str) -> None:
        """All spans as one JSON document, in the order they ended."""
        with open(path, "w", encoding="ascii") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "thread",
                               "count"],
                    "missing": self.missing,
                    "spans": self.spans,
                },
                fh,
            )


class SpanIndex:
    """Lookups over a finished list of spans."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        self.by_id = {s[ID]: s for s in spans}
        self.children: dict[int, list[tuple]] = defaultdict(list)
        for s in spans:
            if s[PARENT] is not None:
                self.children[s[PARENT]].append(s)

    @staticmethod
    def duration(span) -> float:
        return span[END] - span[START]

    def self_time(self, span) -> float:
        """Duration minus the part covered by child spans.

        Children of one span run in its thread one after another, so
        their durations do not overlap and can be summed.
        """
        covered = sum(self.duration(c) for c in self.children.get(span[ID], ()))
        return self.duration(span) - covered

    def named(self, name: str, within=None) -> list[tuple]:
        spans = [s for s in self.spans if s[NAME] == name]
        if within is not None:
            spans = [s for s in spans if within(s)]
        return spans

    def ancestors(self, span):
        parent = span[PARENT]
        while parent is not None:
            span = self.by_id[parent]
            yield span
            parent = span[PARENT]

    def descendants(self, span) -> list[tuple]:
        out = []
        todo = list(self.children.get(span[ID], ()))
        while todo:
            s = todo.pop()
            out.append(s)
            todo.extend(self.children.get(s[ID], ()))
        return out

    def root(self, span):
        """Outermost ancestor in the span's own thread."""
        top = span
        for top in self.ancestors(span):
            pass
        return top

    def section(self, span, sections: list[tuple]) -> str | None:
        """Name of the benchmark section a span ran in.

        Spans of worker threads have no ancestor in the main thread, so
        they are placed by the section whose interval holds their start.
        """
        top = self.root(span)
        for sec in sections:
            if sec[ID] == top[ID]:
                return sec[NAME]
        for sec in sections:
            if sec[START] <= top[START] <= sec[END]:
                return sec[NAME]
        return None
