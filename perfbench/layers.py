"""Outside-in span tracing of the pipeline's layers.

The benchmark never edits the program.  For a traced op it swaps each layer
entry point for a wrapper that records a span ``(name, start, end, parent)``
in memory, and swaps the originals back when the op ends.  The pipeline
module (``repro.pipeline.gnumap``) binds several entry points with ``from
... import``, so a function is replaced in every module namespace the
pipeline actually looks it up in, not only where it is defined.  Class methods are
replaced on the class that defines them.

A span's self time is its duration minus the time its direct children
cover.  Every op the benchmark times is a root span of the layer
``pipeline``; its self time is the wall time no wrapped entry point
accounts for, so the self times of all spans add up to the traced wall
time exactly.

Spans are only recorded on the calling thread's stack; the pipeline calls
every wrapped entry point from the main thread (pool workers are separate
processes the wrappers cannot reach -- their time comes from the program's
own metrics snapshot instead).
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: (module, class or None, attribute, span name).  The span name is
#: ``<layer>.<entry point>``; the layer is the part before the first dot.
ENTRY_POINTS: "tuple[tuple[str, str | None, str, str], ...]" = (
    ("repro.index.hashindex", "GenomeIndex", "__init__", "index.GenomeIndex"),
    ("repro.index.seeding", "Seeder", "candidates", "index.Seeder.candidates"),
    ("repro.pipeline.gnumap", None, "pwm_from_read", "phmm.pwm_from_read"),
    ("repro.pipeline.gnumap", None, "flat_pwm", "phmm.flat_pwm"),
    ("repro.pipeline.gnumap", None, "reverse_complement_pwm",
     "phmm.reverse_complement_pwm"),
    ("repro.pipeline.gnumap", None, "build_windows", "phmm.build_windows"),
    ("repro.pipeline.gnumap", None, "align_batch", "phmm.align_batch"),
    ("repro.pipeline.gnumap", None, "align_batch_banded",
     "phmm.align_batch_banded"),
    # Banded escapes re-run through align_batch inside the alignment module.
    ("repro.phmm.alignment", None, "align_batch", "phmm.align_batch"),
    ("repro.pipeline.gnumap", None, "group_normalize", "phmm.group_normalize"),
    ("repro.memory.dense", "DenseAccumulator", "add", "memory.add"),
    ("repro.memory.dense", "DenseAccumulator", "merge", "memory.merge"),
    ("repro.memory.dense", "DenseAccumulator", "snapshot", "memory.snapshot"),
    ("repro.memory.chardisc", "ByteAccumulator", "add", "memory.add"),
    ("repro.memory.chardisc", "ByteAccumulator", "merge", "memory.merge"),
    ("repro.memory.chardisc", "ByteAccumulator", "snapshot", "memory.snapshot"),
    ("repro.memory.centdisc", "CentroidAccumulator", "add", "memory.add"),
    ("repro.memory.centdisc", "CentroidAccumulator", "merge", "memory.merge"),
    ("repro.memory.centdisc", "CentroidAccumulator", "snapshot",
     "memory.snapshot"),
    ("repro.calling.caller", "SNPCaller", "snps", "calling.SNPCaller.snps"),
    ("repro.parallel.pool", "PersistentPool", "run", "parallel.PersistentPool.run"),
)

#: Root span name for every op the benchmark itself times.
ROOT_SPAN = "pipeline"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into SpanRecorder.spans, -1 for a root
    detail: "dict[str, float] | None" = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _payload_bytes(payloads: "list[Any]", outcome: Any) -> float:
    """Array bytes one ``PersistentPool.run`` ships out and back: read codes
    and qualities per chunk, and the partial accumulator buffers returned."""
    sent = sum(
        sum(a.nbytes for a in codes) + sum(a.nbytes for a in quals)
        for codes, quals, _names in payloads
    )
    returned = sum(
        sum(a.nbytes for a in buffers.values())
        for buffers, _stats, _snapshot in outcome.results.values()
    )
    return float(sent + returned)


class SpanRecorder:
    """In-memory span store plus the wrapper installation."""

    def __init__(self) -> None:
        self.spans: "list[Span | None]" = []
        self._stack: "list[int]" = []
        self._saved: "list[tuple[Any, str, Any]]" = []

    # -- recording ------------------------------------------------------------
    def _open(self) -> "tuple[int, int]":
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent

    def _close(self, idx: int, parent: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = Span(name, start, end, parent)

    @contextmanager
    def root(self, op: str) -> "Iterator[None]":
        """Record one op the benchmark times as a ``pipeline`` root span."""
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, parent, f"{ROOT_SPAN}.{op}", start)

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        rec = self
        counts_bytes = name == "parallel.PersistentPool.run"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx, parent = rec._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx, parent, name, start)
            if counts_bytes:
                # Outside the span: sizing the arrays is benchmark work.
                span = rec.spans[idx]
                assert span is not None
                span.detail = {
                    "chunks": float(len(args[1])),
                    "payload_bytes": _payload_bytes(args[1], result),
                }
            return result

        return wrapper

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Replace every entry point with its recording wrapper."""
        if self._saved:
            raise RuntimeError("wrappers already installed")
        for module_name, class_name, attr, name in ENTRY_POINTS:
            owner: Any = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        """Put every original entry point back (reverse order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------
    def finished(self) -> "list[Span]":
        if self._stack:
            raise RuntimeError("spans still open")
        return [s for s in self.spans if s is not None]

    def self_times(self) -> "list[float]":
        """Per-span self time: duration minus the direct children's time."""
        spans = self.finished()
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child[s.parent] += s.seconds
        return [s.seconds - c for s, c in zip(spans, child)]

    def to_json(self) -> "list[list[Any]]":
        """Compact ``[name, start, end, parent]`` rows for the span file."""
        return [[s.name, s.start, s.end, s.parent] for s in self.finished()]
