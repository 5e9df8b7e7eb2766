"""Online SNP calling over a read stream.

One of "the unique aspects of GNUMAP is the ability to call SNPs *online*,
instead of requiring several post-processing events": evidence accumulates
as reads stream in, and calls can be materialised at any point without a
separate post-processing pass over mapping output.

:class:`OnlineGnumap` wraps the pipeline with chunked streaming:

* ``feed(reads)`` maps a chunk into the shared accumulator;
* ``current_snps()`` runs the LRT over the evidence *so far*;
* ``watch(positions)`` tracks specific positions (e.g. a clinical panel),
  and ``feed`` reports which of them changed call state in that chunk —
  the trigger mechanism a streaming consumer would hook.

With ``workers > 1`` each fed chunk is mapped across real worker processes
through the same fault-tolerant dispatcher as the batch backend
(:func:`repro.pipeline.mp_backend.map_reads_multiprocessing`): worker
crashes, hangs and corrupted partials are retried and, past the retry
budget, re-run serially in the parent — a stream never dies to one bad
chunk, and the recovery counters (``mp.*``) tell the story.

Calls converge: once coverage saturates, later chunks can only refine
p-values.  ``history()`` exposes the call-count trajectory for convergence
monitoring (used by the tests to assert monotone-ish behaviour).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.calling.records import SNPCall
from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp, MappingStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.parallel.pool import PersistentPool


@dataclass(frozen=True)
class WatchEvent:
    """A tracked position changed call state after a chunk."""

    pos: int
    chunk_index: int
    now_called: bool
    alt_name: "str | None"


@dataclass
class ChunkReport:
    """Outcome of one ``feed`` call."""

    chunk_index: int
    n_reads: int
    n_snps_now: int
    events: "list[WatchEvent]" = field(default_factory=list)


class OnlineGnumap:
    """Streaming wrapper over :class:`GnumapSnp` with a shared accumulator.

    With ``workers > 1`` (explicit, or via ``config.parallel.workers``) the
    stream lazily builds a persistent shared-memory pool on the first fed
    chunk and reuses its warm fleet for every subsequent chunk; ``close()``
    (or the context manager) releases it.  A long-lived stream is exactly
    the workload the persistent pool exists for: spawn and genome-broadcast
    costs are paid once, not per chunk.
    """

    def __init__(
        self,
        reference: Reference,
        config: PipelineConfig | None = None,
        workers: "int | None" = None,
    ) -> None:
        self.pipeline = GnumapSnp(reference, config)
        if workers is None:
            workers = self.pipeline.config.parallel.workers
        if workers < 1:
            raise PipelineError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.accumulator = self.pipeline.new_accumulator()
        self.stats = MappingStats()
        self._chunk_index = 0
        self._watched: set[int] = set()
        self._watch_state: dict[int, "str | None"] = {}
        self._history: list[int] = []
        self._pool: "PersistentPool | None" = None

    def _get_pool(self) -> "PersistentPool":
        """The stream's warm pool, (re)built as needed (see
        :func:`repro.pipeline.mp_backend.warm_pool`)."""
        from repro.pipeline.mp_backend import warm_pool

        self._pool = warm_pool(self._pool, self.pipeline, self.workers)
        return self._pool

    def close(self) -> None:
        """Release the worker pool and shared segments (idempotent)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "OnlineGnumap":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def watch(self, positions: "Sequence[int] | Iterable[int]") -> None:
        """Track positions; ``feed`` reports their call-state transitions."""
        for pos in positions:
            pos = int(pos)
            if not 0 <= pos < len(self.pipeline.reference):
                raise PipelineError(f"watched position {pos} outside the genome")
            self._watched.add(pos)
            self._watch_state.setdefault(pos, None)

    def feed(self, reads: "list[Read]") -> ChunkReport:
        """Map one chunk of reads and report the updated call state."""
        if self.workers > 1:
            # Same fault-tolerant dispatcher as the batch backend; the
            # chunk's merged partial folds into the stream's accumulator.
            from repro.pipeline.mp_backend import map_reads_multiprocessing

            part_acc, chunk_stats = map_reads_multiprocessing(
                self.pipeline, reads, self._get_pool()
            )
            self.accumulator.merge(part_acc)
        else:
            _, chunk_stats = self.pipeline.map_reads(
                reads, accumulator=self.accumulator
            )
        self.stats.merge(chunk_stats)
        snps = self.current_snps()
        self._history.append(len(snps))
        events: list[WatchEvent] = []
        if self._watched:
            called_now = {s.pos: s.alt_name for s in snps if s.pos in self._watched}
            for pos in sorted(self._watched):
                new_state = called_now.get(pos)
                if new_state != self._watch_state[pos]:
                    events.append(
                        WatchEvent(
                            pos=pos,
                            chunk_index=self._chunk_index,
                            now_called=new_state is not None,
                            alt_name=new_state,
                        )
                    )
                    self._watch_state[pos] = new_state
        report = ChunkReport(
            chunk_index=self._chunk_index,
            n_reads=len(reads),
            n_snps_now=len(snps),
            events=events,
        )
        self._chunk_index += 1
        return report

    def current_snps(self) -> "list[SNPCall]":
        """LRT over the evidence accumulated so far."""
        return self.pipeline.call_snps(self.accumulator)

    def history(self) -> "list[int]":
        """SNP count after each chunk (convergence trajectory)."""
        return list(self._history)

    def coverage_summary(self) -> dict:
        """Mean/median/max accumulated depth (progress reporting)."""
        depth = self.accumulator.total_depth()
        return {
            "mean": float(depth.mean()),
            "median": float(np.median(depth)),
            "max": float(depth.max()),
            "positions_above_min_depth": int(
                (depth >= self.pipeline.caller.config.min_depth).sum()
            ),
        }
