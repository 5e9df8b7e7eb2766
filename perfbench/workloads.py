"""The benchmark's three workloads.

Each workload drives the program through its public API in one of the
paper's three uses.  All are closed loops with one client: the next call
is issued only when the previous one returned.  Inputs come from
``repro.experiments.workload.build_workload`` at the ``tiny`` preset (a
10 kbp chrX-like genome with two 150 bp repeats, 12 planted SNPs and
62 bp Illumina-like reads with qualities at 12x coverage), so one complete
pass takes a few seconds.

A workload runs as a series of *passes* (a batch job, a whole stream, or
one staged map-then-call round) over ``instances`` inputs, each generated
from its own derived seed.  Averaging over several genomes keeps one
genome's repeat layout from setting a run's speed.  ``setup`` builds what
a user builds before the first call; ``run_pass`` issues the timed calls
through ``timed(kind, n_reads, fn, *args)`` and returns the calls the pass
ended with, so the runner can check them.
"""

from __future__ import annotations

import io
import multiprocessing
from typing import Any, Callable

from repro.api import Engine
from repro.calling.records import write_snp_calls
from repro.experiments.workload import Workload
from repro.pipeline.config import PipelineConfig
from repro.pipeline.online import OnlineGnumap

#: ``timed(kind, n_reads, fn, *args)`` -> ``(ok, result)``.
Timed = Callable[..., "tuple[bool, Any]"]

#: Op kinds whose latency is an update latency (evidence written).
UPDATE_KINDS = frozenset({"run", "feed", "map_reads"})


def calls_tsv(snps: "list[Any]") -> str:
    """The calls as the program's own TSV report."""
    buf = io.StringIO()
    write_snp_calls(buf, snps)
    return buf.getvalue()


def call_columns(tsv: str) -> str:
    """The report without its float statistics: position, alleles and the
    heterozygous flag of every call."""
    rows = (line.split("\t") for line in tsv.splitlines())
    return "\n".join("\t".join(r[:3] + r[-1:]) for r in rows)


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live child process, in KiB (0 if unknown)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class BatchSerial:
    """One ``Engine.run`` per pass with the library defaults, one process."""

    name = "batch-serial"
    chunk_reads: "int | None" = None
    instances = 10
    exact_repeat = True
    fresh_per_pass = True
    setup_repeats = 3
    workers = 1

    def setup(self, wl: Workload) -> Engine:
        return Engine(wl.reference, PipelineConfig())

    def run_pass(self, engine: Engine, wl: Workload, timed: Timed) -> "list | None":
        ok, result = timed("run", wl.n_reads, engine.run, wl.reads)
        return result.snps if ok else None

    def teardown(self, engine: Engine) -> None:
        engine.close()


class StreamOnline:
    """A fresh ``OnlineGnumap`` stream per pass, fed small chunks, on the
    byte-discretised CHARDISC accumulator."""

    name = "stream-online"
    chunk_reads: "int | None" = 64
    instances = 6
    exact_repeat = True
    fresh_per_pass = True
    setup_repeats = 3
    workers = 1

    def setup(self, wl: Workload) -> OnlineGnumap:
        return OnlineGnumap(wl.reference, PipelineConfig(accumulator="CHARDISC"))

    def run_pass(self, stream: OnlineGnumap, wl: Workload, timed: Timed) -> "list | None":
        assert self.chunk_reads is not None
        for lo in range(0, wl.n_reads, self.chunk_reads):
            chunk = wl.reads[lo:lo + self.chunk_reads]
            ok, _ = timed("feed", len(chunk), stream.feed, chunk)
            if not ok:
                return None
        ok, snps = timed("current_snps", 0, stream.current_snps)
        return snps if ok else None

    def teardown(self, stream: OnlineGnumap) -> None:
        stream.close()


class PoolStaged:
    """Staged ``Engine.map_reads`` batches over the warm two-worker
    persistent pool, then one ``call()`` per pass."""

    name = "pool-staged"
    chunk_reads: "int | None" = None
    # Four batches of 484 reads, about half a second each: longer calls
    # smooth the scheduling jitter of a shared host, which otherwise sets
    # the latency tail.
    batches = 4
    warmup_reads = 64
    # The pool autotunes its chunk count from measured chunk times, and
    # partials merge in float; the program promises identical calls across
    # chunkings and byte-identical reports only per chunking (DESIGN.md,
    # persistent pool).  Repeat passes and the serial reference are
    # therefore compared on call columns; full-report differences are
    # counted and reported, not failed.
    instances = 3
    exact_repeat = False
    fresh_per_pass = False
    setup_repeats = 1
    workers = 2

    def __init__(self) -> None:
        #: Largest summed worker peak RSS seen at any teardown, in KiB.
        self.worker_hwm_kb = 0

    def setup(self, wl: Workload) -> Engine:
        engine = Engine(wl.reference, PipelineConfig(), workers=self.workers)
        # The first parallel call spawns the fleet and publishes the genome
        # and index to shared memory; users pay that once per engine.
        engine.map_reads(wl.reads[: self.warmup_reads])
        engine.reset()
        return engine

    def run_pass(self, engine: Engine, wl: Workload, timed: Timed) -> "list | None":
        step = -(-wl.n_reads // self.batches)
        for lo in range(0, wl.n_reads, step):
            batch = wl.reads[lo:lo + step]
            ok, _ = timed("map_reads", len(batch), engine.map_reads, batch)
            if not ok:
                engine.reset()
                return None
        ok, result = timed("call", 0, engine.call)
        engine.reset()
        return result.snps if ok else None

    def teardown(self, engine: Engine) -> None:
        hwm = sum(_vm_hwm_kb(p.pid) for p in multiprocessing.active_children()
                  if p.pid is not None)
        self.worker_hwm_kb = max(self.worker_hwm_kb, hwm)
        engine.close()

    @staticmethod
    def serial_reference(wl: Workload) -> str:
        """Calls of a plain serial run over the same reads, as TSV."""
        with Engine(wl.reference, PipelineConfig()) as engine:
            return calls_tsv(engine.run(wl.reads).snps)


WORKLOADS = {w.name: w for w in (BatchSerial, StreamOnline, PoolStaged)}
