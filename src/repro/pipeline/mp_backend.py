"""Real ``multiprocessing`` backend for the read-spread mode.

The simulated cluster measures *modelled* speedup; this backend is the real
thing for machines that have the cores: reads are chunked across worker
processes, each maps against its own pipeline instance, partial accumulators
come back in buffer form and are merged in the parent.  Results are
identical to the serial pipeline (reductions are order-deterministic).

Execution is **fault tolerant** (see :mod:`repro.parallel.dispatch`): chunks
are dispatched asynchronously with a per-chunk timeout, worker deaths and
remote errors are retried with exponential backoff, and a chunk that
exhausts its retries is re-run serially in the parent — the run always
completes, with byte-identical SNP calls, and every recovery is visible in
the metrics (``mp.chunk_retries``, ``mp.chunk_timeouts``,
``mp.worker_deaths``, ``mp.partial_rejects``, ``mp.serial_fallbacks``).
Recovery paths are testable via deterministic fault injection
(:mod:`repro.parallel.faults`; ``ParallelConfig.fault_spec`` or the
``REPRO_FAULTS`` environment variable).

Workers are provisioned by one path, the shared-memory pool
(:class:`repro.parallel.pool.PersistentPool`, built by :func:`make_pool`):
the parent publishes genome codes and index CSR arrays as shared-memory
segments once per pool, and every worker — including one respawned after a
crash — attaches zero-copy views in :func:`_init_pool_worker` instead of
receiving a pickled genome and rebuilding the index
(``mp.worker_attach_seconds`` measures the attach).

The start method is pinned explicitly (``ParallelConfig.start_method``,
default ``"spawn"``) so span-stack and sanitizer-propagation semantics never
depend on what a prior caller or the platform happened to set.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import time
from typing import TYPE_CHECKING

import numpy as np

import repro.observability.trace as trace
from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.index.hashindex import GenomeIndex
from repro.memory.base import Accumulator
from repro.observability import current, detached, merge_snapshots, scope, span
from repro.observability.snapshot import MetricsSnapshot
from repro.parallel.faults import FaultPlan, corrupt_buffers, resolve_fault_plan
from repro.parallel.partition import (
    partition_reads_contiguous,
    take,
    validate_partition,
)
from repro.parallel.pool import PersistentPool
from repro.parallel.shm import attach_array
from repro.phmm import sanitize
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp, MappingStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.livestream import TelemetryAggregator
    from repro.parallel.shm import SharedArraySpec

#: One chunk's transportable payload: (codes, quals, names) per read.
ChunkPayload = "tuple[list, list, list]"

# Module-level worker state (initialised per process by the pool initializer;
# avoids re-shipping the reference for every chunk).
_WORKER: dict = {}


def _init_pool_worker(
    specs: "dict[str, SharedArraySpec]",
    ref_name: str,
    config: PipelineConfig,
    sanitize_on: bool = False,
    fault_plan: "FaultPlan | None" = None,
    trace_on: bool = False,
    n_masked_kmers: int = 0,
    n_masked_long_kmers: int = 0,
) -> None:
    """Attach-mode initializer for :class:`PersistentPool` workers.

    Instead of a pickled genome, the worker gets the publication map and
    wraps zero-copy read-only views over the parent's shared segments —
    genome codes plus the index CSR triple — then rehydrates the pipeline
    around them without any index rebuild.  A respawned worker runs this
    again: re-attaching costs an ``mmap``, not a genome pickle, which is
    what makes crash recovery cheap under the persistent pool.
    """
    # Sanctioned pool-initializer pattern: each worker process installs its
    # own pipeline once; no writes ever flow back to the parent.
    if sanitize_on:
        # Spawned workers don't inherit a programmatically-enabled sanitizer;
        # propagate the parent's setting explicitly.
        sanitize.enable()
    if trace_on:
        # Same propagation rule as the sanitizer: spawned workers start with
        # tracing off unless REPRO_TRACE is set.  Label the lane so exported
        # timelines read "worker (pid N)".
        trace.enable()
    trace.set_process_label("worker")
    started = time.perf_counter()
    views = {}
    handles = []
    for key, spec in specs.items():
        view, shm = attach_array(spec)
        views[key] = view
        handles.append(shm)
    reference = Reference(views["ref_codes"], name=ref_name, copy=False)
    index = GenomeIndex.from_arrays(
        reference,
        config.k,
        views["index_kmers"],
        views["index_offsets"],
        views["index_positions"],
        max_positions_per_kmer=config.max_index_positions_per_kmer,
        n_masked_kmers=n_masked_kmers,
        # The long-seed table rides the same publication map when the
        # parent's index carries one (seed_len configured).
        seed_len=config.seeder.seed_len,
        long_kmers=views.get("index_long_kmers"),
        long_offsets=views.get("index_long_offsets"),
        long_positions=views.get("index_long_positions"),
        n_masked_long_kmers=n_masked_long_kmers,
    )
    pipe = GnumapSnp(reference, config, index=index)
    # Handles must stay alive as long as the views (closing unmaps the
    # buffer); the worker holds them for its lifetime and never unlinks —
    # the publishing parent owns unlink (see repro.parallel.shm).
    _WORKER["pipe"] = pipe  # replint: disable=RPL301,RPL801
    _WORKER["faults"] = fault_plan  # replint: disable=RPL301,RPL801
    _WORKER["shm_handles"] = handles  # replint: disable=RPL301,RPL801
    # One-shot attach cost; the next _map_chunk pops it into its snapshot.
    _WORKER["attach_seconds"] = time.perf_counter() - started  # replint: disable=RPL301,RPL801


def _map_chunk(
    payload: "tuple[list, list, list]", chunk_id: int = 0, attempt: int = 0
) -> "tuple[dict, dict, MetricsSnapshot]":
    codes_list, quals_list, names = payload
    pipe: GnumapSnp = _WORKER["pipe"]  # replint: disable=RPL301
    plan: "FaultPlan | None" = _WORKER.get("faults")  # replint: disable=RPL301
    if plan is not None:
        # Deterministic injection point: crash/hang before any work, keyed
        # by (chunk, attempt) so retries of a transient fault succeed.
        plan.inject_pre_compute(chunk_id, attempt)
    reads = [
        Read(name=n, codes=c, quals=q)
        for n, c, q in zip(names, codes_list, quals_list)
    ]
    # The scope isolates this chunk's metrics; the snapshot travels home by
    # pickle and the parent folds all workers into one coherent tree.
    # detached(): forked workers inherit the parent's open span path (spawned
    # ones don't) — root the chunk's spans either way.
    with detached(), scope() as reg:
        attach = _WORKER.pop("attach_seconds", None)  # replint: disable=RPL301,RPL801
        if attach is not None:
            # Ships home with this worker's first chunk snapshot.
            reg.observe("mp.worker_attach_seconds", float(attach))
        trace.instant("mp.chunk_begin", chunk=chunk_id, attempt=attempt)
        started = time.perf_counter()
        acc, stats = pipe.map_reads(reads)
        reg.observe("mp.chunk_map_seconds", time.perf_counter() - started)
        snapshot = reg.snapshot()
    buffers = acc.to_buffers()
    if plan is not None and plan.corrupts(chunk_id, attempt):
        buffers = corrupt_buffers(buffers)
    return buffers, vars(stats), snapshot


def _spawn_flags() -> "tuple[bool, bool]":
    """The process-wide switches a worker captures once, at spawn."""
    return (sanitize.enabled(), trace.enabled())


def make_pool(
    pipe: GnumapSnp,
    n_workers: int,
    telemetry: "TelemetryAggregator | None" = None,
) -> PersistentPool:
    """Build a :class:`PersistentPool` for ``pipe``'s genome and config.

    The genome codes and index CSR arrays are published as shared segments
    and workers run the attach-mode initializer.  The caller owns the pool:
    ``Engine`` keeps it for its lifetime and ``close()`` releases workers
    and segments.

    ``telemetry`` (optional, the Engine wires it from ``TelemetryConfig``)
    makes every pool worker stream live metric deltas and heartbeats to
    the given aggregator over a dedicated sideband pipe.
    """
    if n_workers < 1:
        raise PipelineError(f"n_workers must be >= 1, got {n_workers}")
    config = pipe.config
    par = config.parallel
    reference = pipe.reference
    index = pipe.index
    plan = resolve_fault_plan(par.fault_spec)
    glen = len(reference)
    acc_type = type(pipe.new_accumulator())
    sanitize_on, trace_on = flags = _spawn_flags()

    def validate_partial(
        chunk_id: int, result: "tuple[dict, dict, MetricsSnapshot]"
    ) -> None:
        # Chunk-level validation before merge: a partial corrupted in a
        # worker (or in transit) must be rejected *here*, attributed to its
        # chunk, and retried — never merged into the evidence.
        buffers, _, _ = result
        part = acc_type.from_buffers(glen, buffers)
        sanitize.check_partial(part.snapshot(), chunk_id)

    kmers, offsets, positions = index.csr_arrays()
    arrays = {
        "ref_codes": np.asarray(reference.codes),
        "index_kmers": kmers,
        "index_offsets": offsets,
        "index_positions": positions,
    }
    if index.seed_len is not None:
        long_kmers, long_offsets, long_positions = index.long_csr_arrays()
        arrays["index_long_kmers"] = long_kmers
        arrays["index_long_offsets"] = long_offsets
        arrays["index_long_positions"] = long_positions
    pool = PersistentPool(
        mp.get_context(par.start_method),
        n_workers,
        _map_chunk,
        initializer=_init_pool_worker,
        initargs=(
            reference.name,
            config,
            sanitize_on,
            plan if plan else None,
            trace_on,
            index.n_masked_kmers,
            index.n_masked_long_kmers,
        ),
        arrays=arrays,
        timeout=par.chunk_timeout,
        max_retries=par.max_retries,
        backoff_base=par.backoff_base,
        # validate= runs in the *parent* on returned partials; it is never
        # pickled or shipped to a worker, so capturing locals here is safe.
        validate=validate_partial if sanitize_on else None,  # replint: disable=RPL802
        chunks_per_worker=par.chunks_per_worker,
        autotune=par.autotune_chunks,
        telemetry=telemetry,
    )
    pool.spawn_flags = flags
    return pool


def warm_pool(
    pool: "PersistentPool | None",
    pipe: GnumapSnp,
    n_workers: int,
    telemetry: "TelemetryAggregator | None" = None,
) -> PersistentPool:
    """``pool`` if it can serve ``n_workers`` now, else a fresh one.

    The one lifecycle rule for every pool owner (``Engine``,
    ``OnlineGnumap``): build lazily, and replace a pool that is closed,
    sized for another worker count, or whose workers captured other
    sanitizer/tracing switches at spawn — a stale fleet would emit no
    trace events or skip partial validation.  A replaced pool is closed.
    """
    if pool is not None and (
        pool.closed
        or pool.n_workers != n_workers
        or pool.spawn_flags != _spawn_flags()
    ):
        pool.close()
        pool = None
    if pool is None:
        pool = make_pool(pipe, n_workers, telemetry=telemetry)
    return pool


def _payload_item_nbytes(payload: "tuple[list, list, list]") -> float:
    """Mean transport bytes per read of one chunk payload (codes + quals)."""
    codes_list, quals_list, _ = payload
    if not codes_list:
        return 0.0
    total = sum(c.nbytes for c in codes_list) + sum(q.nbytes for q in quals_list)
    return float(total) / len(codes_list)


def map_reads_multiprocessing(
    pipe: GnumapSnp,
    reads: "list[Read]",
    pool: PersistentPool,
) -> "tuple[Accumulator, MappingStats]":
    """Map ``reads`` across ``pool``'s workers with fault tolerance.

    The mapping-only core shared by ``Engine.run``, the staged
    :meth:`~repro.api.Engine.map_reads` and the online chunked feed
    (:class:`~repro.pipeline.online.OnlineGnumap`): partitions the reads
    into chunks, streams them over the pool's warm fleet through the
    fault-tolerant :class:`~repro.parallel.dispatch.ChunkDispatcher`,
    re-runs exhausted chunks serially in the parent, and merges partials in
    chunk order so the result is deterministic whatever failed along the
    way.

    The chunk count comes from the pool's autotuner, and the observed
    per-chunk cost is fed back afterwards.  Chunking never changes results
    — per-read evidence is chunk-invariant — so the plan only affects
    latency.

    Counters and spans land in the *current* observability registry.
    Degenerate inputs (one worker, fewer than two reads) run serially with
    an explicit ``mp.serial_fallbacks`` counter and an effective-worker
    gauge of 1, so metrics consumers can always distinguish "ran serial"
    from "parallel with no overhead".
    """
    n_workers = pool.n_workers
    reg = current()

    if n_workers == 1 or len(reads) < 2:
        reg.inc("mp.serial_fallbacks")
        reg.gauge_max("mp.workers_effective", 1)
        return pipe.map_reads(reads)

    n_chunks = pool.plan_chunks(len(reads))
    slices = partition_reads_contiguous(len(reads), n_chunks)
    validate_partition(slices, len(reads))
    chunk_reads = [take(reads, sl) for sl in slices]
    payloads = [
        (
            [r.codes for r in part],
            [r.quals for r in part],
            [r.name for r in part],
        )
        for part in chunk_reads
    ]

    glen = len(pipe.reference)
    acc_type = type(pipe.new_accumulator())
    merged: "Accumulator | None" = None
    total = MappingStats()
    with span("map_parallel"):
        outcome = pool.run(payloads)

        # Merge in chunk order — deterministic regardless of completion
        # order, retries, or which chunks degraded to the parent.
        worker_snaps = []
        for cid in range(n_chunks):
            if cid in outcome.results:
                buffers, stats_dict, snapshot = outcome.results[cid]
                part_acc = acc_type.from_buffers(glen, buffers)
                part_stats = MappingStats(**stats_dict)
                worker_snaps.append(snapshot)
            else:
                # Retries exhausted: degrade gracefully — recompute this
                # chunk serially in the parent so the run still completes
                # with identical output.  Loud, never silent.
                trace.instant("mp.serial_fallback", chunk=cid)
                with span("serial_fallback"):
                    started = time.perf_counter()
                    part_acc, part_stats = pipe.map_reads(chunk_reads[cid])
                    reg.observe(
                        "mp.chunk_map_seconds", time.perf_counter() - started
                    )
                reg.inc("mp.serial_fallbacks")
            if merged is None:
                merged = part_acc
            else:
                merged.merge(part_acc)
            total.merge(part_stats)
        if worker_snaps:
            # One associative fold, then one coherent tree in this process.
            worker_merged = merge_snapshots(*worker_snaps)
            reg.absorb(worker_merged)
            # Autotune feedback: the run's median chunk cost refines the
            # next plan_chunks() call on this warm pool.
            p50 = worker_merged.histogram_quantile("mp.chunk_map_seconds", 0.5)
            if math.isfinite(p50):
                pool.note_chunk_time(
                    p50,
                    len(reads) / n_chunks,
                    _payload_item_nbytes(payloads[0]),
                )
        reg.gauge_max("mp.workers", n_workers)
        # Effective parallelism: requested workers capped by chunk count
        # (n_workers > n_chunks leaves the surplus idle).
        reg.gauge_max("mp.workers_effective", min(n_workers, n_chunks))
        # Band-aware work estimate: the modelled fraction of full DP cells
        # each worker fills per pair (1.0 with banding off) — lets metrics
        # consumers reconcile wall time against cells actually charged.
        mean_len = int(round(sum(len(r) for r in reads) / len(reads)))
        reg.gauge_max(
            "phmm.band_cell_fraction", pipe.config.band_cell_fraction(mean_len)
        )

    if merged is None:  # pragma: no cover - n_chunks >= 1 always
        merged = pipe.new_accumulator()
    return merged, total
