"""The public facade: one entry point for mapping and SNP calling.

Historically the repository grew three overlapping ways to run the pipeline:
constructing :class:`~repro.pipeline.gnumap.GnumapSnp` directly, a separate
multiprocessing entry point, and the CLI's private wiring.  :class:`Engine`
collapses them: it binds a reference genome and a
:class:`~repro.pipeline.config.PipelineConfig` once, exposes the pipeline's
three verbs, and picks the serial or multiprocessing backend per call.

    from repro.api import Engine

    with Engine(reference, workers=4) as engine:   # or Engine.from_fasta(...)
        result = engine.run(reads)                 # map + call, one CallResult
        for snp in result.snps:
            print(snp.pos, snp.ref_name, "->", snp.alt_name)

With ``workers > 1`` the engine owns a **persistent shared-memory worker
pool** (:class:`repro.parallel.pool.PersistentPool`): workers spawn once,
the genome and index are published as shared-memory segments the workers
map zero-copy, and every ``run``/``map_reads`` call reuses the warm fleet.
The context manager (or an explicit ``close()``) releases the workers and
unlinks the segments; an engine used without ``with`` still cleans up
through an atexit crash net, but deterministic teardown is the idiom.

Staged use — accumulate evidence over several read batches (online / sharded
ingest), then call once::

    engine.map_reads(batch_a)
    engine.map_reads(batch_b)        # same accumulator keeps filling
    result = engine.call()

Worker count is engine state: constructor ``workers=``, the ``workers``
property, or ``config.parallel.workers``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.calling.records import SNPCall, write_snp_calls
from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.memory.base import Accumulator
from repro.observability import scope
from repro.phmm import sanitize
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp, MappingStats, PipelineResult, fill_timers
from repro.util.timers import TimerRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.livestream import TelemetryAggregator
    from repro.observability.promexport import PrometheusEndpoint
    from repro.parallel.pool import PersistentPool

__all__ = ["CallResult", "Engine", "MappingStats"]


@dataclass
class CallResult:
    """Everything one mapping+calling run produced.

    Attributes
    ----------
    snps:
        Significant SNP calls, sorted by position.
    stats:
        Mapping-stage counters (reads, pairs, batches).
    accumulator:
        The genome evidence the calls were made from (reusable for
        re-calling under a different caller configuration).
    timers:
        Flat per-stage wall-clock view mirrored from the run's spans.
    """

    snps: list[SNPCall]
    stats: MappingStats
    accumulator: Accumulator
    timers: TimerRegistry = field(default_factory=TimerRegistry)

    @property
    def reads_per_second(self) -> float:
        """Mapping throughput (reads / seed+align+accumulate seconds)."""
        mapping = sum(
            self.timers[k].elapsed for k in ("seed", "align", "accumulate")
            if k in self.timers
        )
        return self.stats.n_reads / mapping if mapping > 0 else 0.0

    def write_tsv(self, path: str) -> int:
        """Write the SNP calls as the standard TSV; returns rows written."""
        return write_snp_calls(path, self.snps)

    @classmethod
    def from_pipeline_result(cls, result: PipelineResult) -> "CallResult":
        return cls(
            snps=result.snps,
            stats=result.stats,
            accumulator=result.accumulator,
            timers=result.timers,
        )


class Engine:
    """The one public entry point: a reference genome bound to a config.

    Construction builds the k-mer index once; ``map_reads``/``call``/``run``
    reuse it.  The engine owns an evidence accumulator so mapping can be
    staged across calls; ``run`` is stateless (fresh accumulator per call)
    and is the right verb for one-shot batch work.

    With ``workers > 1`` (constructor kwarg, the ``workers`` property, or
    ``config.parallel.workers``) the engine also owns a persistent
    shared-memory worker pool, created lazily on the first parallel call
    and reused until ``close()``/``__exit__`` — or until the worker count
    or process-wide sanitizer/tracing flags change, which recycles the
    fleet so workers never run with stale one-time init state.
    """

    def __init__(
        self,
        reference: Reference,
        config: PipelineConfig | None = None,
        *,
        workers: "int | None" = None,
    ):
        self.config = config or PipelineConfig()
        if workers is None:
            workers = self.config.parallel.workers
        if workers < 1:
            raise PipelineError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._pipeline = GnumapSnp(reference, self.config)
        self._accumulator: Accumulator | None = None
        self._stats = MappingStats()
        self._timers = TimerRegistry()
        self._pool: "PersistentPool | None" = None
        self._telemetry: "TelemetryAggregator | None" = None
        self._endpoint: "PrometheusEndpoint | None" = None
        if self.config.telemetry.enabled:
            # Eager, so telemetry_url is scrapeable before the first run.
            self._ensure_telemetry()

    @classmethod
    def from_fasta(
        cls,
        path: str,
        config: PipelineConfig | None = None,
        *,
        workers: "int | None" = None,
    ) -> "Engine":
        """Build an engine from a single-record reference FASTA file."""
        from repro.genome.fasta import read_fasta

        records = read_fasta(path)
        if len(records) != 1:
            raise PipelineError(
                f"expected a single-record reference FASTA, got {len(records)}"
            )
        name, codes = next(iter(records.items()))
        return cls(Reference(codes, name=name), config, workers=workers)

    @property
    def reference(self) -> Reference:
        return self._pipeline.reference

    @property
    def pipeline(self) -> GnumapSnp:
        """The underlying serial pipeline (index, seeder, caller)."""
        return self._pipeline

    # -- resource lifecycle -----------------------------------------------------
    @property
    def workers(self) -> int:
        """Worker-process count used by ``map_reads``/``run`` (engine state)."""
        return self._workers

    @workers.setter
    def workers(self, value: int) -> None:
        if value < 1:
            raise PipelineError(f"workers must be >= 1, got {value}")
        if value != self._workers:
            # The fleet is sized at spawn; a resize needs a fresh pool.
            self._teardown_pool()
        self._workers = value

    @property
    def telemetry(self) -> "TelemetryAggregator | None":
        """The live telemetry aggregator (None when telemetry is off)."""
        return self._telemetry

    @property
    def telemetry_url(self) -> "str | None":
        """The Prometheus ``/metrics`` URL (None when no endpoint is live)."""
        if self._endpoint is None:
            return None
        return self._endpoint.url

    def _ensure_telemetry(self) -> "TelemetryAggregator | None":
        """The live aggregator (plus endpoint), building them on demand.

        Returns ``None`` when ``config.telemetry.enabled`` is off — the
        telemetry plane then costs nothing: no thread, no socket, no
        sideband pipes, and workers skip the publisher entirely.
        """
        cfg = self.config.telemetry
        if not cfg.enabled:
            return None
        if self._telemetry is None:
            from repro.observability.livestream import TelemetryAggregator

            self._telemetry = TelemetryAggregator(
                interval=cfg.interval, stall_after=cfg.stall_after
            )
            self._telemetry.start()
        if self._endpoint is None and cfg.port is not None:
            from repro.observability.promexport import (
                PrometheusEndpoint,
                render_telemetry,
            )

            aggregator = self._telemetry
            self._endpoint = PrometheusEndpoint(
                lambda: render_telemetry(aggregator),
                host=cfg.host,
                port=cfg.port,
            )
            self._endpoint.start()
        return self._telemetry

    def close(self) -> None:
        """Release the worker pool, shared-memory segments and telemetry.

        Idempotent, and the engine stays usable afterwards — the next
        parallel call simply builds a fresh pool (and, with telemetry
        enabled, a fresh aggregator/endpoint).  Serial state (accumulator,
        index) is untouched; use :meth:`reset` for that.
        """
        # Pool first so workers stop publishing before the aggregator and
        # endpoint go away; endpoint before aggregator so no scrape races
        # a closing aggregator.
        self._teardown_pool()
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
        if self._telemetry is not None:
            self._telemetry.close()
            self._telemetry = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _pool_for(self, n_workers: int) -> "PersistentPool":
        """The warm pool for ``n_workers``, (re)building it as needed
        (see :func:`repro.pipeline.mp_backend.warm_pool`)."""
        from repro.pipeline.mp_backend import warm_pool

        self._pool = warm_pool(
            self._pool,
            self._pipeline,
            n_workers,
            telemetry=self._ensure_telemetry(),
        )
        return self._pool

    # -- staged verbs -----------------------------------------------------------
    def map_reads(self, reads: "list[Read]") -> MappingStats:
        """Align ``reads`` and fold their evidence into the engine's
        accumulator; returns the cumulative mapping stats.

        Call repeatedly to accumulate evidence online; ``call()`` consumes
        whatever has been accumulated so far.  With engine ``workers > 1``
        the batch maps across the persistent pool's warm fleet through the
        fault-tolerant dispatcher (crashes/hangs/corrupted partials are
        retried, then degraded to a serial re-run — see
        :mod:`repro.pipeline.mp_backend`); the merged partial folds into
        the staged accumulator exactly as the serial path would.
        """
        n_workers = self._workers
        if self._accumulator is None:
            self._accumulator = self._pipeline.new_accumulator()
        if n_workers > 1:
            from repro.pipeline.mp_backend import map_reads_multiprocessing

            part_acc, stats = map_reads_multiprocessing(
                self._pipeline, reads, self._pool_for(n_workers)
            )
            self._accumulator.merge(part_acc)
        else:
            _, stats = self._pipeline.map_reads(
                reads, accumulator=self._accumulator, timers=self._timers
            )
        self._stats.merge(stats)
        return self._stats

    def call(self) -> CallResult:
        """LRT over the evidence accumulated by ``map_reads`` so far."""
        if self._accumulator is None:
            raise PipelineError("call() before map_reads(): no evidence yet")
        snps = self._pipeline.call_snps(self._accumulator, timers=self._timers)
        return CallResult(
            snps=snps,
            stats=self._stats,
            accumulator=self._accumulator,
            timers=self._timers,
        )

    def reset(self) -> None:
        """Drop accumulated evidence and stats (start a fresh staged run)."""
        self._accumulator = None
        self._stats = MappingStats()
        self._timers = TimerRegistry()

    # -- one-shot verb ----------------------------------------------------------
    def run(
        self,
        reads: "list[Read]",
        trace: "str | None" = None,
    ) -> CallResult:
        """Full pipeline over ``reads`` with a fresh accumulator.

        With engine ``workers > 1`` the mapping runs over the persistent
        pool's warm fleet (identical output to serial; the reduction is
        order-deterministic).  Does not touch the engine's staged
        accumulator.

        ``trace`` enables flight-recorder tracing for this call and writes
        the resulting timeline to that path as Chrome trace-event JSON
        (openable in ``chrome://tracing`` or https://ui.perfetto.dev), with
        a run manifest embedded under ``otherData``.
        """
        n_workers = self._workers

        def execute() -> PipelineResult:
            if n_workers == 1:
                return self._pipeline.run(reads)
            from repro.pipeline.mp_backend import map_reads_multiprocessing

            # _pool_for is called here — inside any tracing scope — so a
            # freshly-built pool's workers see the final enable-state.
            pool = self._pool_for(n_workers)
            timers = TimerRegistry()
            with scope() as reg:
                merged, stats = map_reads_multiprocessing(
                    self._pipeline, reads, pool
                )
                if sanitize.enabled():
                    # Validate the cross-worker reduction before calling: a
                    # partial corrupted in transit (or by a worker) must fail
                    # here, not as a bogus SNP downstream.
                    sanitize.check_accumulator(
                        merged.snapshot(), where="accumulator.merge"
                    )
                snps = self._pipeline.call_snps(merged)
                snap = reg.snapshot()
                fill_timers(timers, snap)
                totals = snap.leaf_totals()
                if "map_parallel" in totals:
                    seconds, count = totals["map_parallel"]
                    timers.account("map_parallel", seconds, entries=count)
            return PipelineResult(
                snps=snps, accumulator=merged, stats=stats, timers=timers
            )

        if trace is None:
            return CallResult.from_pipeline_result(execute())

        import repro.observability.trace as trace_mod
        from repro.observability import write_chrome_trace
        from repro.observability.manifest import run_manifest

        was_enabled = trace_mod.enabled()
        trace_mod.enable()
        try:
            with scope() as reg:
                result = execute()
                snapshot = reg.snapshot()
        finally:
            if not was_enabled:
                trace_mod.disable()
        write_chrome_trace(
            trace,
            snapshot,
            manifest=run_manifest(
                config=self.config, workers=n_workers, command="Engine.run"
            ),
        )
        return CallResult.from_pipeline_result(result)
