"""Persistent shared-memory worker pool (ROADMAP item 2).

:class:`PersistentPool` is the event-service execution substrate behind
``Engine``'s parallel verbs: workers are spawned **once per pool
lifetime**, the big read-only state (genome codes, index CSR arrays) is
published as shared-memory segments (:mod:`repro.parallel.shm`) that
workers map zero-copy, and successive ``run()`` calls stream chunks over
the existing :class:`~repro.parallel.dispatch.ChunkDispatcher` duplex-pipe
machinery — so PR 4's per-chunk timeout / retry / respawn /
serial-fallback semantics and recovery counters survive unchanged.  A
respawned worker re-attaches to the segments (an ``mmap``) instead of
re-receiving the data.

The pool also plans chunk granularity: :func:`plan_chunks` combines the
LogGP cost model (:mod:`repro.parallel.costmodel`) with live per-chunk
timing history (fed back from the ``mp.chunk_map_seconds`` histogram via
:meth:`PersistentPool.note_chunk_time`) to keep per-chunk dispatch
overhead under ~1% of compute while a retried chunk never refunds more
than a fraction of its timeout.

Ownership: the pool owns both the worker fleet and the shared segments;
``close()`` (or the context manager, or the atexit crash net) stops the
workers and unlinks every segment.  Metrics: ``mp.shm_bytes`` gauge and
the ``mp.shm_publish`` trace instant at publish; ``mp.pool_reuse`` counts
warm reuses (in the dispatcher); ``mp.worker_attach_seconds`` is observed
by the worker initializer and ships home with the first chunk snapshot.
"""

from __future__ import annotations

import atexit
import math
from typing import TYPE_CHECKING, Any, Callable

import numpy as np

import repro.observability.trace as trace
from repro.errors import PipelineError
from repro.observability import current
from repro.parallel.costmodel import LogGPModel
from repro.parallel.dispatch import ChunkDispatcher, DispatchOutcome
from repro.parallel.shm import SharedArrayBundle

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.context import BaseContext

    from repro.observability.livestream import TelemetryAggregator

__all__ = ["PersistentPool", "plan_chunks"]

#: Per-chunk dispatch overhead may cost at most 1/“this” of chunk compute.
_OVERHEAD_BUDGET = 100.0
#: A retried chunk may refund at most timeout / this fraction of work.
_TIMEOUT_FRACTION = 8.0
#: Local duplex pipes modelled LogGP-style: ~10 us syscall+wakeup latency,
#: ~1 GB/s effective pickle-copy bandwidth (order-of-magnitude; the plan
#: only needs the asymptotics, not the exact machine).
_PIPE_MODEL = LogGPModel(latency=10e-6, byte_time=1.0 / 1e9)


def plan_chunks(
    n_items: int,
    workers: int,
    chunks_per_worker: int,
    *,
    per_item_seconds: "float | None" = None,
    per_item_nbytes: float = 0.0,
    chunk_timeout: float = 120.0,
    model: "LogGPModel | None" = None,
) -> int:
    """Deterministic chunk-count plan for one dispatch round.

    With no timing history the static split ``workers * chunks_per_worker``
    (capped by ``n_items``) is returned unchanged.  With history, the chunk
    size is clamped into the window where

    * per-chunk dispatch overhead (LogGP ``latency + bytes * byte_time``)
      stays under ``1/_OVERHEAD_BUDGET`` of the chunk's compute, and
    * one chunk's compute stays under ``chunk_timeout / _TIMEOUT_FRACTION``
      so a retry after a crash/hang refunds a bounded slice of work,

    and the result is re-capped so no worker sits idle (at least
    ``workers`` chunks) and no chunk is empty (at most ``n_items``).
    Pure and deterministic: same inputs, same plan.
    """
    if n_items < 1:
        raise PipelineError(f"n_items must be >= 1, got {n_items}")
    if workers < 1:
        raise PipelineError(f"workers must be >= 1, got {workers}")
    static = max(1, min(n_items, workers * chunks_per_worker))
    if per_item_seconds is None or per_item_seconds <= 0.0:
        return static
    cost = model or _PIPE_MODEL
    # Bandwidth term scales with the chunk on both sides of the inequality;
    # what remains of each item's compute after paying its transport bytes
    # is what must amortise the fixed per-message latency.
    effective = per_item_seconds - _OVERHEAD_BUDGET * per_item_nbytes * cost.byte_time
    hi_items = max(1, math.floor(chunk_timeout / (_TIMEOUT_FRACTION * per_item_seconds)))
    if effective <= 0.0:
        # Transport-bound items: the best available move is the biggest
        # chunks the retry budget allows.
        lo_items = hi_items
    else:
        lo_items = max(1, math.ceil(_OVERHEAD_BUDGET * cost.latency / effective))
    hi_items = max(lo_items, hi_items)
    items = min(max(math.ceil(n_items / static), lo_items), hi_items)
    n_chunks = math.ceil(n_items / items)
    return max(min(workers, n_items), min(n_chunks, n_items))


class PersistentPool:
    """A long-lived fault-tolerant worker fleet with shared broadcast state.

    Parameters
    ----------
    ctx, n_workers, worker_fn:
        As for :class:`ChunkDispatcher`; the fleet is spawned once and
        reused across :meth:`run` calls.
    initializer, initargs:
        Worker one-time init.  The initializer receives the publication
        map (``dict[str, SharedArraySpec]``) as its **first** argument,
        followed by ``initargs``.
    arrays:
        Read-only arrays to publish as shared-memory segments (genome
        codes, index CSR arrays, ...).
    timeout, max_retries, backoff_base, validate:
        Per-chunk fault-tolerance knobs, forwarded to the dispatcher.
    chunks_per_worker, autotune:
        Chunk-planning knobs for :meth:`plan_chunks`.
    telemetry:
        Optional :class:`~repro.observability.livestream.TelemetryAggregator`;
        when given, every spawned worker streams live metric deltas +
        heartbeats to it over a dedicated sideband pipe (the aggregator's
        lifetime is the caller's — usually the Engine's — concern).
    """

    def __init__(
        self,
        ctx: "BaseContext",
        n_workers: int,
        worker_fn: "Callable[[Any, int, int], Any]",
        *,
        initializer: "Callable[..., None] | None" = None,
        initargs: "tuple[Any, ...]" = (),
        arrays: "dict[str, np.ndarray]",
        timeout: float = 120.0,
        max_retries: int = 2,
        backoff_base: float = 0.05,
        validate: "Callable[[int, Any], None] | None" = None,
        chunks_per_worker: int = 4,
        autotune: bool = True,
        telemetry: "TelemetryAggregator | None" = None,
    ) -> None:
        if n_workers < 1:
            raise PipelineError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = n_workers
        self._chunks_per_worker = chunks_per_worker
        self._autotune = autotune
        self._chunk_timeout = timeout
        self._per_item_seconds: "float | None" = None
        self._per_item_nbytes = 0.0
        self._runs = 0
        #: Process-wide switches the workers captured at spawn, recorded by
        #: the builder so an owner can tell a stale fleet.
        self.spawn_flags: "tuple[bool, ...]" = ()
        self._bundle = SharedArrayBundle()
        for key, arr in arrays.items():
            self._bundle.publish(key, arr)
        current().gauge_max("mp.shm_bytes", self._bundle.nbytes)
        trace.instant(
            "mp.shm_publish", segments=len(arrays), nbytes=self._bundle.nbytes
        )
        self._dispatcher = ChunkDispatcher(
            ctx,
            n_workers,
            worker_fn,
            initializer=initializer,
            initargs=(self._bundle.specs,) + tuple(initargs),
            timeout=timeout,
            max_retries=max_retries,
            backoff_base=backoff_base,
            validate=validate,
            telemetry=telemetry,
        )
        self._closed = False
        # Crash net: a parent that never reaches close() (KeyboardInterrupt,
        # fatal error) still stops workers and unlinks segments at exit.
        atexit.register(self.close)

    # -- planning -------------------------------------------------------------
    def plan_chunks(self, n_items: int) -> int:
        """Chunk count for a round of ``n_items`` (autotuned when enabled)."""
        if not self._autotune:
            return max(1, min(n_items, self.n_workers * self._chunks_per_worker))
        return plan_chunks(
            n_items,
            self.n_workers,
            self._chunks_per_worker,
            per_item_seconds=self._per_item_seconds,
            per_item_nbytes=self._per_item_nbytes,
            chunk_timeout=self._chunk_timeout,
        )

    def note_chunk_time(
        self,
        seconds_per_chunk: float,
        items_per_chunk: float,
        per_item_nbytes: float = 0.0,
    ) -> None:
        """Feed one run's observed chunk cost back into the planner.

        Called by the backend with the run's ``mp.chunk_map_seconds``
        median; folded as an equal-weight EWMA so the plan adapts to the
        live workload without thrashing on one outlier run.
        """
        if seconds_per_chunk <= 0.0 or items_per_chunk <= 0.0:
            return
        if not math.isfinite(seconds_per_chunk):
            return
        per_item = seconds_per_chunk / items_per_chunk
        if self._per_item_seconds is None:
            self._per_item_seconds = per_item
        else:
            self._per_item_seconds = 0.5 * self._per_item_seconds + 0.5 * per_item
        self._per_item_nbytes = per_item_nbytes

    # -- lifecycle ------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def runs(self) -> int:
        """Completed :meth:`run` rounds (first one is the cold start)."""
        return self._runs

    @property
    def shm_bytes(self) -> int:
        """Bytes published to shared memory."""
        return self._bundle.nbytes

    @property
    def segment_names(self) -> "list[str]":
        """Owned shared-memory segment names (for leak checks/tests)."""
        return self._bundle.segment_names

    def start(self) -> None:
        """Eagerly spawn the fleet (otherwise the first ``run`` does it)."""
        if self._closed:
            raise PipelineError("PersistentPool is closed")
        self._dispatcher.start()

    def run(self, payloads: "list[Any]") -> DispatchOutcome:
        """Dispatch one round of chunk payloads over the warm fleet."""
        if self._closed:
            raise PipelineError("PersistentPool is closed")
        outcome = self._dispatcher.run(payloads)
        self._runs += 1
        return outcome

    def close(self) -> None:
        """Stop the workers and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        atexit.unregister(self.close)
        self._dispatcher.close()
        self._bundle.close()

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
