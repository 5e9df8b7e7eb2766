"""Tests for the persistent shared-memory worker pool.

Three layers: :func:`plan_chunks` (pure planning math), the
:class:`PersistentPool` lifecycle (segment ownership, reuse, crash
recovery, leak-free teardown — including a parent killed by
KeyboardInterrupt), and byte-identity of pool runs that share a chunking
(warm reuse, a crashed-and-respawned worker, the long-seed index).

Pool tests pin the fork start method to keep spawns cheap; the dispatch
semantics are start-method-agnostic (tests/pipeline/test_mp_backend.py).
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.experiments.workload import build_workload
from repro.observability import scope
from repro.parallel.pool import plan_chunks
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.pipeline.gnumap import GnumapSnp
from repro.pipeline.mp_backend import make_pool, map_reads_multiprocessing

SHM_DIR = Path("/dev/shm")


@pytest.fixture(scope="module")
def workload():
    wl = build_workload(scale="tiny", seed=47)
    wl.reads = wl.reads[:150]
    return wl


def pool_config(**kwargs):
    kwargs.setdefault("start_method", "fork")
    # Buffer comparisons need a pinned chunking: autotune only ever changes
    # latency, but float merge order is chunking-dependent.
    kwargs.setdefault("autotune_chunks", False)
    return PipelineConfig(parallel=ParallelConfig(**kwargs))


def segments_on_disk(names):
    if not SHM_DIR.is_dir():  # pragma: no cover - non-tmpfs platforms
        pytest.skip("/dev/shm not available")
    return [n for n in names if (SHM_DIR / n).exists()]


class TestPlanChunks:
    def test_no_history_returns_static_split(self):
        assert plan_chunks(100, 2, 4) == 8
        assert plan_chunks(3, 8, 4) == 3  # capped by the item count
        assert plan_chunks(1, 2, 4) == 1

    def test_slow_items_clamp_to_retry_budget(self):
        # 10 s/item against a 120 s timeout: one item per chunk, so a
        # retried chunk refunds a bounded slice of work.
        assert plan_chunks(50, 2, 4, per_item_seconds=10.0) == 50

    def test_cheap_items_amortise_dispatch_latency(self):
        # 1 us items over a ~10 us pipe: chunks grow past the static split
        # until overhead is ~1% of compute, floored at one chunk per worker.
        assert plan_chunks(10_000, 16, 4, per_item_seconds=1e-6) == 16

    def test_transport_bound_items_take_biggest_chunks(self):
        # Bytes dominate compute: latency can't be amortised by growing
        # chunks, so the plan floors at one chunk per worker.
        n = plan_chunks(
            10_000, 16, 4, per_item_seconds=1e-6, per_item_nbytes=1e6
        )
        assert n == 16

    def test_deterministic(self):
        a = plan_chunks(5_000, 4, 4, per_item_seconds=3e-4, per_item_nbytes=128.0)
        b = plan_chunks(5_000, 4, 4, per_item_seconds=3e-4, per_item_nbytes=128.0)
        assert a == b

    def test_validation(self):
        with pytest.raises(PipelineError):
            plan_chunks(0, 2, 4)
        with pytest.raises(PipelineError):
            plan_chunks(10, 0, 4)


class TestPoolLifecycle:
    def test_publish_reuse_and_teardown(self, workload):
        pipe = GnumapSnp(workload.reference, pool_config())
        with scope() as reg:
            pool = make_pool(pipe, 2)
            try:
                assert pool.shm_bytes > 0
                live = segments_on_disk(pool.segment_names)
                assert set(live) == set(pool.segment_names)

                first, _ = map_reads_multiprocessing(pipe, workload.reads, pool)
                second, _ = map_reads_multiprocessing(pipe, workload.reads, pool)
            finally:
                pool.close()
            snap = reg.snapshot()
        # Warm reuse: the second run found the fleet alive.
        assert pool.runs == 2
        assert snap.counter("mp.pool_reuse") == 1
        assert snap.counter("mp.worker_deaths") == 0
        assert snap.gauges["mp.shm_bytes"] == pool.shm_bytes
        # Attach cost was measured in-worker and shipped home.
        hist = snap.histogram("mp.worker_attach_seconds")
        assert hist is not None and hist["count"] >= 1
        # Same fleet, same chunking: identical partial merges.
        assert np.array_equal(first.snapshot(), second.snapshot())
        # close() unlinked every segment.
        assert segments_on_disk(pool.segment_names) == []
        assert pool.closed

    def test_closed_pool_rejects_runs_and_close_is_idempotent(self, workload):
        pipe = GnumapSnp(workload.reference, pool_config())
        pool = make_pool(pipe, 2)
        pool.close()
        pool.close()
        with pytest.raises(PipelineError):
            pool.run([])
        with pytest.raises(PipelineError):
            pool.start()

    def test_autotune_feedback_accepts_only_sane_samples(self, workload):
        pipe = GnumapSnp(
            workload.reference, pool_config(autotune_chunks=True)
        )
        pool = make_pool(pipe, 2)
        try:
            assert pool.plan_chunks(100) == 8  # static until history arrives
            pool.note_chunk_time(0.0, 10.0)      # ignored
            pool.note_chunk_time(-1.0, 10.0)     # ignored
            pool.note_chunk_time(float("nan"), 10.0)  # ignored
            assert pool.plan_chunks(100) == 8
            pool.note_chunk_time(10.0, 1.0)      # 10 s/item: retry clamp
            assert pool.plan_chunks(100) == 100
        finally:
            pool.close()


class TestPoolFaultRecovery:
    def test_crashed_worker_reattaches_and_output_is_identical(self, workload):
        clean_pipe = GnumapSnp(workload.reference, pool_config())
        faulted_pipe = GnumapSnp(
            workload.reference, pool_config(fault_spec="crash:chunk=0")
        )
        clean_pool = make_pool(clean_pipe, 2)
        faulted_pool = make_pool(faulted_pipe, 2)
        try:
            clean, _ = map_reads_multiprocessing(
                clean_pipe, workload.reads, clean_pool
            )
            with scope() as reg:
                faulted, _ = map_reads_multiprocessing(
                    faulted_pipe, workload.reads, faulted_pool
                )
            snap = reg.snapshot()
            assert snap.counter("mp.worker_deaths") == 1
            assert snap.counter("mp.chunk_retries") == 1
            # The crash never touched the parent-owned segments...
            live = segments_on_disk(faulted_pool.segment_names)
            assert set(live) == set(faulted_pool.segment_names)
            # ...and the respawned worker re-attached: the attach histogram
            # holds the original fleet plus the replacement.
            hist = snap.histogram("mp.worker_attach_seconds")
            assert hist is not None and hist["count"] >= 1
            # Same chunking, same merge order: byte-identical evidence.
            assert np.array_equal(clean.snapshot(), faulted.snapshot())
        finally:
            clean_pool.close()
            faulted_pool.close()
        assert segments_on_disk(faulted_pool.segment_names) == []


class TestCrashNet:
    """A parent that dies without close() must not leak /dev/shm segments."""

    SCRIPT = textwrap.dedent("""
        import sys
        from repro.api import Engine
        from repro.experiments.workload import build_workload
        from repro.pipeline.config import ParallelConfig, PipelineConfig

        wl = build_workload(scale="tiny", seed=47)
        config = PipelineConfig(parallel=ParallelConfig(start_method="fork"))
        engine = Engine(wl.reference, config, workers=2)
        engine.run(wl.reads[:60])
        print("SEGMENTS " + " ".join(engine._pool.segment_names), flush=True)
        {exit_stmt}
    """)

    def _run(self, exit_stmt):
        if not SHM_DIR.is_dir():  # pragma: no cover - non-tmpfs platforms
            pytest.skip("/dev/shm not available")
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT.format(exit_stmt=exit_stmt)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        line = next(
            (ln for ln in proc.stdout.splitlines() if ln.startswith("SEGMENTS ")),
            None,
        )
        assert line is not None, f"warm-up never completed: {proc.stderr[-2000:]}"
        return proc, line.split()[1:]

    def test_normal_exit_without_close_unlinks_segments(self):
        proc, names = self._run("sys.exit(0)")
        assert proc.returncode == 0
        assert names and segments_on_disk(names) == []

    def test_keyboard_interrupt_unlinks_segments(self):
        # An uncaught KeyboardInterrupt still unwinds through atexit: the
        # pool's crash net stops the workers and unlinks every segment.
        proc, names = self._run("raise KeyboardInterrupt")
        assert proc.returncode != 0
        assert names and segments_on_disk(names) == []


class TestLongSeedPublication:
    def test_long_index_arrays_round_trip_through_pool(self, workload):
        from repro.index.seeding import SeederConfig

        cfg = PipelineConfig(
            parallel=ParallelConfig(start_method="fork", autotune_chunks=False),
            seeder=SeederConfig(seed_len=20, qgram_filter=True),
        )
        pipe = GnumapSnp(workload.reference, cfg)
        serial, _ = pipe.map_reads(workload.reads)
        pool = make_pool(pipe, 2)
        try:
            published = set(pool._bundle.specs)
            assert {
                "index_long_kmers",
                "index_long_offsets",
                "index_long_positions",
            } <= published
            parallel, _ = map_reads_multiprocessing(pipe, workload.reads, pool)
        finally:
            pool.close()
        # Workers rebuilt the same long-seed index from shared views;
        # chunked merges reorder float sums, so compare to kernel precision.
        np.testing.assert_allclose(
            parallel.snapshot(), serial.snapshot(), rtol=1e-5, atol=1e-8
        )

    def test_plain_config_publishes_no_long_arrays(self, workload):
        pipe = GnumapSnp(workload.reference, pool_config())
        pool = make_pool(pipe, 2)
        try:
            assert not any("long" in key for key in pool._bundle.specs)
        finally:
            pool.close()
