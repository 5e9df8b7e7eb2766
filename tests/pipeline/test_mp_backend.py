"""Tests for the real multiprocessing backend (small workloads: process
startup dominates, so these verify correctness, not speed).

Every parallel run goes through ``Engine`` and its shared-memory pool, the
one multi-process path.  Each side of a byte-identity comparison gets its
own fresh engine, so both plan the same static first-round chunking.

Fault-recovery tests pin the fork start method: the recovery logic is
start-method-agnostic (covered by ``TestStartMethods``) and fork keeps the
repeated worker spawns cheap on CI.
"""

import multiprocessing as mp
import os

import numpy as np
import pytest

import repro.observability.trace as trace
from repro.api import Engine
from repro.errors import PipelineError
from repro.experiments.workload import build_workload
from repro.observability import scope
from repro.phmm import sanitize
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.pipeline.gnumap import GnumapSnp
from repro.pipeline.online import OnlineGnumap


@pytest.fixture(scope="module")
def workload():
    wl = build_workload(scale="tiny", seed=31)
    # trim to keep the process-pool test fast
    wl.reads = wl.reads[:250]
    return wl


@pytest.fixture(scope="module")
def serial_result(workload):
    return GnumapSnp(workload.reference, PipelineConfig()).run(workload.reads)


def _calls(result):
    return {(s.pos, s.alt_name) for s in result.snps}


def _fork_config(**kwargs):
    return PipelineConfig(parallel=ParallelConfig(start_method="fork", **kwargs))


def run_engine(reference, reads, config=None, workers=2):
    """One ``Engine.run`` on a fresh engine whose pool is closed on exit."""
    with Engine(reference, config, workers=workers) as engine:
        return engine.run(reads)


class TestMultiprocessingBackend:
    def test_single_worker_is_serial(self, workload):
        config = PipelineConfig()
        serial = GnumapSnp(workload.reference, config).run(workload.reads)
        mp1 = run_engine(workload.reference, workload.reads, config, workers=1)
        assert {(s.pos, s.alt_name) for s in mp1.snps} == {
            (s.pos, s.alt_name) for s in serial.snps
        }

    def test_two_workers_match_serial(self, workload):
        config = PipelineConfig()
        serial = GnumapSnp(workload.reference, config).run(workload.reads)
        mp2 = run_engine(workload.reference, workload.reads, config, workers=2)
        assert {(s.pos, s.alt_name) for s in mp2.snps} == {
            (s.pos, s.alt_name) for s in serial.snps
        }
        assert np.allclose(
            mp2.accumulator.snapshot(), serial.accumulator.snapshot(), atol=1e-3
        )
        assert mp2.stats.n_reads == len(workload.reads)

    def test_zero_workers_rejected(self, workload):
        with pytest.raises(PipelineError):
            Engine(workload.reference, workers=0)

    def test_empty_reads(self, workload):
        result = run_engine(workload.reference, [], workers=2)
        assert result.snps == []


class TestStartMethods:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_start_method_matches_serial(self, workload, serial_result, method):
        if method not in mp.get_all_start_methods():
            pytest.skip(f"{method} start method unavailable")
        result = run_engine(
            workload.reference,
            workload.reads,
            PipelineConfig(parallel=ParallelConfig(start_method=method)),
            workers=2,
        )
        assert _calls(result) == _calls(serial_result)


class TestDegenerateLayouts:
    def test_more_workers_than_reads(self, workload):
        reads = workload.reads[:3]
        serial = GnumapSnp(workload.reference, PipelineConfig()).run(reads)
        with scope() as reg:
            result = run_engine(
                workload.reference, reads, _fork_config(), workers=8
            )
        assert _calls(result) == _calls(serial)
        snap = reg.snapshot()
        # 3 reads -> 3 chunks: only 3 of the 8 requested workers can work.
        assert snap.gauges["mp.workers"] == 8
        assert snap.gauges["mp.workers_effective"] == 3

    def test_zero_reads_parallel_reports_serial_fallback(self, workload):
        with scope() as reg:
            result = run_engine(workload.reference, [], workers=4)
        assert result.snps == []
        snap = reg.snapshot()
        # The degenerate serial path is visible in metrics, never silent.
        assert snap.counter("mp.serial_fallbacks") == 1
        assert snap.gauges["mp.workers_effective"] == 1

    def test_single_read_runs_serial(self, workload):
        with scope() as reg:
            result = run_engine(
                workload.reference, workload.reads[:1], workers=4
            )
        assert result.stats.n_reads == 1
        snap = reg.snapshot()
        assert snap.counter("mp.serial_fallbacks") == 1
        assert snap.gauges["mp.workers_effective"] == 1


class TestFaultRecovery:
    def test_crash_and_hang_recover_with_identical_output(
        self, workload, serial_result
    ):
        # The acceptance scenario: one crashed worker plus one hang past
        # the chunk deadline; the run completes, the calls match serial,
        # and the recovery counters tell the story.
        faulted = _fork_config(
            fault_spec="crash:chunk=0;hang:chunk=1,secs=30",
            chunk_timeout=2.0,
        )
        with scope() as reg:
            result = run_engine(
                workload.reference, workload.reads, faulted, workers=2
            )
        assert _calls(result) == _calls(serial_result)
        snap = reg.snapshot()
        assert snap.counter("mp.worker_deaths") == 1
        assert snap.counter("mp.chunk_timeouts") == 1
        assert snap.counter("mp.chunk_retries") == 2
        assert snap.counter("mp.serial_fallbacks") == 0

        # Byte-identity: a faulted run merges the same partials in the
        # same order as a clean run of the same chunking.
        clean = run_engine(
            workload.reference, workload.reads, _fork_config(), workers=2
        )
        assert np.array_equal(
            result.accumulator.snapshot(), clean.accumulator.snapshot()
        )

    def test_corrupt_partial_is_rejected_and_retried(
        self, workload, serial_result
    ):
        faulted = _fork_config(fault_spec="corrupt:chunk=0")
        with sanitize.sanitized(True), scope() as reg:
            result = run_engine(
                workload.reference, workload.reads, faulted, workers=2
            )
        assert _calls(result) == _calls(serial_result)
        snap = reg.snapshot()
        assert snap.counter("mp.partial_rejects") == 1
        assert snap.counter("mp.chunk_retries") == 1
        # The poisoned partial never reached the merge.
        assert np.isfinite(result.accumulator.snapshot()).all()

    def test_corrupt_partial_ignored_without_sanitizer_validation(
        self, workload
    ):
        # Without the sanitizer the pre-merge validation hook is off: the
        # poison flows through — exactly why the CI fault smoke runs with
        # validation on.  This pins the gating, not a desirable outcome.
        faulted = _fork_config(fault_spec="corrupt:chunk=0")
        with sanitize.sanitized(False), scope() as reg:
            result = run_engine(
                workload.reference, workload.reads, faulted, workers=2
            )
        assert reg.snapshot().counter("mp.partial_rejects") == 0
        assert np.isnan(result.accumulator.snapshot()).any()

    def test_exhausted_retries_degrade_to_serial_fallback(
        self, workload, serial_result
    ):
        # A chunk that fails every attempt must complete serially in the
        # parent — the run never dies, the degradation is counted.
        faulted = _fork_config(
            fault_spec="crash:chunk=0,times=10", max_retries=1
        )
        with scope() as reg:
            result = run_engine(
                workload.reference, workload.reads, faulted, workers=2
            )
        assert _calls(result) == _calls(serial_result)
        snap = reg.snapshot()
        assert snap.counter("mp.serial_fallbacks") == 1
        assert snap.counter("mp.worker_deaths") == 2
        assert snap.counter("mp.chunk_retries") == 1

        clean = run_engine(
            workload.reference, workload.reads, _fork_config(), workers=2
        )
        assert np.array_equal(
            result.accumulator.snapshot(), clean.accumulator.snapshot()
        )

    def test_env_var_activates_fault_plan(self, workload, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:chunk=0")
        with scope() as reg:
            run_engine(
                workload.reference, workload.reads, _fork_config(), workers=2
            )
        assert reg.snapshot().counter("mp.worker_deaths") == 1


def _engine_verb(reference, config):
    engine = Engine(reference, config, workers=2)
    return engine, engine.map_reads


def _online_verb(reference, config):
    stream = OnlineGnumap(reference, config, workers=2)
    return stream, stream.feed


class TestPoolRecycling:
    """Workers capture the tracing/sanitizer switches at spawn, so every
    pool owner must recycle its fleet when a switch flips."""

    @pytest.fixture
    def tracing_off(self):
        was_enabled = trace.enabled()
        trace.disable()
        yield
        if was_enabled:
            trace.enable()
        else:
            trace.disable()

    @pytest.mark.parametrize(
        "verb", [_engine_verb, _online_verb], ids=["engine", "online"]
    )
    def test_tracing_switched_on_reaches_workers(
        self, workload, tracing_off, verb
    ):
        reads = workload.reads[:60]
        owner, call = verb(workload.reference, _fork_config())
        with owner:
            call(reads)  # fleet spawned with tracing off
            trace.enable()
            with scope() as reg:
                call(reads)
            snap = reg.snapshot()
        begins = snap.instants("mp.chunk_begin")
        assert begins, "workers emitted no chunk_begin: stale fleet reused"
        assert os.getpid() not in {ev[3] for ev in begins}
