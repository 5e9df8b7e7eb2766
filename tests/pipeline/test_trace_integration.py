"""End-to-end flight-recorder integration: workers, faults, export.

The load-bearing claim: a fault-injected parallel run's trace contains
worker-lane events carried home from *spawned* processes (the hard
transport case — no state inheritance), the recovery instants agree with
the recovery counters, and the export is valid Chrome trace JSON whose
worker lanes are exactly the processes that delivered chunks.
"""

import json
import multiprocessing as mp
import os

import pytest

import repro.observability.trace as trace
from repro.api import Engine
from repro.experiments.workload import build_workload
from repro.observability import scope, to_chrome_trace
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.pipeline.gnumap import GnumapSnp


@pytest.fixture(scope="module")
def workload():
    wl = build_workload(scale="tiny", seed=31)
    wl.reads = wl.reads[:250]
    return wl


@pytest.fixture(autouse=True)
def traced():
    was_enabled = trace.enabled()
    trace.enable()
    yield
    if not was_enabled:
        trace.disable()


def run_traced(workload, **parallel_kwargs):
    config = PipelineConfig(parallel=ParallelConfig(**parallel_kwargs))
    with scope() as reg, Engine(workload.reference, config, workers=2) as engine:
        result = engine.run(workload.reads)
        return result, reg.snapshot()


def dispatch_pids(snap):
    """``(chunk, attempt) -> worker pid`` from the parent's dispatch log."""
    return {
        (ev[7]["chunk"], ev[7]["attempt"]): ev[7]["worker_pid"]
        for ev in snap.instants("mp.chunk_dispatch")
    }


def delivering_pids(dispatched):
    """Pids of the workers whose attempt of each chunk was accepted (the
    last one dispatched): the only processes whose events come home."""
    last = {}
    for chunk, attempt in dispatched:
        last[chunk] = max(attempt, last.get(chunk, attempt))
    return {dispatched[(chunk, attempt)] for chunk, attempt in last.items()}


class TestFaultInjectedTrace:
    @pytest.fixture(scope="class")
    def crash_run(self, workload):
        if "spawn" not in mp.get_all_start_methods():  # pragma: no cover
            pytest.skip("spawn start method unavailable")
        trace.enable()
        try:
            # chunks = workers * chunks_per_worker = 4; chunk 3 crashes on
            # attempt 0 only, so one death + one retry, deterministically.
            # The retry cannot run in the dead process, so the run always
            # spans >= 2 worker processes, whichever worker the OS lets
            # pick up which chunk.
            return run_traced(
                workload,
                start_method="spawn",
                fault_spec="crash:chunk=3",
                chunks_per_worker=2,
                backoff_base=0.01,
            )
        finally:
            trace.disable()

    def test_counters_match_instants(self, crash_run):
        _, snap = crash_run
        assert snap.counter("mp.worker_deaths") == 1
        assert snap.counter("mp.chunk_retries") == 1
        assert len(snap.instants("mp.worker_death")) == 1
        assert len(snap.instants("mp.chunk_retry")) == 1
        (death,) = snap.instants("mp.worker_death")
        assert death[7]["chunk"] == 3 and death[7]["attempt"] == 0

    def test_worker_lanes_present_from_spawned_processes(self, crash_run):
        _, snap = crash_run
        dispatched = dispatch_pids(snap)
        dead_pid, retry_pid = dispatched[(3, 0)], dispatched[(3, 1)]
        assert len({dead_pid, retry_pid}) >= 2, "expected >=2 worker processes"
        assert os.getpid() not in {dead_pid, retry_pid}
        # Worker events travel home with accepted chunks: the retry worker
        # always has a lane, the dead worker only if it delivered a chunk
        # before crashing (which depends on scheduling).
        worker_pids = {
            ev[3] for ev in snap.events if ev[4] == "worker"
        }
        assert worker_pids == delivering_pids(dispatched)
        assert retry_pid in worker_pids
        # Worker-side chunk instants made the pickle round trip home.
        begins = snap.instants("mp.chunk_begin")
        assert {ev[7]["chunk"] for ev in begins} >= {0, 1, 2, 3}

    def test_chunk_latency_histogram_recorded(self, crash_run):
        _, snap = crash_run
        hist = snap.histogram("mp.chunk_map_seconds")
        assert hist is not None and hist["count"] >= 4
        assert snap.histogram_quantile("mp.chunk_map_seconds", 0.99) > 0

    def test_chrome_export_loads_with_worker_lanes(self, crash_run):
        _, snap = crash_run
        doc = json.loads(json.dumps(to_chrome_trace(snap)))
        worker_lanes = {
            ev["pid"] for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
            and ev["args"]["name"].startswith("worker")
        }
        assert worker_lanes == delivering_pids(dispatch_pids(snap))
        dispatched_to = {
            ev["args"]["worker_pid"] for ev in doc["traceEvents"]
            if ev["name"] == "mp.chunk_dispatch"
        }
        assert len(dispatched_to) >= 2
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert {"mp.worker_death", "mp.chunk_retry", "map_reads"} <= names

    def test_faulted_run_output_matches_serial(self, crash_run, workload):
        result, _ = crash_run
        serial = GnumapSnp(workload.reference, PipelineConfig()).run(
            workload.reads
        )
        assert {(s.pos, s.alt_name) for s in result.snps} == {
            (s.pos, s.alt_name) for s in serial.snps
        }


class TestCleanParallelTrace:
    def test_span_pairs_balance_per_lane(self, workload):
        result, snap = run_traced(workload, start_method="fork")
        assert result.stats.n_reads == len(workload.reads)
        for pid, tid in {(ev[3], ev[5]) for ev in snap.events}:
            lane = [ev for ev in snap.events if (ev[3], ev[5]) == (pid, tid)]
            begins = sum(1 for ev in lane if ev[1] == "B")
            ends = sum(1 for ev in lane if ev[1] == "E")
            assert begins == ends, f"unbalanced span pairs in lane {pid}/{tid}"

    def test_mapping_weight_histogram_flows_back(self, workload):
        _, snap = run_traced(workload, start_method="fork")
        hist = snap.histogram("pipeline.mapping_weight")
        assert hist is not None and hist["count"] > 0
