"""Tests for online (streaming) SNP calling."""

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.experiments.workload import build_workload
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.pipeline.gnumap import GnumapSnp
from repro.pipeline.online import OnlineGnumap


@pytest.fixture(scope="module")
def workload():
    return build_workload(scale="tiny", seed=303)


def chunks(reads, n):
    size = (len(reads) + n - 1) // n
    return [reads[i : i + size] for i in range(0, len(reads), size)]


class TestOnlineGnumap:
    def test_final_state_equals_batch_run(self, workload):
        online = OnlineGnumap(workload.reference, PipelineConfig())
        for chunk in chunks(workload.reads, 5):
            online.feed(chunk)
        batch = GnumapSnp(workload.reference, PipelineConfig()).run(workload.reads)
        assert {(s.pos, s.alt_name) for s in online.current_snps()} == {
            (s.pos, s.alt_name) for s in batch.snps
        }
        assert np.allclose(
            online.accumulator.snapshot(), batch.accumulator.snapshot(), atol=1e-3
        )
        assert online.stats.n_reads == workload.n_reads

    def test_call_count_grows_with_evidence(self, workload):
        online = OnlineGnumap(workload.reference, PipelineConfig())
        for chunk in chunks(workload.reads, 6):
            online.feed(chunk)
        history = online.history()
        assert len(history) == 6
        # more evidence, more callable sites (allowing small fluctuations)
        assert history[-1] >= history[0]
        assert history[-1] > 0

    def test_watch_events_fire_once_per_transition(self, workload):
        online = OnlineGnumap(workload.reference, PipelineConfig())
        truth_positions = workload.catalog.positions.tolist()
        online.watch(truth_positions)
        all_events = []
        for chunk in chunks(workload.reads, 6):
            report = online.feed(chunk)
            all_events.extend(report.events)
        called_finally = {s.pos for s in online.current_snps()}
        fired = {e.pos for e in all_events if e.now_called}
        # every finally-called watched SNP fired a now_called event
        assert called_finally & set(truth_positions) <= fired

    def test_watch_validation(self, workload):
        online = OnlineGnumap(workload.reference, PipelineConfig())
        with pytest.raises(PipelineError):
            online.watch([10**9])

    def test_coverage_summary(self, workload):
        online = OnlineGnumap(workload.reference, PipelineConfig())
        online.feed(workload.reads[:200])
        summary = online.coverage_summary()
        assert summary["mean"] > 0
        assert summary["max"] >= summary["median"] >= 0
        assert 0 <= summary["positions_above_min_depth"] <= len(workload.reference)

    def test_empty_chunk_is_noop(self, workload):
        online = OnlineGnumap(workload.reference, PipelineConfig())
        report = online.feed([])
        assert report.n_reads == 0
        assert report.n_snps_now == 0


class TestOnlineParallelFeed:
    def test_workers_validation(self, workload):
        with pytest.raises(PipelineError):
            OnlineGnumap(workload.reference, workers=0)

    def test_parallel_feed_matches_serial_stream(self, workload):
        # fork keeps the worker spawns cheap; the dispatcher itself is
        # start-method-agnostic (tests/pipeline/test_mp_backend).
        config = PipelineConfig(parallel=ParallelConfig(start_method="fork"))
        serial = OnlineGnumap(workload.reference, PipelineConfig())
        with OnlineGnumap(workload.reference, config, workers=2) as parallel:
            for chunk in chunks(workload.reads[:200], 2):
                serial.feed(chunk)
                parallel.feed(chunk)
        assert {(s.pos, s.alt_name) for s in parallel.current_snps()} == {
            (s.pos, s.alt_name) for s in serial.current_snps()
        }
        assert np.allclose(
            parallel.accumulator.snapshot(),
            serial.accumulator.snapshot(),
            atol=1e-3,
        )
        assert parallel.stats.n_reads == serial.stats.n_reads == 200

    def test_parallel_feed_survives_injected_crash(self, workload):
        # A fed chunk with a crashing worker still lands: the stream keeps
        # going, evidence is identical to an unfaulted parallel stream.
        config = PipelineConfig(parallel=ParallelConfig(
            start_method="fork", fault_spec="crash:chunk=0"
        ))
        clean_config = PipelineConfig(parallel=ParallelConfig(start_method="fork"))
        with OnlineGnumap(workload.reference, clean_config, workers=2) as clean:
            clean.feed(workload.reads[:120])
        with OnlineGnumap(workload.reference, config, workers=2) as faulted:
            faulted.feed(workload.reads[:120])
        assert np.array_equal(
            faulted.accumulator.snapshot(), clean.accumulator.snapshot()
        )
