"""Integration: metric invariants over real pipeline runs.

Three layers:

* serial run — ``pipeline.reads`` equals the input read count, stage span
  times sum to no more than the measured wall time, the span tree nests as
  documented;
* serial vs multiprocessing — the topology-invariant counters (reads,
  pairs, DP cells, caller tallies) are *identical* regardless of worker
  count, and gauges agree;
* CLI — ``repro call --metrics-json`` emits the schema'd document and the
  same invariants hold between ``--workers 1`` and ``--workers 4``.
"""

import json
import time

import pytest

from repro.api import Engine
from repro.cli import main
from repro.experiments.workload import build_workload
from repro.observability import MetricsRegistry, scope, use
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp

#: Counters that must not depend on how the work is partitioned.
#: (pipeline.batches and phmm.batches legitimately differ with chunking.)
INVARIANT_COUNTERS = (
    "pipeline.reads",
    "pipeline.reads_mapped",
    "pipeline.reads_unmapped",
    "pipeline.pairs",
    "seed.reads",
    "seed.candidates",
    "phmm.pairs",
    "phmm.forward_cells",
    "phmm.backward_cells",
    "caller.positions_seen",
    "caller.positions_tested",
    "caller.snps",
)


@pytest.fixture(scope="module")
def workload():
    wl = build_workload(scale="tiny", seed=31)
    return wl


@pytest.fixture(scope="module")
def reads(workload):
    return workload.reads[:240]


class TestSerialInvariants:
    def test_counts_spans_and_wall_time(self, workload, reads):
        t0 = time.perf_counter()
        with scope() as reg:
            pipe = GnumapSnp(workload.reference, PipelineConfig())
            result = pipe.run(reads)
        wall = time.perf_counter() - t0
        snap = reg.snapshot()

        # Counter invariants against ground truth.
        assert snap.counters["pipeline.reads"] == len(reads)
        assert snap.counters["seed.reads"] == len(reads)
        assert (
            snap.counters["pipeline.reads_mapped"]
            + snap.counters["pipeline.reads_unmapped"]
            == len(reads)
        )
        assert snap.counters["pipeline.reads_mapped"] == result.stats.n_mapped
        assert snap.counters["pipeline.pairs"] == result.stats.n_pairs
        assert snap.counters["phmm.pairs"] == result.stats.n_pairs
        assert snap.counters["caller.snps"] == len(result.snps)
        assert snap.gauges["pipeline.peak_accumulator_bytes"] > 0

        # Span tree shape and time accounting.
        assert snap.span_count("map_reads") == 1
        children = snap.span_node("map_reads")["children"]
        assert {"seed", "align", "accumulate"} <= set(children)
        child_sum = sum(node["seconds"] for node in children.values())
        assert child_sum <= snap.span_seconds("map_reads") + 1e-9
        assert snap.total_span_seconds() <= wall + 1e-9

        # The legacy flat timers mirror the spans exactly.
        for stage in ("seed", "align", "accumulate", "call"):
            assert result.timers[stage].elapsed == pytest.approx(
                snap.leaf_totals()[stage][0]
            )

    def test_cells_match_batch_geometry(self, workload, reads):
        with scope() as reg:
            pipe = GnumapSnp(workload.reference, PipelineConfig())
            _, stats = pipe.map_reads(reads)
        snap = reg.snapshot()
        read_len = len(reads[0])
        width = read_len + 2 * PipelineConfig().pad
        expected = stats.n_pairs * read_len * width
        assert snap.counters["phmm.forward_cells"] == expected
        assert snap.counters["phmm.backward_cells"] == expected


class TestSerialVsMultiprocessing:
    def test_counter_totals_identical_across_worker_counts(
        self, workload, reads
    ):
        with scope() as serial_reg:
            with Engine(workload.reference, PipelineConfig(), workers=1) as e:
                serial = e.run(reads)
        with scope() as mp_reg:
            with Engine(workload.reference, PipelineConfig(), workers=3) as e:
                parallel = e.run(reads)
        s, p = serial_reg.snapshot(), mp_reg.snapshot()
        for name in INVARIANT_COUNTERS:
            assert s.counters[name] == p.counters[name], name
        assert (
            s.gauges["pipeline.peak_accumulator_bytes"]
            == p.gauges["pipeline.peak_accumulator_bytes"]
        )
        assert [c.pos for c in serial.snps] == [c.pos for c in parallel.snps]
        # The mp run reports the merged worker tree plus its own stages.
        assert p.span_count("map_parallel") == 1
        # One map_reads span per dispatched chunk (chunks = workers x
        # chunks-per-worker, capped by the read count).
        n_chunks = min(len(reads), 3 * PipelineConfig().parallel.chunks_per_worker)
        assert p.span_count("map_reads") == n_chunks
        assert p.span_seconds("map_reads/align") > 0


class TestCliMetricsJson:
    @pytest.fixture(scope="class")
    def sim_files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli_metrics")
        ref, reads, truth = d / "ref.fa", d / "reads.fq", d / "truth.tsv"
        rc = main([
            "simulate", "--scale", "tiny", "--seed", "13",
            "--reference", str(ref), "--reads", str(reads),
            "--truth", str(truth),
        ])
        assert rc == 0
        return d, ref, reads

    def _call(self, d, ref, reads, workers):
        out = d / f"metrics_w{workers}.json"
        with use(MetricsRegistry()):
            rc = main([
                "call", str(ref), str(reads),
                "-o", str(d / f"snps_w{workers}.tsv"),
                "--workers", str(workers),
                "--metrics-json", str(out),
            ])
        assert rc == 0
        return json.loads(out.read_text())

    def test_workers_1_vs_4_emit_identical_counter_totals(self, sim_files):
        d, ref, reads = sim_files
        doc1 = self._call(d, ref, reads, workers=1)
        doc4 = self._call(d, ref, reads, workers=4)
        for doc in (doc1, doc4):
            assert doc["schema"] == "repro.metrics/v2"
            assert set(doc) == {
                "schema", "counters", "gauges", "histograms", "spans",
                "totals", "manifest",
            }
            assert doc["manifest"]["schema"] == "repro.manifest/v1"
        # The parallel run records the per-chunk latency distribution.
        assert doc4["histograms"]["mp.chunk_map_seconds"]["count"] > 0
        for name in INVARIANT_COUNTERS:
            assert doc1["counters"][name] == doc4["counters"][name], name
        # Gauges agree except the mp-only worker-count and pool gauges.
        assert doc4["gauges"].pop("mp.workers") == 4
        assert doc4["gauges"].pop("mp.workers_effective") == 4
        # The CLI's parallel path runs over the shared-memory pool (the
        # only multi-process path): the published genome+index bytes are
        # reported.
        assert doc4["gauges"].pop("mp.shm_bytes") > 0
        assert doc1["gauges"] == doc4["gauges"]
        # Times are consistent, not identical: both runs report a positive
        # span total and every tree totals its children.
        for doc in (doc1, doc4):
            assert doc["totals"]["span_seconds"] > 0

            def check(tree):
                for node in tree.values():
                    child_sum = sum(
                        c["seconds"] for c in node["children"].values()
                    )
                    assert child_sum <= node["seconds"] + 1e-9
                    check(node["children"])

            check(doc["spans"])
